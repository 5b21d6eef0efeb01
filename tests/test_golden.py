"""Byte-identity of the CLI reports.

Each command runs in-process through `cli.main` at the default seed and
flags; its exit code and the sha256 of its stdout must equal the recorded
pair. A change to the table is a change to report output, so refactors of
the engine leave it alone. Print a fresh table with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import os
from pathlib import Path

import pytest

from supersasaki.cli import main

ROOT = Path(__file__).resolve().parents[1]
SPEC_NAMES = ("euclidean2", "euclidean4", "euclidean6", "misner", "polar", "varcoef")


def _commands():
    cmds = []
    for name in SPEC_NAMES:
        spec = f"specs/{name}.json"
        cmds += [
            ("christoffel", spec),
            ("sasaki", spec),
            ("classical-sasaki", spec),
            ("acs", spec),
            ("pair", spec, "--x", "deRham", "--y", "deRham"),
            ("check", spec, "--suite", "cartan", "--fields", "1"),
            ("check", spec, "--suite", "proposition", "--fields", "1"),
        ]
    along = {
        "rotation": ("specs/euclidean2.json",),
        "scaling": ("specs/euclidean2.json",),
        "phi_translation": ("specs/misner.json",),
        "polar_to_cartesian": ("specs/polar.json", "--target", "specs/euclidean2.json"),
    }
    for suite, maps in (
        ("naturality", ("rotation", "scaling", "phi_translation", "polar_to_cartesian")),
        ("invariance", ("rotation", "phi_translation", "polar_to_cartesian")),
    ):
        for m in maps:
            source, *target = along[m]
            cmds.append(
                ("check", source, "--suite", suite, "--map", f"specs/maps/{m}.json", *target)
            )
    cmds += [
        ("pair", "specs/euclidean2.json", "--x", "raw:specs/fields/odd_mixed.json",
         "--y", "lie:specs/fields/shear.json"),
        ("pair", "specs/varcoef.json", "--x", "lie:u*v+1,v-2", "--y", "interior:u+1,2*u*v"),
    ]
    # A curved chart of dimension above 2 with a diagonal metric. Its
    # proposition round takes about 0.4 s (Python 3.11.7, 2-CPU host), most
    # of it in the left side of (vi), the lift pairing <L_X|L_Y>.
    curved4 = "specs/curved4.json"
    cmds += [
        ("christoffel", curved4),
        ("sasaki", curved4),
        ("classical-sasaki", curved4),
        ("acs", curved4),
        ("check", curved4, "--suite", "cartan", "--fields", "1"),
        ("check", curved4, "--suite", "proposition", "--fields", "1"),
        ("pair", curved4, "--x", "lie:y,0,1,x", "--y", "interior:1,z,0,0"),
        ("pair", curved4, "--x", "interior:w,1,0,0", "--y", "deRham"),
    ]
    # The first chart with exp, sqrt and ln entries.
    transcendental = "specs/transcendental.json"
    cmds += [
        ("christoffel", transcendental),
        ("sasaki", transcendental),
        ("classical-sasaki", transcendental),
        ("acs", transcendental),
        ("pair", transcendental, "--x", "lie:y,x", "--y", "interior:1,x"),
        ("pair", transcendental, "--x", "lie:x*y,1", "--y", "lie:1,x^2"),
        ("check", transcendental, "--suite", "cartan", "--fields", "1"),
        ("check", transcendental, "--suite", "proposition", "--fields", "2"),
    ]
    # The first chart with non-integer constants and a non-monic denominator.
    rational = "specs/rational.json"
    cmds += [
        ("christoffel", rational),
        ("sasaki", rational),
        ("classical-sasaki", rational),
        ("acs", rational),
        ("pair", rational, "--x", "lie:1+v,u", "--y", "interior:u,1"),
        ("check", rational, "--suite", "cartan", "--fields", "1"),
        ("check", rational, "--suite", "proposition", "--fields", "2"),
    ]
    # The first chart with a sin atom in its Christoffel denominators; the
    # fields of the pair commands put sin(theta) in denominators too.
    sphere = "specs/sphere.json"
    cmds += [
        ("christoffel", sphere),
        ("sasaki", sphere),
        ("classical-sasaki", sphere),
        ("acs", sphere),
        ("pair", sphere, "--x", "lie:cos(theta)/sin(theta),1", "--y", "interior:1,1/sin(theta)"),
        ("pair", sphere, "--x", "lie:1/(2+sin(theta)),phi", "--y", "lie:sin(theta),1"),
        ("pair", sphere, "--x", "lie:0,1/sin(theta)", "--y", "deRham"),
        ("check", sphere, "--suite", "cartan", "--fields", "1"),
        ("check", sphere, "--suite", "proposition", "--fields", "1"),
    ]
    # A dense 4-D metric, 3I + v v^T, every entry nonzero, and a two-form
    # with a polynomial entry.
    dense4 = "specs/dense4.json"
    cmds += [
        ("christoffel", dense4),
        ("sasaki", dense4),
        ("acs", dense4),
        ("check", dense4, "--suite", "cartan", "--fields", "1"),
        ("check", dense4, "--suite", "proposition", "--fields", "1"),
    ]
    return cmds


@functools.lru_cache(maxsize=None)
def run_report(argv):
    """(exit code, stdout) of one command run from the repo root, so that
    paths echoed in reports do not depend on where it lives."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def run_digest(argv):
    code, out = run_report(tuple(argv))
    return code, hashlib.sha256(out.encode()).hexdigest()


GOLDEN = {
    'christoffel specs/euclidean2.json': (0, '775353caf1d78adbbf2ad0826aacbb7c39abb5a34e494515bccc5fd0376771a8'),
    'sasaki specs/euclidean2.json': (0, '88732765fb53e53074223b924ed3239925df00528048038b98e4f8727cc8dfab'),
    'classical-sasaki specs/euclidean2.json': (0, '753d202770646ee6a2b8f61ca458a3ee2b1949d6adbebf745383eb7d5c6337ea'),
    'acs specs/euclidean2.json': (0, '78c256e2fb7771dcefbbd4675f30fa68e467185902ee860c4af5ec54e98dab96'),
    'pair specs/euclidean2.json --x deRham --y deRham': (0, 'b4493a37396fc99f993690337cece61694b171d31300adbc7f54d892bcbd9b3c'),
    'check specs/euclidean2.json --suite cartan --fields 1': (0, 'b59af70ff78c10b22e1593a0c7a9c9f246177942cd7f7859e4037b3b9cbabd09'),
    'check specs/euclidean2.json --suite proposition --fields 1': (0, 'd330370c73066a4c3cd9f40902cc4e559a8a88cc38f1cca0fb45c8a58ec7aab0'),
    'christoffel specs/euclidean4.json': (0, '44e489e5af5e3dd3c588f0ccfcda0ecdd8ce18f848b8aec2b838fed95824a28f'),
    'sasaki specs/euclidean4.json': (0, '6282b15fbe80ccd363e124ad29864d2c47ed04c7a8ebffb379907417ab2ab3af'),
    'classical-sasaki specs/euclidean4.json': (0, '222e528455ed8207dbb16362986dc46ee3f69030793d2d305d66ceaa2df5fff8'),
    'acs specs/euclidean4.json': (0, 'f140065b558ed67cd409830812b1d6398d057a3f91b454cca570f5df8b8fc6c0'),
    'pair specs/euclidean4.json --x deRham --y deRham': (0, '39adbafa004d1f9a5332babb01db3a94e6921b79f6dfec2bf581402987710207'),
    'check specs/euclidean4.json --suite cartan --fields 1': (0, '498bc746bfc2e1236c4755705203c030bf3e4ecef75f5ff8020712b9308e2fb9'),
    'check specs/euclidean4.json --suite proposition --fields 1': (0, '0d89b8bbce308fb8b157ca479913d789924017395752cad1c52886c8fdbe9a88'),
    'christoffel specs/euclidean6.json': (0, '7a388f5971572ac69cdd6622236a75e4c6400ab82018f0bd1603ecb73339deda'),
    'sasaki specs/euclidean6.json': (0, '319c1fcf04187cb4e7c405d0328260c7197756be730c1650767b1a76ee09de65'),
    'classical-sasaki specs/euclidean6.json': (0, 'c21bff6e4b8ced8bcdb1250721536412a8df4e7bdab472a53b7d12b960bcb089'),
    'acs specs/euclidean6.json': (0, '53be92eef252d536869cb64b3422746a7fb1b975d179e9048b09d94d9d4aba38'),
    'pair specs/euclidean6.json --x deRham --y deRham': (0, '436b3c49565c0a8e84ecee4ee699e26e0617c2428f7cc05b905b22353137eecd'),
    'check specs/euclidean6.json --suite cartan --fields 1': (0, 'f6ae65b6c6f8afd8d81ede774e47e8fe306658ede48229f24aea02b93544f00e'),
    'check specs/euclidean6.json --suite proposition --fields 1': (0, 'efd1038ed0c7ca29f8f10028e1563a1f762dc25a734d856fd6929df6b6fb67bf'),
    'christoffel specs/misner.json': (0, '3863177985340b25db9e008cc8d07175ae6837ff6be4eea4da63f6cd3a92b60e'),
    'sasaki specs/misner.json': (0, '19b08b1456e7af878c132cba0aed4b6602ae25f3b00056d29248c5fe92575eff'),
    'classical-sasaki specs/misner.json': (0, 'd2b09a61e9d94febc057a4a37a14fb047119c9b334c9ee110c9818a17848b7fe'),
    'acs specs/misner.json': (0, '261eabe06617a66fc9e29cd2ad619649df60b2994e196678b5ac69453da80140'),
    'pair specs/misner.json --x deRham --y deRham': (0, '6e27148eea93caf933d643928107c9e2d532d4e9ae46b6cdc2fba8209cf20e16'),
    'check specs/misner.json --suite cartan --fields 1': (0, '79f266de3cac1fe3115721ee7cf5909ae19a57e66262fe609b01f55f903e296a'),
    'check specs/misner.json --suite proposition --fields 1': (0, '7d62f2ec074dcd63b6915a42e9bd2c3c2b3ef59a82365c3a6fe825db6b46ebb4'),
    'christoffel specs/polar.json': (0, '2fdc4c6ed757cf8987397f9b220952ce6f2f0e14424018f9bd1b6a014abac025'),
    'sasaki specs/polar.json': (0, 'c7e2bb1b632c9fb5ce0558d912e325b94db9e7bb3c723f158966ba1166177c0d'),
    'classical-sasaki specs/polar.json': (0, 'a3f8ec62f0b5e7826d924fcd2f78ea4cae6f39c47dec25549ad08862f5b50d17'),
    'acs specs/polar.json': (0, '30ae2cbb7f0c8e852d1770528d7ac884084ccfec9bc9eac5c23d20f129e97a9f'),
    'pair specs/polar.json --x deRham --y deRham': (0, '237f4d0a0e624abc196f8e26310f96618f5aceef932bf811436ef604972f1405'),
    'check specs/polar.json --suite cartan --fields 1': (0, '2f76b3d2d25e398d0ae2b2ba723b7a4a70f17a1c59c7cc31659795ef4a8f5a1c'),
    'check specs/polar.json --suite proposition --fields 1': (0, 'efc3e121824f49af4e1a923327e0030c13f60e8a0b5bffaebbdade320a2c0900'),
    'christoffel specs/varcoef.json': (0, '65d62f0ca3000e54b4f49d006cfe9b5a62f447fcd9a0415413e644673e3e2abc'),
    'sasaki specs/varcoef.json': (0, 'c40a065f6f90ff296c3353b04b660a74cf5a6b5a8e53445133954a3bad901f92'),
    'classical-sasaki specs/varcoef.json': (0, 'a946a58f8012b254d6d24241d4e9da6c599d615ee8a545dc9ac77fd3a9a3e534'),
    'acs specs/varcoef.json': (0, 'cce89d9369daeefdf32fdc370ffc332662c465577f9f4ebd8431fb8f06ad68f2'),
    'pair specs/varcoef.json --x deRham --y deRham': (0, '8e434e1440cc7cba043bb02b20cebb96e70bc0c9c4a964ede3061437e56c9b9f'),
    'check specs/varcoef.json --suite cartan --fields 1': (0, 'c60a790299fc1ade95cc47c911a751ecba2f7e7762e29ed2430a63897abc784d'),
    'check specs/varcoef.json --suite proposition --fields 1': (0, 'f6cdd14ffabd563f6de432a3093b7e8bf6affac7201891de256da857fd8e5c47'),
    'check specs/euclidean2.json --suite naturality --map specs/maps/rotation.json': (0, 'd6c804811754654328531135bbc76693bb26536d8d6b208baa0c7a084dd2768a'),
    'check specs/euclidean2.json --suite naturality --map specs/maps/scaling.json': (1, '649487f07b617285aa89fea0b9b21402595aee4317abc564f8317c04eed1961b'),
    'check specs/misner.json --suite naturality --map specs/maps/phi_translation.json': (0, 'bdd5e8777b5384861b2a38c0c947a7cc30cc067de844245a71ebd16ada5b8950'),
    'check specs/polar.json --suite naturality --map specs/maps/polar_to_cartesian.json --target specs/euclidean2.json': (0, '4d80ea9d641a0118aa6d98b7057a00e22a07acf7dc3e6cfafdd968072d84b6dd'),
    'check specs/euclidean2.json --suite invariance --map specs/maps/rotation.json': (0, '4296a1a21d0af68860cc565b4131c712039b01c48c8a7aad438ab78b344be64a'),
    'check specs/misner.json --suite invariance --map specs/maps/phi_translation.json': (0, 'bc12ceeb529dbc6178e738a33a0c6e248e5a3d9340515d985c8f5d7ea12489d2'),
    'check specs/polar.json --suite invariance --map specs/maps/polar_to_cartesian.json --target specs/euclidean2.json': (0, '5f2817cb88645a2c64a865945f18679e6f08826100aa197f9dc5a123848c5bc8'),
    'pair specs/euclidean2.json --x raw:specs/fields/odd_mixed.json --y lie:specs/fields/shear.json': (0, 'a35c51a0e4aa88cd6b7e9a04e49725929c5414f4667e7103d60e5f6d7fb2e4a4'),
    'pair specs/varcoef.json --x lie:u*v+1,v-2 --y interior:u+1,2*u*v': (0, '5a13d8c8b44a486f49492cc8181ae485e203bc26fbcc07b355a38ea66cf62bf3'),
    'christoffel specs/curved4.json': (0, '5b616d1732d76038b9861cb9caf0d88f42adaa6c43a500852f719543b67ea925'),
    'sasaki specs/curved4.json': (0, '78eb4c7d2ea31be746aaa84d007e660849bf2240741efe630a154801afaa9641'),
    'classical-sasaki specs/curved4.json': (0, 'ceadc1ae797c4bc4d4ca6541d8808c0cbe791949ee615a37dc86a2874e043a29'),
    'acs specs/curved4.json': (0, 'b09dc45db98473b1697ef7b0b74ed568c158015047a016021fd2abcfe4f532cf'),
    'check specs/curved4.json --suite cartan --fields 1': (0, '19e8f33f8469b4665c08c9bb603012e16fbf2966a01e2b75dd85fa92dcdacbf4'),
    'check specs/curved4.json --suite proposition --fields 1': (0, '79b914b7f30c3d9933a0438f5a8758ac846bde6c36f284cea59ab8d5ef105e79'),
    'pair specs/curved4.json --x lie:y,0,1,x --y interior:1,z,0,0': (0, '69a47c3dd80823e65c54758c16d131bb42d58ececa6f13488c0aca27a8e13699'),
    'pair specs/curved4.json --x interior:w,1,0,0 --y deRham': (0, '3de1bd5673441e8bde48620d4176b64b06f62844d70c29299bee0eff22d3a48d'),
    'christoffel specs/transcendental.json': (0, '9cfde95dbe328d330ea0c365002f0aca1fbbc3dae9a2ad8dab53c1d25a7bfab1'),
    'sasaki specs/transcendental.json': (0, 'cc49b01320cd3dbbb31cd54e54bf310456374341047f76bde5c5ac88d9463afa'),
    'classical-sasaki specs/transcendental.json': (0, '515ca3ed381e88b40bb14d86d2fb538212ca5650e382d6b481011f3b0b4ea0ae'),
    'acs specs/transcendental.json': (0, '88f96c3cc11c33fee6fc360a43fcf089fdff25c04120cd78a99c69ce137d64d9'),
    'pair specs/transcendental.json --x lie:y,x --y interior:1,x': (0, '92ee76ed40ca0fd15b125862f9e295aaf7b2fc1dc738712d8fe53631a979679f'),
    'pair specs/transcendental.json --x lie:x*y,1 --y lie:1,x^2': (0, '423b4bc81e7028f8e9900be30f10c2622f6a254b73f6f77224de865bb8c8a42c'),
    'check specs/transcendental.json --suite cartan --fields 1': (0, 'f2d113124a0b46b67f6eaab0ce4f8120da6a12c87fe7454a176d58c2731984b6'),
    'check specs/transcendental.json --suite proposition --fields 2': (0, '2e5558f8ca37555c27029643243ca19ea19910428174f62bc1e972309c2b1080'),
    'christoffel specs/rational.json': (0, 'fd5e691caf2a42c2d7d154b024e888c3f79069744f7fb754e763e09b75cc7158'),
    'sasaki specs/rational.json': (0, '94c8f3b87d47995df2b3c4265577733f8cb49a0109e7895ac01b9d00ca75ee31'),
    'classical-sasaki specs/rational.json': (0, '4472d76df015d36540b01ea00d66c717eaa9066a9d44e4c3e39ec3100a0beec4'),
    'acs specs/rational.json': (0, 'd04f2d223365de118e186cfb8fecab1365d1d910c76862fd985a8102d921d706'),
    'pair specs/rational.json --x lie:1+v,u --y interior:u,1': (0, '0b320477faa30c59f0b4ced7f31632139c6e9e6a9644b149348507a4579591bf'),
    'check specs/rational.json --suite cartan --fields 1': (0, 'ac7499dc30de970ef3822f9f17f3ab8405ce29f3634af96dc17387c112ceeb7b'),
    'check specs/rational.json --suite proposition --fields 2': (0, 'a291f40bc69ad7d8cd8642a9ed5a6164c4969f5ec855c4f1933f37b9beb3b40b'),
    'christoffel specs/sphere.json': (0, '2aee5dc6e2e9316a9aa57dfdda574152fc962b27f32b7a9708a756328bd85e33'),
    'sasaki specs/sphere.json': (0, '31dac2a8a035bfa649040e18cefcb655f407cbbafb459caddba0c8e1b4e9ff53'),
    'classical-sasaki specs/sphere.json': (0, '897eb4738b5a13b6b39e7cee0a0b457bce17a042a5080b29d401339e10f51795'),
    'acs specs/sphere.json': (0, '0e63dc58c010a44b3298ef19280dc76d14650d81c7e9d490922d2fd36df161ab'),
    'pair specs/sphere.json --x lie:cos(theta)/sin(theta),1 --y interior:1,1/sin(theta)': (0, 'd9e4ce622679a54f8c15b3993d4d70923ab584e36ee9243856a673cc0f5b22de'),
    'pair specs/sphere.json --x lie:1/(2+sin(theta)),phi --y lie:sin(theta),1': (0, '32ccb5882121e979acb2b1ec11c07cbc94a04fa6f46dbd5ae508703d0b585522'),
    'pair specs/sphere.json --x lie:0,1/sin(theta) --y deRham': (0, 'b5f5f270e3c42702e810101055f4075b06031a22231d49185d640d30536eaf02'),
    'check specs/sphere.json --suite cartan --fields 1': (0, '0216c3095e25fc5837771268082f4d6936c654a9a20dd8ff04874687580b0f5d'),
    'check specs/sphere.json --suite proposition --fields 1': (0, '1e6e2285fee2955bf1b3b64282ee89f787ae28e083a6ed5ce7ac8c7f3e332ec2'),
    'christoffel specs/dense4.json': (0, '8bf4b00b49d5665123c5b9cd4305b815653de2429899c63c340f67784cc7b038'),
    'sasaki specs/dense4.json': (0, '9445a63807e37108130bbac4f227f10e36885695d39fc3573671980574b084f7'),
    'acs specs/dense4.json': (0, 'e8e6aa9d418c7a38884c550b1ccf213332545fc7ab4dc5a1176b5c28485469ee'),
    'check specs/dense4.json --suite cartan --fields 1': (0, '84f9fb6c9a07c9f0e0f073852a3b0d90f95331dc57806de9a8861e69ca700b72'),
    'check specs/dense4.json --suite proposition --fields 1': (0, '30ff08580867534dfcad063d2112b2b980c54925b56e24e810a71d66d420077d'),
}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_report_is_byte_identical(argv):
    assert run_digest(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", [a for a in _commands() if a[0] == "pair"], ids=" ".join)
def test_pair_prints_one_text_for_both_pairings(argv):
    # equal pairings have one canonical pair, so one printed text
    out = run_report(argv)[1]
    lines = dict(line.split(": ", 1) for line in out.splitlines() if line.startswith("pairing ("))
    assert lines["pairing (vertical lift)"] == lines["pairing (closed form)"]


def test_table_covers_every_command():
    assert sorted(GOLDEN) == sorted(" ".join(a) for a in _commands())


if __name__ == "__main__":
    for argv in _commands():
        print(f"    {' '.join(argv)!r}: {run_digest(argv)!r},")
