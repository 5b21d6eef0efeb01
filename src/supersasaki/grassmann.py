"""Functions on a coordinate superdomain: polynomial data in anticommuting
generators with rational-function coefficients.

A GeneratorTable fixes an ordered list of named generators, each even or
odd. A GradedExpr stores, per sorted tuple of odd generator indices, a
scalar coefficient depending only on the even generator names, kept as its
canonical (num, den) pair; graded arithmetic works on the pairs with the
pair operations of symexpr.canonical (add_pairs, mul_pairs,
sum_of_products, diff_pair), the ones to_canonical folds a tree with.
Products pick up the sign of the permutation that sorts the odd factors
(counted by merge inversions); odd squares vanish. Odd partial
derivatives act from the left: differentiating by the generator at
position p of a monomial costs the sign (-1)^p.

Substitution is an algebra morphism: even generators go to scalars (the
prolongation of a chart change sends every even generator to a function of
the base chart, never to an expression with a nilpotent part), odd
generators to odd expressions. parse_graded folds every subtree that names
no odd generator as one scalar and combines only odd generators, sums,
products and non-negative powers in the graded algebra, so a scalar
operation never meets a nilpotent argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .symexpr import (
    Add,
    Const,
    Div,
    Expr,
    Mul,
    ONE,
    OracleConfig,
    Pow,
    Var,
    ZERO,
    as_expr,
    free_vars,
    parse_expr,
    substitute,
    to_text,
)
from .symexpr.canonical import (
    _ONE_PAIR,
    _ZERO_PAIR,
    Poly,
    add_pairs,
    diff_pair,
    mul_pairs,
    pair_to_expr,
    sum_of_products,
    to_canonical,
)
from .symexpr.expr import FUNCTIONS, _negative_head

EVEN = 0
ODD = 1

# Printed in every report so outputs are self-describing.
ODD_DERIVATIVE_NOTE = (
    "odd derivatives act from the left: d/d(theta) applied to the "
    "generator at position p of a monomial costs (-1)^p"
)

Monomial = tuple[int, ...]
Pair = tuple[Poly, Poly]  # to_canonical output: int num, den; gcd 1, content 1, den lead > 0


class GradedError(ValueError):
    """Violation of parity or generator-table constraints."""


def _check_name(name: str) -> None:
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise GradedError(f"invalid generator name {name!r}")
    if not all(c.isalnum() or c == "_" for c in name):
        raise GradedError(f"invalid generator name {name!r}")
    if name in FUNCTIONS:
        raise GradedError(f"generator name {name!r} collides with a reserved function")


class GeneratorTable(tuple):
    """Ordered, parity-tagged generator names for one superdomain chart: the
    tuple of its (name, parity) pairs, so tables compare by value."""

    __slots__ = ()

    def __new__(cls, gens: tuple[tuple[str, int], ...]) -> "GeneratorTable":
        seen = set()
        for name, parity in gens:
            _check_name(name)
            if parity not in (EVEN, ODD):
                raise GradedError(f"parity of {name!r} must be 0 or 1, got {parity!r}")
            if name in seen:
                raise GradedError(f"duplicate generator name {name!r}")
            seen.add(name)
        return tuple.__new__(cls, gens)

    @staticmethod
    def of(*gens: tuple[str, int]) -> "GeneratorTable":
        return GeneratorTable(gens)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self)

    @property
    def even_names(self) -> tuple[str, ...]:
        return tuple(n for n, p in self if p == EVEN)

    @property
    def odd_names(self) -> tuple[str, ...]:
        return tuple(n for n, p in self if p == ODD)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self):
            if n == name:
                return i
        raise GradedError(f"no generator named {name!r}")

    def parity(self, name: str) -> int:
        return self[self.index(name)][1]

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self)


def _merge_with_sign(m1: Monomial, m2: Monomial) -> tuple[Monomial | None, int]:
    """Merge two ascending index tuples; None when they share an index.
    The sign counts how many transpositions sort the concatenation."""
    if not m1:
        return m2, 1
    if not m2:
        return m1, 1
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        a, b = m1[i], m2[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining elements of m1
            if (len(m1) - i) % 2:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def _pair_names(pair: Pair) -> frozenset[str]:
    """The names a coefficient depends on, read from the atoms of its pair."""
    num, den = pair
    return frozenset().union(*map(free_vars, num.atoms() | den.atoms()))


def _drop_zeros(entries: Iterable[tuple[Monomial, Pair]]) -> dict[Monomial, Pair]:
    return {mono: pair for mono, pair in entries if not pair[0].is_zero()}


class GradedExpr:
    """Element of the function algebra over a GeneratorTable. Immutable by
    convention.

    Canonical by construction: every stored coefficient is a `to_canonical`
    pair with a nonzero numerator (a vanishing monomial is absent). `+` and
    `make` sum pairs with `add_pairs`; `gmul` hands the signed products
    that land on a monomial to `sum_of_products`, which cross-cancels and
    sums them by Henrici's method; `scale` uses `mul_pairs`, which for a
    constant changes only the integer content; the even `partial` uses
    `diff_pair`; the odd `partial` only moves pairs. `coefficient()` and
    `body()` print a pair as a tree.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: dict[Monomial, Pair]):
        # private: use make()/scalar()/generator() which normalize
        self.table = table
        self.terms = terms

    @staticmethod
    def make(
        table: GeneratorTable, entries: Iterable[tuple[Monomial, Expr]]
    ) -> "GradedExpr":
        """Sum of coefficient * monomial over the entries; repeated
        monomials add up."""
        acc: dict[Monomial, Pair] = {}
        for mono, coeff in entries:
            mono = tuple(mono)
            if any(mono[k] >= mono[k + 1] for k in range(len(mono) - 1)):
                raise GradedError(f"monomial indices must be strictly ascending: {mono}")
            for idx in mono:
                if idx < 0 or idx >= len(table) or table[idx][1] != ODD:
                    raise GradedError(f"monomial index {idx} is not an odd generator")
            pair = to_canonical(coeff)
            acc[mono] = add_pairs(acc[mono], pair) if mono in acc else pair
        out = GradedExpr(table, _drop_zeros(acc.items()))
        even = set(table.even_names)
        for pair in out.terms.values():
            stray = _pair_names(pair) - even
            if stray:
                raise GradedError(
                    f"coefficient {to_text(pair_to_expr(pair))} depends on "
                    f"non-even names {sorted(stray)}"
                )
        return out

    @staticmethod
    def linear(
        table: GeneratorTable, pairs: Iterable[tuple[str, Expr]]
    ) -> "GradedExpr":
        """Sum of coefficient * w over (odd generator name w, coefficient)
        pairs, such as the one-form sum_a c_a dx^a."""
        return GradedExpr.make(table, [((table.index(w),), c) for w, c in pairs])

    @staticmethod
    def zero(table: GeneratorTable) -> "GradedExpr":
        return GradedExpr(table, {})

    @staticmethod
    def scalar(table: GeneratorTable, coeff: Expr | int | Fraction) -> "GradedExpr":
        return GradedExpr.make(table, [((), as_expr(coeff))])

    @staticmethod
    def one(table: GeneratorTable) -> "GradedExpr":
        return GradedExpr(table, {(): _ONE_PAIR})

    @staticmethod
    def generator(table: GeneratorTable, name: str) -> "GradedExpr":
        idx = table.index(name)
        if table[idx][1] == ODD:
            return GradedExpr(table, {(idx,): _ONE_PAIR})
        return GradedExpr(table, {(): to_canonical(Var(name))})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Expr:
        return pair_to_expr(self.terms.get(tuple(mono), _ZERO_PAIR))

    def body(self) -> Expr:
        return self.coefficient(())

    def __add__(self, other: "GradedExpr") -> "GradedExpr":
        self._same_table(other)
        out = dict(self.terms)
        for mono, pair in other.terms.items():
            if mono in out:
                s = add_pairs(out[mono], pair)
                if s[0].is_zero():
                    del out[mono]
                else:
                    out[mono] = s
            else:
                out[mono] = pair
        return GradedExpr(self.table, out)

    def __sub__(self, other: "GradedExpr") -> "GradedExpr":
        return self + -other

    def __neg__(self) -> "GradedExpr":
        return GradedExpr(
            self.table, {m: (n.scale(-1), d) for m, (n, d) in self.terms.items()}
        )

    def scale(self, factor: Expr | int | Fraction) -> "GradedExpr":
        c = to_canonical(as_expr(factor))
        return GradedExpr(
            self.table, _drop_zeros((m, mul_pairs(pair, c)) for m, pair in self.terms.items())
        )

    def __mul__(self, other: "GradedExpr") -> "GradedExpr":
        return gmul(self, other)

    def _same_table(self, other: "GradedExpr") -> None:
        if self.table != other.table:
            raise GradedError("operands live over different generator tables")

    def __str__(self) -> str:
        return graded_to_text(self)

    def __repr__(self) -> str:
        return f"GradedExpr({graded_to_text(self)!r})"


def gmul(f: GradedExpr, g: GradedExpr) -> GradedExpr:
    """Product in the graded-commutative algebra (Koszul signs)."""
    f._same_table(g)
    pieces: dict[Monomial, list[tuple[int, Pair, Pair]]] = {}
    for m1, a in f.terms.items():
        for m2, b in g.terms.items():
            merged, sign = _merge_with_sign(m1, m2)
            if merged is not None:
                pieces.setdefault(merged, []).append((sign, a, b))
    return GradedExpr(f.table, _drop_zeros((m, sum_of_products(p)) for m, p in pieces.items()))


def contract(
    B: Sequence[Sequence[Expr]], U: Sequence[GradedExpr], V: Sequence[GradedExpr]
) -> GradedExpr:
    """sum_ab U^a V^b B[b][a], the "X^a Y^b g_ba" layout of the pairing
    identities and of a tensor's quadratic form; zero weights are skipped.

    A quadratic form (V is U, every U^a homogeneous) takes each unordered
    pair once: U^b U^a = s_ab U^a U^b with s_ab = (-1)^(|U^a||U^b|), so the
    a < b term weighs U^a U^b by B[b][a] + s_ab B[a][b]. That holds for any
    B, and it halves the graded products of a symmetric or antisymmetric
    one."""
    n = len(B)
    parities = [parity_of(u) for u in U] if V is U else None
    fold = parities is not None and None not in parities
    total = GradedExpr.zero(U[0].table)
    for a in range(n):
        for b in range(a if fold else 0, n):
            w = B[b][a]
            if fold and a != b and B[a][b] != ZERO:
                mirror = B[a][b]
                if parities[a] == parities[b] == ODD:
                    mirror = Mul.of(Const(Fraction(-1)), mirror)
                w = mirror if w == ZERO else Add.of(w, mirror)
                if to_canonical(w)[0].is_zero():
                    continue
            if w != ZERO:
                total = total + gmul(U[a], V[b]).scale(w)
    return total


def parity_of(f: GradedExpr) -> int | None:
    """0 for even, 1 for odd, None for inhomogeneous. Zero counts as even."""
    if not f.terms:
        return EVEN
    parities = {len(mono) % 2 for mono in f.terms}
    if len(parities) > 1:
        return None
    return parities.pop()


def partial(f: GradedExpr, name: str) -> GradedExpr:
    """Partial derivative by a generator. Odd generators differentiate from
    the left; even generators differentiate the coefficients."""
    idx = f.table.index(name)
    if f.table[idx][1] == EVEN:
        derivs = ((m, diff_pair(pair, name)) for m, pair in f.terms.items())
        return GradedExpr(f.table, _drop_zeros(derivs))
    out = {}
    for mono, (n, d) in f.terms.items():
        if idx not in mono:
            continue
        pos = mono.index(idx)
        rest = mono[:pos] + mono[pos + 1 :]
        out[rest] = (n, d) if pos % 2 == 0 else (n.scale(-1), d)
    return GradedExpr(f.table, out)


# ---------------------------------------------------------------------------
# substitution

def graded_eval_scalar(e: Expr, table: GeneratorTable) -> GradedExpr:
    """Evaluate a scalar tree whose variables name generators of the table,
    as an algebra morphism; the evaluator behind parse_graded. A subtree
    that names no odd generator is one scalar, folded by to_canonical; a
    divisor, the base of a negative power or a function argument that
    names one is refused."""
    odd = set(table.odd_names)
    if not free_vars(e) & odd:
        return GradedExpr.scalar(table, e)
    if isinstance(e, Var):
        return GradedExpr.generator(table, e.name)
    if isinstance(e, Add):
        return sum((graded_eval_scalar(t, table) for t in e.terms), GradedExpr.zero(table))
    if isinstance(e, Mul):
        factors = [graded_eval_scalar(f, table) for f in e.factors]
    elif isinstance(e, Pow) and e.exponent >= 0:
        factors = [graded_eval_scalar(e.base, table)] * e.exponent
    elif isinstance(e, Div) and not free_vars(e.den) & odd:
        return graded_eval_scalar(e.num, table).scale(Div(ONE, e.den))
    else:
        raise GradedError(
            f"odd generators inside a quotient, negative power or function: {to_text(e)}"
        )
    return reduce(gmul, factors, GradedExpr.one(table))


def gsubstitute(
    f: GradedExpr,
    images: Mapping[str, GradedExpr],
    target: GeneratorTable,
) -> GradedExpr:
    """Algebra morphism determined by generator images. Generators without
    an image must exist in the target with the same parity and map to
    themselves. Odd images must be odd (or zero); even images must be
    scalars, with no nilpotent part, so each coefficient is composed with
    the image bodies as a plain scalar."""
    source = f.table
    for name, parity in source:
        if name in images:
            img = images[name]
            if img.table != target:
                raise GradedError(f"image of {name!r} lives over the wrong table")
            img_parity = parity_of(img)
            if not img.is_zero() and img_parity != parity:
                raise GradedError(
                    f"image of {name!r} has parity {img_parity}, expected {parity}"
                )
            if parity == EVEN and any(img.terms):
                raise GradedError(
                    f"image of {name!r} has a nilpotent part; even images must be scalars"
                )
        elif name not in target or target.parity(name) != parity:
            raise GradedError(
                f"no image given for {name!r} and the target table has no "
                f"matching generator"
            )
    extra = set(images) - set(source.names)
    if extra:
        raise GradedError(f"images given for unknown generators {sorted(extra)}")
    bodies = {n: images[n].body() for n, p in source if p == EVEN and n in images}
    odd_images = {
        i: images[n] if n in images else GradedExpr.generator(target, n)
        for i, (n, p) in enumerate(source)
        if p == ODD
    }
    total = GradedExpr.zero(target)
    for mono in f.terms:
        piece = GradedExpr.scalar(target, substitute(f.coefficient(mono), bodies))
        for idx in mono:
            piece = gmul(piece, odd_images[idx])
        total = total + piece
    return total


def _check_prefix(short: GeneratorTable, long: GeneratorTable) -> None:
    if long[: len(short)] != short:
        raise GradedError("the smaller table is not a leading part of the larger one")


def extend_to(f: GradedExpr, super_table: GeneratorTable) -> GradedExpr:
    """Reinterpret f over a larger table that starts with f's table."""
    _check_prefix(f.table, super_table)
    return GradedExpr(super_table, f.terms)


def restrict_to(f: GradedExpr, sub_table: GeneratorTable) -> GradedExpr:
    """Reinterpret f over a leading part of its table; fails if f uses
    dropped names."""
    _check_prefix(sub_table, f.table)
    allowed = set(sub_table.names)
    for mono, pair in f.terms.items():
        used = {f.table[i][0] for i in mono} | _pair_names(pair)
        stray = used - allowed
        if stray:
            raise GradedError(f"expression uses generators {sorted(stray)} not in target")
    return GradedExpr(sub_table, f.terms)


def graded_equal(f: GradedExpr, g: GradedExpr, config: OracleConfig | None = None) -> bool:
    """Coefficient-wise equality: identical canonical pairs are equal, and
    only a coefficient whose pairs differ is printed for the scalar oracle."""
    f._same_table(g)
    config = config or OracleConfig()
    for mono in set(f.terms) | set(g.terms):
        a, b = f.terms.get(mono, _ZERO_PAIR), g.terms.get(mono, _ZERO_PAIR)
        if a != b and not config.equal(pair_to_expr(a), pair_to_expr(b)):
            return False
    return True


def parse_graded(text: str, table: GeneratorTable) -> GradedExpr:
    """Parse text whose identifiers are the table's generator names."""
    tree = parse_expr(text, table.names)
    return graded_eval_scalar(tree, table)


# ---------------------------------------------------------------------------
# rendering

def _coeff_piece(coeff: Expr, gens_text: str) -> str:
    if isinstance(coeff, Const) and coeff.value == 1:
        return gens_text
    if isinstance(coeff, Const) and coeff.value == -1:
        return "-" + gens_text
    flipped = _negative_head(coeff)
    if flipped is not None:
        return "-" + _coeff_piece(flipped, gens_text)
    if isinstance(coeff, Add):
        return f"({to_text(coeff)})*{gens_text}"
    return f"{to_text(coeff)}*{gens_text}"


def graded_to_text(f: GradedExpr) -> str:
    if not f.terms:
        return "0"
    names = f.table.names
    pieces: list[str] = []
    for mono in sorted(f.terms, key=lambda m: (len(m), m)):
        coeff = f.coefficient(mono)
        if not mono:
            pieces.append(to_text(coeff))
            continue
        gens_text = "*".join(names[i] for i in mono)
        pieces.append(_coeff_piece(coeff, gens_text))
    out = pieces[0]
    for p in pieces[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out
