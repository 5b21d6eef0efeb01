"""Canonical rational form for scalar expressions.

Every expression is rewritten as num/den where num, den are multivariate
polynomials over "atoms" (variables and function applications with already
canonical arguments), with:

  * monomial rewrites applied to a fixed point:
      sin(u)^(2k+r) -> (1 - cos(u)^2)^k * sin(u)^r
      sqrt(u)^(2k+r) -> u^k * sqrt(u)^r
  * each sin or sqrt atom s cleared from a denominator d0 + d1*s,
    outermost first, by multiplying num and den by d0 - d1*s; an atom whose
    norm d0^2 - d1^2*s^2 rewrites to zero, as for sqrt(x^2) - x, stays,
  * the gcd of num and den cancelled by poly_gcd, which takes out their
    shared monomial, then each content in the main atom, and runs the
    primitive PRS over the integers on the rest unless images modulo a
    prime prove the pair coprime,
  * the pair primitive: integer coefficients with joint content 1, and the
    denominator's leading coefficient (under graded lex) positive.

A pair is zero exactly when its expression is, and equal values have
identical pairs except for dependent sqrt arguments (sqrt(2)*sqrt(3) and
sqrt(6)) and the sqrt of a square, left to the oracle's sampling tier.
Coefficients are Python ints throughout; a rational constant p/q enters as
the pair (p, q), and the denominator is made monic only when printed.
An atom is an expression node: a variable's Var, or a function application's
Call on its canonical argument tree. Nodes are tagged tuples, so atoms
compare, hash and sort as plain tuples: applications before variables,
each by name, and applications of one function by their argument trees.

to_canonical(e) folds these pair operations over e's children, and
simplify() prints the pair as a tree, a fixed point: simplify(s) == s, and
s == ZERO exactly when e is zero, for s = simplify(e). GradedExpr keeps its
coefficients as pairs; a pair is zero when its numerator is, and
pair_to_expr prints one for tree consumers. Pairs combine without the gcd
of the full product, since both operands are already reduced: add_pairs
sums by Henrici's method (only gcd(d1, d2) can cancel), mul_pairs cancels
gcd(n1, d2) and gcd(n2, d1), so a constant factor changes only the integer
content, sum_of_products sums signed products so formed, and diff_pair
applies the quotient rule with the chain rule for function atoms (only
gcd(d, d') and the atom derivatives' denominators can cancel). Each gives
the pair canonicalize gives for the unreduced result; a result that holds
a sin^2 or sqrt^2 power, such as the product of two numerators with the
same sqrt atom, is passed through canonicalize. Inverting a pair is the
one step that can put a sin or sqrt atom into a denominator, and the one
that refuses a zero denominator, except for a product of denominators that
rewrites to zero, such as (sqrt(x^2) - x)(sqrt(x^2) + x).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from typing import Iterable

from .expr import (
    Add,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Pow,
    Var,
    ZERO,
    free_vars,
    to_text,
)

# Monomial: tuple of (atom, exponent>=1) pairs, atoms strictly increasing.
# An atom is a Var node or a Call node over its canonical argument tree.
Monomial = tuple[tuple[Expr, int], ...]

_UNIT: Monomial = ()


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[Expr, int]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] == b[j][0]:
            out.append((a[i][0], a[i][1] + b[j][1]))
            i += 1
            j += 1
        elif a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None when b does not divide a."""
    result: list[tuple[Expr, int]] = []
    i = 0
    for atom, e in b:
        while i < len(a) and a[i][0] < atom:
            result.append(a[i])
            i += 1
        if i >= len(a) or a[i][0] != atom or a[i][1] < e:
            return None
        if a[i][1] > e:
            result.append((atom, a[i][1] - e))
        i += 1
    result.extend(a[i:])
    return tuple(result)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


# Printed in every report so outputs are self-describing.
MONOMIAL_ORDER_NOTE = (
    "canonical form orders monomials by total degree, then lexicographically "
    "by atom name with higher powers first"
)


def term_sort_key(m: Monomial):
    """Graded lex key; min() under this key is the leading monomial."""
    return (-_mono_degree(m), tuple((a, -e) for a, e in m))


class Poly:
    """Multivariate polynomial with int coefficients, sparse dict."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int]):
        self.terms = terms

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({} if c == 0 else {_UNIT: c})

    @staticmethod
    def from_atom(atom: Expr, exp: int = 1) -> "Poly":
        return Poly({((atom, exp),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _UNIT in self.terms)

    def const_value(self) -> int:
        return self.terms.get(_UNIT, 0)

    def atoms(self) -> set[Expr]:
        out: set[Expr] = set()
        for m in self.terms:
            for a, _ in m:
                out.add(a)
        return out

    def lead(self) -> Monomial:
        return min(self.terms, key=term_sort_key)

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly({})
        if c == 1:
            return self
        return Poly({m: k * c for m, k in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({})
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("Poly power must be nonnegative")
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({to_text(_poly_to_expr(self))})"


_POLY_ONE = Poly.const(1)


# ---------------------------------------------------------------------------
# integer gcd machinery (primitive PRS)

def _int_content(p: Poly) -> int:
    g = 0
    for c in p.terms.values():
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _positive_lead(p: Poly) -> Poly:
    if p.is_zero():
        return p
    if p.terms[p.lead()] < 0:
        return p.scale(-1)
    return p


def _div_exact(p: Poly, g: Poly) -> Poly:
    """Exact division over the integers; raises if g does not divide p. A
    one-term g divides term by term."""
    out: dict[Monomial, int] = {}
    if len(g.terms) == 1:
        ((gm, k),) = g.terms.items()
        if g == _POLY_ONE:
            return p
        for m, c in p.terms.items():
            t, (q, rem) = (_mono_div(m, gm) if gm else m), divmod(c, k)
            if t is None or rem:
                raise ArithmeticError("inexact polynomial division")
            out[t] = q
        return Poly(out)
    r = p
    glead = g.lead()
    gcoeff = g.terms[glead]
    while not r.is_zero():
        rlead = r.lead()
        t = _mono_div(rlead, glead)
        c, rem = divmod(r.terms[rlead], gcoeff)
        if t is None or rem:
            raise ArithmeticError("inexact polynomial division")
        out[t] = c
        r = r - g * Poly({t: c})
    return Poly(out)


def _coeffs_in(p: Poly, v: Expr) -> dict[int, Poly]:
    """View p as a polynomial in v with coefficients free of v."""
    out: dict[int, dict[Monomial, int]] = {}
    for m, c in p.terms.items():
        deg = 0
        rest: list[tuple[Expr, int]] = []
        for atom, e in m:
            if atom == v:
                deg = e
            else:
                rest.append((atom, e))
        out.setdefault(deg, {})[tuple(rest)] = c
    return {d: Poly(terms) for d, terms in out.items()}


def _recompose(coeffs: dict[int, Poly], v: Expr) -> Poly:
    total = Poly.zero()
    for d, p in coeffs.items():
        vp = _POLY_ONE if d == 0 else Poly.from_atom(v, d)
        total = total + p * vp
    return total


def _fold_gcd(polys: Iterable[Poly]) -> Poly:
    g = Poly.zero()
    for p in polys:
        g = poly_gcd(g, p)
        if g.is_const() and g.const_value() == 1:
            break
    return g


def _prem(A: dict[int, Poly], B: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder of A by B, both univariate views in the same atom."""
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and max(R) >= db:
        dr = max(R)
        lr = R[dr]
        newR: dict[int, Poly] = {d: p * lb for d, p in R.items()}
        for d, p in B.items():
            shift = d + dr - db
            q = newR.get(shift, Poly.zero()) - lr * p
            newR[shift] = q
        R = {d: p for d, p in newR.items() if not p.is_zero()}
    return R


def _content_split(R: dict[int, Poly]) -> tuple[Poly, dict[int, Poly]]:
    """The content of a univariate view, the gcd of its coefficients, and
    its primitive part."""
    c = _fold_gcd(R.values())
    return c, {d: _div_exact(p, c) for d, p in R.items()}


_PRIME = (1 << 61) - 1


def _image(p: Poly, v: Expr, point: dict[Expr, int]) -> list[int]:
    """p mod _PRIME as a polynomial in v, lowest degree first, with every
    other atom set to its value in point; its length is deg_v(p) + 1."""
    out: dict[int, int] = {}
    for m, c in p.terms.items():
        deg = 0
        for atom, e in m:
            if atom == v:
                deg = e
            else:
                c = c * pow(point[atom], e, _PRIME) % _PRIME
        out[deg] = (out.get(deg, 0) + c) % _PRIME
    return [out.get(d, 0) for d in range(max(out) + 1)]


def _gcd_degree_mod(a: list[int], b: list[int]) -> int:
    """Degree of the gcd of two images over GF(_PRIME), a's top nonzero."""
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            f, shift = a[-1] * inv % _PRIME, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _PRIME
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _coprime(a: Poly, b: Poly) -> bool:
    """True when images modulo a prime prove gcd(a, b) constant: for each
    atom v of both, a's leading coefficient in v survives the substitution
    of fixed values for the other atoms and the images are coprime, so the
    gcd, whose image divides both, has degree 0 in v. False only means
    that the test did not decide (Brown's modular gcd, its first step)."""
    atoms = sorted(a.atoms() | b.atoms())
    point = {x: pow(3, 64 + k, _PRIME) for k, x in enumerate(atoms)}
    for v in sorted(a.atoms() & b.atoms()):
        image = _image(a, v, point)
        if image[-1] == 0 or _gcd_degree_mod(image, _image(b, v, point)) > 0:
            return False
    return True


def _common_mono(monos: Iterable[Monomial]) -> Monomial:
    """The monomial that divides every one of monos, a nonempty iterable."""
    it = iter(monos)
    common = next(it)
    for m in it:
        if not common:
            break
        d = dict(m)
        common = tuple((atom, min(e, d[atom])) for atom, e in common if atom in d)
    return common


def _shared_monomial(a: Poly, b: Poly) -> Monomial:
    """The monomial that divides every term of a and of b."""
    return _common_mono(chain(a.terms, b.terms))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over the integers with positive lead, the one place a common
    factor is split into its parts: the monomial shared by every term of a
    and b (a monomial order keeps the lead positive), then the gcd of the
    contents in the least atom v times the primitive PRS in v, unless
    images modulo a prime prove the gcd constant."""
    if a.is_zero():
        return _positive_lead(b)
    if b.is_zero():
        return _positive_lead(a)
    m = _shared_monomial(a, b)
    if m:
        x = Poly({m: 1})
        return poly_gcd(_div_exact(a, x), _div_exact(b, x)) * x
    if a.is_const() or b.is_const() or _coprime(a, b):
        return Poly.const(math.gcd(_int_content(a), _int_content(b)))
    v = min(a.atoms() | b.atoms())
    ca, PA = _content_split(_coeffs_in(a, v))
    cb, PB = _content_split(_coeffs_in(b, v))
    c = poly_gcd(ca, cb)
    if max(PA) < max(PB):
        PA, PB = PB, PA
    while PB:
        PA, (_, PB) = PB, _content_split(_prem(PA, PB))
    if max(PA) == 0:
        return _positive_lead(c)
    return _positive_lead(c * _recompose(PA, v))


# ---------------------------------------------------------------------------
# monomial rewrites (fixed point)

def _is_reducible(atom: Expr, exp: int) -> bool:
    return exp >= 2 and atom[0] == "f" and atom[1] in ("sin", "sqrt")


def rat_add(a: tuple[Poly, Poly], b: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """Sum of two num/den pairs, not reduced."""
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return n1 + n2, d1
    return n1 * d2 + n2 * d1, d1 * d2


def _reduce_pass(p: Poly) -> tuple[Poly, Poly, bool]:
    """One sweep of the sin^2/sqrt^2 monomial rewrites over p; returns a
    rational pair because sqrt arguments may carry denominators. Monomials
    with no reducible power are kept as they are, and a p with none comes
    back unchanged over 1."""
    plain: dict[Monomial, int] = {}
    rewritten: list[tuple[Poly, Poly]] = []
    for mono, coeff in p.terms.items():
        if not any(_is_reducible(atom, e) for atom, e in mono):
            plain[mono] = coeff
            continue
        kept: list[tuple[Expr, int]] = []
        n_i, d_i = _POLY_ONE, _POLY_ONE
        for atom, e in mono:
            if not _is_reducible(atom, e):
                kept.append((atom, e))
                continue
            half, rem = divmod(e, 2)
            if atom[1] == "sin":
                cos_sq = Poly.from_atom(Call("cos", atom.arg), 2)
                n_i = n_i * (_POLY_ONE - cos_sq) ** half
            else:  # sqrt
                an, ad = to_canonical(atom.arg)
                n_i = n_i * an**half
                d_i = d_i * ad**half
            if rem:
                kept.append((atom, rem))
        rewritten.append((n_i * Poly({tuple(kept): coeff}), d_i))
    if not rewritten:
        return p, _POLY_ONE, False
    pair = Poly(plain), _POLY_ONE
    for piece in rewritten:
        pair = rat_add(pair, piece)
    return (*pair, True)


# ---------------------------------------------------------------------------
# canonical pair

def _rewrite(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num/den with the monomial rewrites applied to a fixed point."""
    while True:
        nn, nd, ch1 = _reduce_pass(num)
        dn, dd, ch2 = _reduce_pass(den)
        if not (ch1 or ch2):
            return num, den
        num, den = nn * dd, nd * dn


def canonicalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    num, den = _rewrite(num, den)
    tried: set[Expr] = set()
    while True:
        # sin and sqrt atoms, outermost first: a nested atom prints shorter
        left = [a for a in den.atoms() - tried if _is_reducible(a, 2)]
        if not left:
            break
        s = max(left, key=lambda a: (len(to_text(a)), a))
        tried.add(s)
        parts = _coeffs_in(den, s)
        conj = parts.get(0, Poly.zero()) - parts[1] * Poly.from_atom(s)
        cleared = _rewrite(num * conj, den * conj)
        if not cleared[1].is_zero():
            num, den = cleared
    if den.is_zero():
        # a product of denominators whose atoms' norms are zero, such as
        # (sqrt(x^2) - x)(sqrt(x^2) + x), rewrites to zero
        raise ZeroDivisionError("division by an expression that is identically zero")
    if num.is_zero():
        return _ZERO_PAIR
    return _primitive_pair(*_cancel(num, den))


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """p and q divided by their gcd, which poly_gcd splits into its shared
    monomial, contents and primitive part; a constant q is left to the
    integer content step of _primitive_pair."""
    if q.is_const():
        return p, q
    g = poly_gcd(p, q)
    if g.is_const():
        return p, q
    return _div_exact(p, g), _div_exact(q, g)


def _primitive_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Divide out the joint integer content and make lc(den) positive."""
    k = math.gcd(_int_content(num), _int_content(den))
    if den.terms[den.lead()] < 0:
        k = -k
    if k == 1:
        return num, den
    return _div_exact(num, Poly.const(k)), _div_exact(den, Poly.const(k))


# ---------------------------------------------------------------------------
# arithmetic on canonical pairs
#
# Both operands are reduced, so only known factors can cancel (Henrici's
# method; Knuth, TAOCP vol. 2, 4.5.1). Each result is coprime with a
# positive leading denominator coefficient, and _settled passes one that
# holds a sin^2 or sqrt^2 power through canonicalize.

_ZERO_PAIR, _ONE_PAIR = (Poly.zero(), _POLY_ONE), (_POLY_ONE, _POLY_ONE)


def _settled(pair: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    if any(_is_reducible(atom, e) for p in pair for m in p.terms for atom, e in m):
        return canonicalize(*pair)
    return pair


def _inverse(pair: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """The canonical pair of 1/pair: the one place a new denominator can
    hold a sin or sqrt atom to clear, and the one that refuses a zero
    pair."""
    num, den = pair
    if num.is_zero():
        raise ZeroDivisionError("division by an expression that is identically zero")
    if any(_is_reducible(atom, 2) for atom in num.atoms()):
        return canonicalize(den, num)
    return _primitive_pair(den, num)


def add_pairs(a: tuple[Poly, Poly], b: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """The canonical pair of a + b for canonical pairs a, b by Henrici's
    sum: with g = gcd(d1, d2) and e_i = d_i/g, a + b is
    (n1 e2 + n2 e1)/(e1 e2 g), and only a common factor of the new
    numerator with g can cancel."""
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        num, g, den = n1 + n2, d1, _POLY_ONE
    else:
        g = poly_gcd(d1, d2)
        e1, e2 = _div_exact(d1, g), _div_exact(d2, g)
        num, den = n1 * e2 + n2 * e1, e1 * e2
    if num.is_zero():
        return _ZERO_PAIR
    num, g = _cancel(num, g)
    return _settled(_primitive_pair(num, den * g))


def mul_pairs(a: tuple[Poly, Poly], b: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
    """The canonical pair of a * b for canonical pairs a, b, as
    sum_of_products gives it for the one product."""
    if a[0].is_zero() or b[0].is_zero():
        return _ZERO_PAIR
    return sum_of_products([(1, a, b)])


def sum_of_products(
    pieces: list[tuple[int, tuple[Poly, Poly], tuple[Poly, Poly]]],
) -> tuple[Poly, Poly]:
    """The canonical pair of the sum of sign * a * b over (sign, a, b), for
    a sign of +1 or -1 and nonzero canonical pairs a, b. Only gcd(n1, d2)
    and gcd(n2, d1) can cancel from a product, and the products are summed
    by Henrici's method."""
    total = None
    for sign, (n1, d1), (n2, d2) in pieces:
        n1, d2 = _cancel(n1, d2)
        n2, d1 = _cancel(n2, d1)
        piece = _settled(_primitive_pair((n1 * n2).scale(sign), d1 * d2))
        total = piece if total is None else add_pairs(total, piece)
    return total


def _poly_diff(p: Poly, v: Expr) -> Poly:
    """The formal partial dp/dv, every other atom held fixed."""
    out: dict[Monomial, int] = {}
    for mono, c in p.terms.items():
        for k, (atom, e) in enumerate(mono):
            if atom == v:
                lowered = ((atom, e - 1),) if e > 1 else ()
                out[mono[:k] + lowered + mono[k + 1 :]] = c * e
                break
    return Poly(out)


def _atom_diff(atom: Expr, name: str) -> tuple[Poly, Poly]:
    """The canonical pair of d(atom)/d(name), by the chain rule."""
    if atom[0] != "f":
        return _ONE_PAIR if atom.name == name else _ZERO_PAIR
    if name not in free_vars(atom.arg):
        return _ZERO_PAIR
    u = to_canonical(atom.arg)
    if atom.func == "sin":
        outer = Poly.from_atom(Call("cos", atom.arg)), _POLY_ONE
    elif atom.func == "cos":
        outer = Poly.from_atom(Call("sin", atom.arg)).scale(-1), _POLY_ONE
    elif atom.func == "exp":
        outer = Poly.from_atom(atom), _POLY_ONE
    elif atom.func == "ln":
        outer = _inverse(u)
    else:  # sqrt(u)' = u' sqrt(u)/(2u)
        outer = mul_pairs((Poly.from_atom(atom), Poly.const(2)), _inverse(u))
    return mul_pairs(outer, diff_pair(u, name))


def diff_pair(pair: tuple[Poly, Poly], name: str) -> tuple[Poly, Poly]:
    """The canonical pair of d(n/d)/d(name). With c the lcm of the atom
    derivatives' denominators, D = c d/d(name) maps polynomials to
    polynomials, and with g = gcd(d, Dd), e = d/g, f = Dd/g the derivative
    is (Dn e - n f)/(c g e^2): only a common factor of its numerator with
    c or g can cancel."""
    num, den = pair
    derivs = [(a, _atom_diff(a, name)) for a in sorted(num.atoms() | den.atoms())]
    derivs = [(a, da) for a, da in derivs if not da[0].is_zero()]
    if not derivs:
        return _ZERO_PAIR
    c = _POLY_ONE
    for _, (_, ca) in derivs:
        c = c * _div_exact(ca, poly_gcd(c, ca))
    D = [(a, pa * _div_exact(c, ca)) for a, (pa, ca) in derivs]
    dnum = sum((_poly_diff(num, a) * da for a, da in D), Poly.zero())
    dden = sum((_poly_diff(den, a) * da for a, da in D), Poly.zero())
    if dden.is_zero():
        # d is free of name, but gcd(Dn, d) may still cancel
        top, g, e = dnum, den, _POLY_ONE
    else:
        g = poly_gcd(den, dden)
        e = _div_exact(den, g)
        top = dnum * e - num * _div_exact(dden, g)
    if top.is_zero():
        return _ZERO_PAIR
    top, g = _cancel(top, g)
    top, c = _cancel(top, c)
    return _settled(_primitive_pair(top, c * g * e * e))


# ---------------------------------------------------------------------------
# expression tree <-> canonical pair

def _poly_to_expr(p: Poly, lc: int = 1) -> Expr:
    """p / lc as a tree, the one place a Fraction is made."""
    if p.is_zero():
        return ZERO
    terms: list[Expr] = []
    for mono in sorted(p.terms, key=term_sort_key):
        c = p.terms[mono]
        factors: list[Expr] = []
        for atom, e in mono:
            factors.append(atom if e == 1 else Pow(atom, e))
        if not factors:
            terms.append(Const(Fraction(c, lc)))
        elif c == lc:
            terms.append(factors[0] if len(factors) == 1 else Mul(tuple(factors)))
        else:
            terms.append(Mul(tuple([Const(Fraction(c, lc))] + factors)))
    return Add.of(*terms)


def pair_to_expr(pair: tuple[Poly, Poly]) -> Expr:
    """num/den printed with a monic denominator."""
    num, den = pair
    if den.is_const():
        return _poly_to_expr(num, den.const_value())
    lc = den.terms[den.lead()]
    return Div(_poly_to_expr(num, lc), _poly_to_expr(den, lc))


@lru_cache(maxsize=8192)
def to_canonical(e: Expr) -> tuple[Poly, Poly]:
    """The canonical pair of e, folded from its children's pairs by the
    pair operations."""
    if isinstance(e, Const):
        return Poly.const(e.value.numerator), Poly.const(e.value.denominator)
    if isinstance(e, Var):
        return Poly.from_atom(e), _POLY_ONE
    if isinstance(e, Add):
        return reduce(add_pairs, map(to_canonical, e.terms))
    if isinstance(e, Mul):
        return reduce(mul_pairs, map(to_canonical, e.factors))
    if isinstance(e, Div):
        return mul_pairs(to_canonical(e.num), _inverse(to_canonical(e.den)))
    if isinstance(e, Pow):
        base, k = to_canonical(e.base), e.exponent
        num, den = base if k >= 0 else _inverse(base)
        # a power of a coprime pair stays coprime
        return _settled((num ** abs(k), den ** abs(k)))
    if isinstance(e, Call):
        return Poly.from_atom(Call(e.func, simplify(e.arg))), _POLY_ONE
    raise TypeError(f"not an expression node: {e!r}")


def simplify(e: Expr) -> Expr:
    """Canonical representative of e as a rational expression."""
    return pair_to_expr(to_canonical(e))


def is_zero_expr(e: Expr) -> bool:
    """True iff e is identically zero as a rational expression (after the
    pinned rewrites); trig identities beyond those may still evaluate to
    zero everywhere without being detected here."""
    num, _ = to_canonical(e)
    return num.is_zero()


def canonical_text(e: Expr) -> str:
    return to_text(simplify(e))


def canonical_equal(a: Expr, b: Expr) -> bool:
    """Fast equality tier: identical canonical pairs."""
    na, da = to_canonical(a)
    nb, db = to_canonical(b)
    return na == nb and da == db


def differentiate(e: Expr, name: str) -> Expr:
    """Exact partial derivative, returned in canonical form."""
    return pair_to_expr(diff_pair(to_canonical(e), name))
