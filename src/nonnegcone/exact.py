"""Exact membership oracles for the n = 1 and n = 2 cones, a membership
certificate for every order, and their constructive certificates.

For n = 1 the cone is exactly the polynomials nonnegative on [0, infinity).
That is decidable in integer arithmetic. The oracle takes float or rational
coefficients and scales them to Python ints by one positive factor (every
float is a dyadic rational, so nothing is rounded). On those ints it strips
the power of x and checks the boundary and leading signs. A stripped q of
degree 1 to 3 with q(0) > 0 is decided at once: it is a member when it has
no negative coefficient or discriminant <= 0 (a dip below 0 needs all its
roots real and distinct), and otherwise root isolation finds its point.
Other rows try a Bernstein subdivision certificate; what that leaves goes
to root isolation on the same Bernstein coefficients: Descartes' rule
separates the roots of the square-free part, and the sign of p at one
point between each two of them decides. The same module produces the two
kinds of certificate: a rational point with exactly negative value when
membership fails, and a sum-of-squares decomposition
p = f1^2 + f2^2 + x (g1^2 + g2^2) when it holds.

For n = 2, is_order2_member reduces membership, through the eigenvalues of
2 x 2 matrices, to the sign of p(0), three half-line questions and one
question on two variables, decided in integers by a tensor Bernstein
certificate and, where that leaves it open, a cylindrical decomposition
whose cells come from the same root isolation; every rejection comes with a
rational positive matrix whose image has a negative entry
(order2_counterexample). Volume estimates and the maxt and slice thresholds
use it; check still searches at n = 2 (see membership).

For n >= 3 no decision is known; loewy_certificate proves members from the
Loewy polynomial L_n = 1 + ... + x^(n-1) - 2 x^n + x^(n+1) + ... + x^(2n),
with a rational (j, a, lam) for which p - lam x^j L_n(a x) has no negative
coefficient. Its proofs rest on the paper's theorem that L_n is in the
order-n cone, which this package does not check for n >= 3.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .core import Polynomial


class NotNonnegative(ValueError):
    """Raised when a decomposition is requested for a non-member."""


class IllConditioned(RuntimeError):
    """Raised when root clustering pushes the residual past tolerance."""


# ---------------------------------------------------------------------------
# rational coefficient vectors, lowest degree first


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, coeffs[d] for x^d."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Sequence):
        cs = tuple(Fraction(c) for c in coeffs)
        if not cs:
            cs = (Fraction(0),)
        object.__setattr__(self, "coeffs", cs)

    def degree(self) -> int:
        for d in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[d] != 0:
                return d
        return -1

    def __call__(self, x: Fraction) -> Fraction:
        return _eval_frac(self.coeffs, x)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(_deriv(self.coeffs))

    @staticmethod
    def from_polynomial(p: Polynomial) -> "RationalPolynomial":
        """Exact lift: every binary float is a rational, no rounding occurs."""
        return RationalPolynomial([Fraction(c) for c in p.coeffs])


@dataclass(frozen=True)
class SosDecomposition:
    """p = f1^2 + f2^2 + x (g1^2 + g2^2) up to the stored residual."""

    f1: Polynomial
    f2: Polynomial
    g1: Polynomial
    g2: Polynomial
    residual: float

    def reconstruct(self) -> Polynomial:
        sq = self.f1 * self.f1 + self.f2 * self.f2
        xg = Polynomial([0.0, 1.0]) * (self.g1 * self.g1 + self.g2 * self.g2)
        return sq + xg


# ---------------------------------------------------------------------------
# polynomial arithmetic, lowest degree first: Fractions for RationalPolynomial,
# ints for the oracle


def _deriv(c: Sequence) -> tuple:
    return tuple(d * c[d] for d in range(1, len(c)))


def _eval_frac(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _scaled_value(c: Sequence[int], a: int, b: int) -> int:
    """b^d c(a / b), d = len(c) - 1, an int with the sign of c at a / b for
    b > 0: one Horner sum on ints."""
    acc, b_pow = 0, 1
    for v in reversed(c):
        acc = acc * a + v * b_pow
        b_pow *= b
    return acc


def _primitive(c: list[int]) -> list[int]:
    """c without its top zeros, divided by the gcd of its coefficients."""
    while c and c[-1] == 0:
        c = c[:-1]
    g = math.gcd(*c)
    return [v // g for v in c]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lead(b)^e a by b over Z, for some e >= 0."""
    while len(a) >= len(b):
        f, shift = a[-1], len(a) - len(b)
        a = [v * b[-1] for v in a[:-1]]
        for i, v in enumerate(b[:-1]):
            a[shift + i] -= f * v
        while a and a[-1] == 0:
            a.pop()
    return a


# the Mersenne prime modulo which _coprime_mod_p tests q and q'
_P = (1 << 61) - 1


def _coprime_mod_p(q: list[int]) -> bool:
    """True proves q square-free: q and q' are coprime modulo _P, and _P does
    not divide lc(q). False decides nothing.

    A nonconstant gcd g of q and q' over Q, taken primitive in Z[x], divides
    q, so lc(g) divides lc(q) and g keeps its degree modulo _P, where it
    divides q and q' (reduction commutes with the derivative): so their gcd
    modulo _P is nonconstant too. The gcd is Euclid's in the field Z / _P.
    """
    if q[-1] % _P == 0:
        return False
    a = [v % _P for v in q]
    b = [v % _P for v in _deriv(q)]
    while b and b[-1] == 0:
        b.pop()
    while b:
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):                      # a <- a mod b
            f, shift = a[-1] * inv % _P, len(a) - len(b)
            for i, v in enumerate(b):
                a[shift + i] = (a[shift + i] - f * v) % _P
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _squarefree(q: list[int]) -> list[int]:
    """q / gcd(q, q') up to sign, with the real roots of q, each simple.

    q itself when _coprime_mod_p proves it square-free. Otherwise the gcd is
    the last term of a primitive remainder sequence over Z; it is primitive,
    so (Gauss's lemma) q divides by it exactly in ints.
    """
    if _coprime_mod_p(q):
        return q
    g, r = _primitive(q), _primitive(list(_deriv(q)))
    while r:
        g, r = r, _primitive(_prem(g, r))
    quo, rest = [], list(q)
    while len(rest) >= len(g):
        f, shift = rest[-1] // g[-1], len(rest) - len(g)
        for i, v in enumerate(g):
            rest[shift + i] -= f * v
        rest.pop()
        quo.append(f)
    return quo[::-1]


# ---------------------------------------------------------------------------
# Bernstein coefficients: with x = y / (1 - y),
# (1 - y)^k q(y / (1 - y)) = sum_j q_j y^j (1 - y)^(k-j), whose Bernstein
# coefficients on [0, 1] are q_j / C(k, j). A de Casteljau subdivision of
# [0, 1] gives those of every leaf. When every leaf has nonnegative
# coefficients, that polynomial is nonnegative on [0, 1], hence q on
# [0, infinity). The sign changes of a leaf's coefficients bound the number
# of roots inside it, and equal it when they are 0 or 1 (Descartes' rule).

# subdivision depth of the certificate; deeper members go to the isolation
_CERT_DEPTH = 8


def _halves(b: list) -> tuple[list, list]:
    """Bernstein coefficients of both halves of a leaf, times 2^k. Level r
    of de Casteljau is built from neighbour sums, 2^r times the averages,
    so only its two end entries are shifted, by k - r, onto the scale 2^k.
    b is one leaf, a list of ints, or the leaves of many rows at once, a
    list of object-array columns of ints, which give columns back."""
    k = len(b) - 1
    left, right = [b[0] << k], [b[-1] << k]
    for shift in range(k - 1, -1, -1):
        b = list(map(add, b, b[1:]))
        left.append(b[0] << shift)
        right.append(b[-1] << shift)
    right.reverse()
    return left, right


@functools.lru_cache(maxsize=64)
def _binomial_factors(k: int) -> tuple[int, ...]:
    """lcm_j C(k, j) / C(k, j) for j = 0..k: multiplying q_j by these turns
    the Bernstein coefficients q_j / C(k, j) into ints."""
    binom = [math.comb(k, j) for j in range(k + 1)]
    lcm = math.lcm(*binom)
    return tuple(lcm // c for c in binom)


def _bernstein(q: Sequence) -> list:
    """The Bernstein coefficients of q on [0, 1], times one positive int: of
    one int row, or of many rows given as a list of object-array columns of
    ints, column by column."""
    return list(map(mul, q, _binomial_factors(len(q) - 1)))


def _bernstein_certifies(q: Sequence[int]) -> bool:
    """True proves q >= 0 on [0, infinity); False means only "not certified".

    q holds integer coefficients, lowest degree first. Every leaf with a
    negative Bernstein coefficient is halved, to depth _CERT_DEPTH. A
    negative end coefficient is a negative value of q, so a leaf that has
    one ends the search.
    """
    open_ = [(_bernstein(q), 0)]
    while open_:
        b, depth = open_.pop()
        if min(b) >= 0:
            continue
        if depth == _CERT_DEPTH or b[0] < 0 or b[-1] < 0:
            return False
        left, right = _halves(b)
        open_ += (right, depth + 1), (left, depth + 1)
    return True


def _sign_changes(b: Sequence[int]) -> int:
    signs = [v > 0 for v in b if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _critical_points(q: list[int]) -> list[tuple[int, int]]:
    """(a, b), b > 0, for the dyadic a / b of each root with positive real
    part that numpy finds for q' in floats: where q dips, proposed in
    floats for an exact sign test in integers. [] where numpy fails."""
    d = _deriv(q)[::-1]
    shift = max(v.bit_length() for v in d) - 1000    # fits a float
    f = [v / (1 << shift) for v in d] if shift > 0 else [float(v) for v in d]
    try:
        with np.errstate(all="ignore"):
            roots = np.roots(f).real
    except (np.linalg.LinAlgError, ValueError):
        return []
    return [float(x).as_integer_ratio() for x in roots if 0 < x < math.inf]


# the leaf depth past which a walk that only needs a negative point first
# tries the critical points of q: deeper leaves mean roots closer than
# 2^-_SETTLE_DEPTH to each other or to y = 0 or 1 (x near 0 or infinity).
# No walk of a sampled volume row went deeper than 11 (seed 1, n = 1 and 2,
# k = 2 to 8)
_SETTLE_DEPTH = 16


def _walk(q: list[int], settle: bool = False
          ) -> Iterator[tuple[int, int, int]]:
    """(a, b, cell): points x = a / b > 0 that are not roots of q, in
    increasing order, with at least one between each two consecutive
    positive roots of q, before the first and after the last; cell counts
    the distinct roots of q below x.

    q holds integer coefficients with q(0) != 0. The Bernstein coefficients
    of its square-free part are halved, left leaf first, until each leaf
    holds no root, or one root with nonzero end coefficients and touches
    neither y = 0 nor y = 1 (Collins-Akritas). The points are the left end
    of every leaf but the first (a root when its end coefficient is 0, and
    then skipped) and the midpoint of every root-free leaf.

    With settle, the first leaf deeper than _SETTLE_DEPTH that needs halving
    first yields the _critical_points of q, out of order and with cell -1,
    for a caller that only looks for a point where q < 0 (_isolate); such a
    walk never reaches that depth in sampled rows, while an extreme dyadic
    one would halve its leaf a thousand times.
    """
    todo = [(0, 0, _bernstein(_squarefree(q)))]
    cell = 0
    while todo:
        i, depth, b = todo.pop()      # the leaf [i, i + 1] / 2^depth
        m = 1 << depth
        roots = _sign_changes(b)
        if roots > 1 or roots == 1 and not (b[0] and b[-1] and 0 < i < m - 1):
            if settle and depth > _SETTLE_DEPTH:
                settle = False
                for a, d in _critical_points(q):
                    yield a, d, -1
            left, right = _halves(b)
            todo += [(2 * i + 1, depth + 1, right), (2 * i, depth + 1, left)]
            continue
        if i and b[0]:                 # y = a / d is x = a / (d - a)
            yield i, m - i, cell
        elif i:
            cell += 1
        if roots == 0:
            yield 2 * i + 1, 2 * m - 2 * i - 1, cell
        cell += roots


def _isolate(q: list[int], settle: bool = False) -> Optional[tuple[int, int]]:
    """(a, b) with b > 0 and q(a / b) < 0, or None when q >= 0 on [0, inf).

    q holds integer coefficients with q(0) != 0; q keeps one sign between
    two consecutive roots, so it is tested at the points of _walk, in
    increasing order, and the first negative one is returned. With settle
    a deep walk also tests the critical points of q (see _walk), so the
    point may not be the first.
    """
    for a, b, _ in _walk(q, settle):
        if _scaled_value(q, a, b) < 0:
            return a, b
    return None


# ---------------------------------------------------------------------------
# the oracle


def _integer_coeffs(coeffs: Sequence) -> list[int]:
    """The coefficients (floats or Fractions) times the lcm of their
    denominators: ints with the same signs and the same real roots.

    Raises ValueError for a coefficient that is not finite.
    """
    try:
        ratios = [c.as_integer_ratio() for c in coeffs]
    except (OverflowError, ValueError):
        raise ValueError(f"coefficients must be finite, got {list(coeffs)}")
    scale = math.lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def _integer_rows(rows: np.ndarray) -> np.ndarray:
    """Each float row of a 2-d array times one power of two, as Python ints
    in an object array: what _integer_coeffs gives for the row, up to that
    power, for a whole chunk.

    Every float is m 2^e with m = 2^53 times its frexp mantissa, an int of at
    most 53 bits; shifting each m by e less the row's least e makes the row
    exact in ints. Raises ValueError for an entry that is not finite.
    """
    if not np.isfinite(rows).all():
        raise ValueError("coefficients must be finite")
    mant, exp = np.frexp(rows)
    m = (mant * 2.0 ** 53).astype(np.int64)
    shift = exp - exp.min(axis=1, keepdims=True)
    return m.astype(object) << shift.astype(object)


def _negative_point(
        p: Union[Polynomial, RationalPolynomial]) -> Optional[tuple[int, int]]:
    """(a, b) with b > 0 and p(a / b) < 0 exactly, or None when p >= 0 on
    [0, infinity), decided on integer coefficients."""
    return _negative_int(_integer_coeffs(p.coeffs))


def _negative_int(c: Sequence[int],
                  settle: bool = False) -> Optional[tuple[int, int]]:
    """_negative_point on integer coefficients, lowest degree first; with
    settle a deep root isolation may return another negative point (see
    _walk), for callers that need only whether one exists."""
    end = len(c)
    while end and not c[end - 1]:
        end -= 1
    if not end:
        return None
    if c[0] < 0:
        return 0, 1
    # strip the power of x; x^v >= 0 on the half-line so only q matters
    v = 0
    while not c[v]:
        v += 1
    q = c[v:end]
    if q[-1] < 0:
        # Cauchy: every root has |x| < 1 + max|q_i| / |q_k|, past which the
        # leading term outweighs the rest
        lead = -q[-1]
        return lead + max(map(abs, q[:-1]), default=0), lead
    if len(q) == 1:
        return None
    if len(q) < 5 and q[0] > 0:
        # decided here: a non-member goes to isolation for its point, past
        # the certificate, which cannot prove it
        if _low_degree_member(q):
            return None
    elif _bernstein_certifies(q):
        return None
    return _isolate(q, settle)


def _discriminant(q):
    """The discriminant of q of degree 2 or 3, lowest degree first: of one
    int row, or of the columns of an object array of int rows, row by row."""
    if len(q) == 3:
        c, b, a = q
        return b * b - 4 * a * c
    d, c, b, a = q
    return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)


def _low_degree_member(q: Sequence[int]) -> bool:
    """Whether q >= 0 on [0, infinity), for q of degree 1 to 3 with both ends
    positive.

    With no negative coefficient q > 0 there. Otherwise q has degree 2 or 3
    and is a member exactly when its discriminant is <= 0. q is positive at
    0 and at infinity, so a negative value needs two distinct positive roots
    of odd multiplicity; every root is then real (a cubic's third one too)
    and distinct, and the discriminant is positive. Conversely a positive
    discriminant means distinct real roots, so Descartes' count of the
    positive ones is exact: with both ends positive and a negative
    coefficient it is 2, and q is negative between those simple roots.
    """
    return min(q) >= 0 or _discriminant(q) <= 0


def _batch_members(ints: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-d object array of ints, of degree >= 2 with
    both ends positive and a negative coefficient, proved members in one
    pass. True proves a member. At degree 2 or 3 False proves a non-member,
    since the discriminant decides (_low_degree_member). At degree >= 4 the
    mask is _bernstein_certifies at depth 1: the row's Bernstein
    coefficients have a negative one, but not at an end, so the certificate
    halves them first, and stops there exactly when both halves are
    nonnegative; False means only "not proved here"."""
    if ints.shape[1] < 5:
        return _discriminant(ints.T) <= 0
    left, right = _halves(_bernstein(list(ints.T)))
    return np.logical_and.reduce([c >= 0 for c in left + right])


def is_nonneg_on_halfline(
        p: Union[Polynomial, RationalPolynomial],
        ints: Optional[Sequence[int]] = None) -> bool:
    """Exact test for p(x) >= 0 on all of [0, infinity). Total function on
    finite coefficients.

    p may have float coefficients (a core.Polynomial), each taken as the
    dyadic rational it is: the verdict is that of the exact lift, with no
    rounding. The decision runs on integer coefficients. With x^v stripped,
    a q of degree 1 to 3 with q(0) > 0 and a positive leading coefficient
    is decided by its coefficient signs and discriminant (the proof is at
    _low_degree_member). The Bernstein certificate settles most other
    members, and root isolation decides what it leaves, trying the
    critical points of p once it goes deep. A caller that has lifted p
    already passes ints, p's coefficients times one positive number (as
    _integer_rows lifts a chunk), and p is not lifted again. Raises
    ValueError for a coefficient that is not finite.
    """
    if ints is None:
        ints = _integer_coeffs(p.coeffs)
    return _negative_int(ints, settle=True) is None


def refute_halfline(p: RationalPolynomial) -> Optional[Fraction]:
    """Rational x0 >= 0 with p(x0) < 0 exactly, or None for members.

    The witness sign is re-verified in rational arithmetic before return;
    ArithmeticError means the oracle is wrong.
    """
    point = _negative_point(p)
    if point is None:
        return None
    x = Fraction(*point)
    if x < 0 or p(x) >= 0:
        raise ArithmeticError(f"refute_halfline: p({x}) is not negative")
    return x


# ---------------------------------------------------------------------------
# the order-2 cone
#
# A positive 2 x 2 matrix A has real eigenvalues x > |y|. By Cayley-Hamilton
# p(A) = p(y) I + D (A - y I) with D = (p(x) - p(y)) / (x - y). A has trace
# x + y and determinant x y, so A = [[a, b], [c, x + y - a]] with
# b c = (x - a)(a - y) > 0, and a ranges over the open interval
# (max(0, y), min(x, x + y)), on which every entry of p(A) is linear in a.
# So p is in the order-2 cone exactly when
#   (i)   p >= 0 on [0, infinity) (the diagonal ends a -> y >= 0, a -> x);
#   (ii)  D >= 0 for x > |y| (the off-diagonal entries). D is the mean of p'
#         over [y, x], and for y = -w < 0
#         (x + w) D = (p(x) - p(w)) + 2 w odd(w^2), odd(z) = sum c_(2j+1) z^j,
#         so (ii) holds exactly when p' >= 0 and odd >= 0 on [0, infinity);
#   (iii) x p(y) - y p(x) >= 0 for x > -y > 0 (the diagonal end a -> 0).
#         With y = -u x it is x (1 + u) H(x, u) >= 0 on x > 0, 0 < u < 1,
#         H = c_0 + sum_(k >= 2) c_k x^k u sum_(j <= k - 2) (-u)^j.
# The end a -> x + y < x follows from (i) and (iii). H(x, 1) = even(x^2),
# even(z) = sum c_(2j) z^j, so even >= 0 is the u = 1 edge of (iii). (i)
# holds when c_0 >= 0 and p' >= 0, as p(x) = c_0 + int_0^x p': c_0 is tested
# by its sign, and p', odd and even by the half-line oracle.
# H is decided on two variables: a tensor Bernstein certificate settles
# most rows, and a cylindrical decomposition in x (Collins 1975) the rest.


class Order2Undecided(ArithmeticError):
    """Raised when H (below) has a repeated factor in u, so that its
    discriminant in u vanishes identically: the order-2 decision does not
    treat that case."""


def _order2_h(c: list[int]) -> list[list[int]]:
    """H of (iii) for the trimmed integer coefficients c, as rows h[i][j],
    the coefficient of x^i u^j, divided by its content and its factors x, u
    and 1 - u, which are positive where H is tested; [] when H is 0."""
    k = len(c) - 1
    rows = [[0] * max(k, 1) for _ in range(k + 1)]
    rows[0][0] = c[0]
    for i in range(2, k + 1):
        for j in range(1, i):
            rows[i][j] = c[i] if j % 2 else -c[i]
    while rows and not any(rows[-1]):
        rows.pop()
    if not rows:
        return []
    while not any(rows[0]):
        rows.pop(0)
    while not any(r[0] for r in rows):
        for r in rows:
            del r[0]
    while not any(map(sum, rows)):
        # r = (1 - u) q: q holds the partial sums of r
        rows = [list(itertools.accumulate(r))[:-1] for r in rows]
    g = math.gcd(*(v for r in rows for v in r))
    return [[v // g for v in r] for r in rows]


@functools.lru_cache(maxsize=64)
def _power_to_bernstein(k: int) -> tuple[tuple[int, ...], ...]:
    """Rows m = 0..k of C(m, j) lcm_i C(k, i) / C(k, j): the Bernstein
    coefficient m on [0, 1] of sum_j a_j u^j, times lcm_i C(k, i), is
    sum_j row_m[j] a_j."""
    return tuple(tuple(math.comb(m, j) * f for j, f in
                       zip(range(m + 1), _binomial_factors(k)))
                 for m in range(k + 1))


def _bernstein2(h: list[list[int]]) -> list[list[int]]:
    """The Bernstein coefficients on [0, 1]^2 of
    (1 - s)^dx H(s / (1 - s), u), times one positive int."""
    rows = _power_to_bernstein(len(h[0]) - 1)
    return [[f * sum(map(mul, row, hr)) for row in rows]
            for f, hr in zip(_binomial_factors(len(h) - 1), h)]


def _quarters(b: list[list[int]]) -> list[tuple[int, int, list[list[int]]]]:
    """(ds, du, coefficients) of the four quarters of a tensor leaf b[i][j]
    (s index i, u index j), times 2^(len(b) + len(b[0]) - 2): halved in u
    along each row, then in s as _halves halves, on whole rows."""
    k = len(b) - 1
    out = []
    for du, rows in enumerate(zip(*map(_halves, b))):
        top, bottom = [[v << k for v in rows[0]]], [[v << k for v in rows[-1]]]
        for shift in range(k - 1, -1, -1):
            rows = [list(map(add, r, r1)) for r, r1 in zip(rows, rows[1:])]
            top.append([v << shift for v in rows[0]])
            bottom.append([v << shift for v in rows[-1]])
        bottom.reverse()
        out += (0, du, top), (1, du, bottom)
    return out


def _h_certificate(h: list[list[int]]):
    """True proves H >= 0 on [0, infinity) x [0, 1]; a point (x, u) of that
    box with H(x, u) < 0 disproves it; None leaves it open.

    Every leaf with a negative coefficient is quartered, to depth
    _CERT_DEPTH; a negative corner coefficient is a negative value of H.
    The corners at s = 1 (x = infinity) are never negative once the leading
    coefficient of p is positive.
    """
    leaves = [(0, 0, _bernstein2(h))]
    for depth in range(_CERT_DEPTH + 1):
        open_ = [leaf for leaf in leaves if min(map(min, leaf[2])) < 0]
        if not open_:
            return True
        m = 1 << depth
        for i, j, b in open_:
            for ds, du in ((0, 0), (0, 1), (1, 0), (1, 1)):
                s = i + ds
                if b[-ds][-du] < 0 and s < m:
                    return Fraction(s, m - s), Fraction(j + du, m)
        if depth < _CERT_DEPTH:
            leaves = [(2 * i + ds, 2 * j + du, q)
                      for i, j, b in open_ for ds, du, q in _quarters(b)]
    return None


def _det(m: list[list[int]]) -> int:
    """The determinant of a square integer matrix, by Bareiss' fraction-free
    elimination: every division is exact."""
    m = [list(r) for r in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) up to sign, f and g taken at the formal degrees
    len - 1: the determinant of their Sylvester matrix."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * i + f + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + g + [0] * (m - 1 - i) for i in range(m)]
    return _det(rows)


def _interpolate(values: list[int]) -> list[int]:
    """The integer polynomial of degree < len(values) taking them at
    x = 0, 1, ...: f = sum_k a_k x (x - 1) ... (x - k + 1), where k! a_k is
    the k-th forward difference at 0."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    f = [0]
    for k in range(len(diffs) - 1, -1, -1):
        f = [0] + f                                     # f (x - k) + a_k
        for i in range(len(f) - 1):
            f[i] -= k * f[i + 1]
        f[0] += diffs[k] // math.factorial(k)
    return f


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _h_at(h: list[list[int]], a: int, b: int) -> list[int]:
    """b^dx H(a / b, u) mapped to t in [0, infinity) by u = t / (1 + t):
    the integer coefficients of (1 + t)^du H(a / b, t / (1 + t))."""
    du = len(h[0]) - 1
    col, b_pow = [0] * (du + 1), 1
    for row in reversed(h):
        col = [v * a + r * b_pow for v, r in zip(col, row)]
        b_pow *= b
    out = [0] * (du + 1)
    for j, v in enumerate(col):
        for i in range(du - j + 1):
            out[j + i] += math.comb(du - j, i) * v
    return out


def _h_cells(h: list[list[int]]) -> Optional[tuple[Fraction, Fraction]]:
    """A point (x, u) of [0, infinity) x [0, 1) with H(x, u) < 0, or None
    when H >= 0 on x > 0, 0 < u < 1: a cylindrical decomposition in x.

    Above each open interval of x > 0 free of roots of R = Res_u(H, H_u)
    H(x, 0) H(x, 1), H(x, .) keeps its degree (Res holds the leading
    coefficient), its roots stay simple and off u = 0 and u = 1, so it keeps
    its sign pattern on (0, 1); one sample x per interval, from the walk of
    R, is decided by the half-line oracle in t = u / (1 - u). Raises
    Order2Undecided when Res vanishes identically.
    """
    du = len(h[0]) - 1
    values = []
    for node in range((2 * du - 1) * (len(h) - 1) + 1):    # x = node
        col = [0] * (du + 1)
        for row in reversed(h):
            col = [v * node + r for v, r in zip(col, row)]
        values.append(_resultant(col, [j * v for j, v in enumerate(col)][1:]))
    res = _primitive(_interpolate(values))
    if not res:
        raise Order2Undecided
    r = _primitive(_mul(_mul(res, [row[0] for row in h]),
                        [sum(row) for row in h]))
    r = r[next(i for i, v in enumerate(r) if v):]
    last = -1
    for a, b, cell in _walk(r):
        if cell == last:
            continue
        last = cell
        point = _negative_int(_h_at(h, a, b))
        if point is not None:
            return Fraction(a, b), Fraction(point[0], sum(point))
    return None


def _order2_h_point(h: list[list[int]]) -> Optional[tuple[Fraction, Fraction]]:
    """A point (x, u) of [0, infinity) x [0, 1] with H(x, u) < 0, or None
    when H >= 0 there."""
    if not h:
        return None
    if len(h[0]) == 1:                          # H is constant in u
        point = _negative_int([row[0] for row in h])
        return None if point is None else (Fraction(*point), Fraction(1, 2))
    found = _h_certificate(h)
    if found is True:
        return None
    return found or _h_cells(h)


def _matrix_point(c: list[int], x: Fraction,
                  y: Fraction) -> Optional[Fraction]:
    """a for which A = [[a, 1], [a (x + y - a) - x y, x + y - a]], positive
    with eigenvalues x > |y|, has a negative entry in p(A), when D(x, y) < 0
    or the (0, 0) entry p(y) + D (a - y) is negative at a = max(0, y);
    otherwise None. The signs are found in integers."""
    k = len(c) - 1
    xq, yq = x.denominator, y.denominator
    sx = _scaled_value(c, x.numerator, xq)       # xq^k p(x)
    sy = _scaled_value(c, y.numerator, yq)
    xd, yd = xq ** k, yq ** k
    falls = sx * yd < sy * xd                     # D < 0
    low = sy if y >= 0 else (x.numerator * sy * xd * yq
                             - y.numerator * sx * yd * xq)
    if not falls and low >= 0:
        return None
    px, py = Fraction(sx, xd), Fraction(sy, yd)
    d = (px - py) / (x - y)
    lo, hi = max(Fraction(0), y), min(x, x + y)
    if d < 0:
        return (lo + hi) / 2
    e = py + d * (lo - y)
    return lo + min((hi - lo) / 2, -e / (2 * d)) if d else (lo + hi) / 2


def order2_counterexample(
        p: Union[Polynomial, RationalPolynomial]
) -> Optional[tuple[Fraction, Fraction, Fraction]]:
    """Rationals (x, y, a), x > |y|, y < a < x and 0 < a < x + y, for which
    the positive matrix [[a, 1], [a (x + y - a) - x y, x + y - a]], with
    eigenvalues x and y, has a negative entry in p(A) exactly; None when p
    is in the order-2 cone.

    Decided on integer coefficients by the conditions above: the sign of
    c_0, p' and the odd and even parts by the half-line oracle, then H. A
    failed condition gives a negative value at a point of the closed region,
    and a sequence of interior points converging to it ends at a negative
    entry, since the entries are continuous. Raises ValueError for a
    coefficient that is not finite, and Order2Undecided when H has a
    repeated factor in u; the point H gives is re-checked exactly first,
    and ArithmeticError means the decision is wrong.
    """
    c, failed = _order2_failure(p, settle=False)
    if failed is None:
        return None
    cond, point = failed

    def near(points):
        for x, y in points:
            a = _matrix_point(c, x, y)
            if a is not None:
                return x, y, a

    if cond == "p":                             # (i): a -> y = 0
        return near([(point + 1, point)])
    if cond == "p'":                            # (ii): D -> p'(t)
        return near((point + Fraction(max(point, 1)) / (1 << j), point)
                    for j in itertools.count())
    if cond != "H":         # (ii), u = 1 edge: (x, -x), x^2 = z, from x > |y|
        n, d = point.numerator * point.denominator, point.denominator
        return near((Fraction(r, d << j), Fraction(r * (1 - (1 << j)),
                                                   d << (2 * j)))
                    for j in itertools.count(1)
                    for r in [math.isqrt(n << (2 * j))])
    x0, u0 = point                              # (iii): a -> 0, y = -u x

    def inward(j):
        x = x0 or Fraction(1, 1 << j)
        return x, -x * (u0 + (Fraction(1, 2) - u0) / (1 << j))
    return near(map(inward, itertools.count(1)))


def _order2_failure(p: Union[Polynomial, RationalPolynomial], settle: bool):
    """(c, failed): p's trimmed integer coefficients, and the first condition
    of order2_counterexample to fail, with its point: ("p", 0), ("p'", t),
    ("odd", z), ("even", z) or ("H", (x, u)); None when all hold. settle is
    _negative_int's. The point H gives is re-checked exactly."""
    c = _integer_coeffs(p.coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return c, None
    if c[0] < 0:
        return c, ("p", Fraction(0))
    for cond, f in (("p'", _deriv(c)), ("odd", c[1::2]), ("even", c[0::2])):
        point = _negative_int(f, settle)
        if point is not None:
            return c, (cond, Fraction(*point))
    h = _order2_h(c)
    found = _order2_h_point(h)
    if found is None:
        return c, None
    x0, u0 = found
    if _eval_frac([_eval_frac(row, u0) for row in h], x0) >= 0:
        raise ArithmeticError(f"order2_counterexample: H({x0}, {u0}) is "
                              "not negative")
    return c, ("H", found)


def is_order2_member(
        p: Union[Polynomial, RationalPolynomial]) -> Optional[bool]:
    """Exact test for membership in the order-2 cone: p(A) >= 0 entrywise
    for every nonnegative 2 x 2 matrix A.

    Decided in integers on the float or rational coefficients, as
    is_nonneg_on_halfline decides the order-1 cone; a rejection comes with
    the rational matrix of order2_counterexample. None when H (see above)
    has a repeated factor in u, which the decision does not treat. Raises
    ValueError for a coefficient that is not finite.
    """
    try:
        return _order2_failure(p, settle=True)[1] is None
    except Order2Undecided:
        return None


# ---------------------------------------------------------------------------
# members of every order from the Loewy polynomial
#
# L_n = 1 + x + ... + x^(n-1) - 2 x^n + x^(n+1) + ... + x^(2n) is in the
# order-n cone: that is the paper's answer to Loewy's question, a theorem
# this package uses but does not check for n >= 3 (for n = 2
# is_order2_member decides it). The cone is convex and closed under
# p(x) -> p(a x) (A -> a A) and under multiplication by x^j, so p is a
# member whenever p - lam x^j L_n(a x) has every coefficient >= 0 for some
# a > 0 and lam >= 0. x^j L_n(a x) has the coefficient -2 a^n lam at
# x^(j+n) and a^i lam > 0 at every other x^(j+i), i <= 2n, so p can have at
# most one negative coefficient, c_m, and then j = m - n. For each a the
# best lam is min over i != n of c_(j+i) / a^i, and it covers c_m when
# c_m + 2 a^n lam >= 0.

# the values of a tried: 2^e (1 + f / 32) for e = -4..3 and f = 0..31, then
# 16; every one is a dyadic float, and a = 1 is the value the families need
_LOEWY_LADDER = tuple(2.0 ** e * (32 + f) / 32
                      for e in range(-4, 4) for f in range(32)) + (16.0,)


@functools.lru_cache(maxsize=16)
def _loewy_powers(n: int) -> np.ndarray:
    """a^(n - i) for each a of _LOEWY_LADDER (rows) and i = 0..2n, i != n
    (columns), in floats: exact up to n = 8, as each a has six bits; they
    only propose."""
    a = np.array(_LOEWY_LADDER)[:, None]
    powers = a ** (n - np.array([i for i in range(2 * n + 1) if i != n]))
    powers.flags.writeable = False
    return powers


def loewy_certificate(
        p: Union[Polynomial, RationalPolynomial],
        n: int) -> Optional[tuple[int, Fraction, Fraction]]:
    """(j, a, lam), j >= 0 and rationals a > 0 and lam >= 0, for which every
    coefficient of p - lam x^j L_n(a x) is >= 0; None when none is found.

    Such a triple proves p in the order-n cone, given the paper's theorem
    that L_n is a member (see above). p with no negative coefficient gets
    (0, 1, 0). Otherwise j is fixed by p's one negative coefficient, a float
    scan over _LOEWY_LADDER proposes the a with the widest margin
    c_m + 2 a^n lam, and the certificate is returned only once the
    coefficients of p - lam x^j L_n(a x) are checked >= 0 in Fractions. A
    rational coefficient beyond the float range in the scan gives None.
    """
    c = p.coeffs
    negative = [k for k, v in enumerate(c) if v < 0]
    if not negative:
        return 0, Fraction(1), Fraction(0)
    m = negative[0]
    j = m - n
    if len(negative) > 1 or j < 0 or m + n >= len(c):
        return None
    try:
        others = np.array([float(c[j + i])
                           for i in range(2 * n + 1) if i != n])
        low = float(c[m])
    except OverflowError:       # a rational beyond the float range
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2.0 * (_loewy_powers(n) * others).min(axis=1) + low
    best = int(margin.argmax())
    if not margin[best] >= 0.0:
        return None
    a = Fraction(_LOEWY_LADDER[best])
    q = [Fraction(v) for v in c]
    lam = min(q[j + i] / a ** i for i in range(2 * n + 1) if i != n)
    for i in range(2 * n + 1):
        q[j + i] -= lam * a ** i * (-2 if i == n else 1)
    return (j, a, lam) if min(q) >= 0 else None


# ---------------------------------------------------------------------------
# Polya-Szego construction
#
# Registers (A, B) stand for A^2 + x B^2. The Gauss composition
# (A^2 + x B^2)(C^2 + x D^2) = (AC - x BD)^2 + x (AD + BC)^2
# multiplies two registers. Conjugate root pairs give exact single-register
# factors: for z off the positive axis,
# (x - z)(x - conj z) = (x - |z|)^2 + x * (2|z| - 2 Re z),
# and each root -a <= 0 gives x + a = (sqrt a)^2 + x * 1^2.


def _compose(reg: tuple[Polynomial, Polynomial],
             fac: tuple[Polynomial, Polynomial]) -> tuple[Polynomial, Polynomial]:
    a, b = reg
    c, d = fac
    x = Polynomial([0.0, 1.0])
    return (a * c + (x * (b * d)).scale(-1.0), a * d + b * c)


def _signfix(p: Polynomial) -> Polynomial:
    for c in p.coeffs:
        if c != 0.0:
            return p if c > 0.0 else p.scale(-1.0)
    return p


def polya_szego_decompose(p: Polynomial) -> SosDecomposition:
    """Write a member of the n = 1 cone as f1^2 + f2^2 + x (g1^2 + g2^2).

    Membership is checked first through the exact oracle. Roots come from
    the companion matrix; conjugate pairs and paired positive real roots
    enter through quadratic register factors, roots at or below zero
    through half-line atoms, composed in increasing magnitude order.
    """
    if not is_nonneg_on_halfline(p):
        raise NotNonnegative("input is negative somewhere on [0, infinity)")
    pt = p.trimmed()
    if pt.is_zero():
        z = Polynomial([0.0])
        return SosDecomposition(z, z, z, z, 0.0)
    coeffs = list(pt.coeffs)
    lead = coeffs[-1]
    v = 0
    while coeffs[v] == 0.0:
        v += 1
    q = coeffs[v:]
    scale_c = abs(lead)

    quadratics: list[tuple[float, float]] = []   # (alpha, beta)
    atoms: list[float] = [0.0] * v               # roots at the origin
    if len(q) > 1:
        roots = np.roots(q[::-1])
        size = 1.0 + max(abs(z) for z in roots)
        pos_reals: list[float] = []
        for z in roots:
            if z.imag > 1e-8 * size:
                alpha = abs(z)
                beta = np.sqrt(max(0.0, 2.0 * (alpha - z.real)))
                quadratics.append((alpha, beta))
            elif z.imag >= -1e-8 * size:
                r = z.real
                if r > 1e-9 * size:
                    pos_reals.append(r)
                else:
                    atoms.append(max(0.0, -r))
        if len(pos_reals) % 2 == 1:
            raise IllConditioned("unpaired positive real root")
        pos_reals.sort()
        for r1, r2 in zip(pos_reals[::2], pos_reals[1::2]):
            alpha = float(np.sqrt(r1 * r2))
            beta = float(np.sqrt(max(0.0, 2.0 * alpha - r1 - r2)))
            quadratics.append((alpha, beta))

    reg_a, reg_b = Polynomial([1.0]), Polynomial([0.0])
    for alpha, beta in sorted(quadratics, key=lambda ab: ab[0]):
        reg_a, reg_b = _compose((reg_a, reg_b),
                                (Polynomial([-alpha, 1.0]), Polynomial([beta])))
    sig, tau = Polynomial([1.0]), Polynomial([0.0])
    for a in sorted(atoms):
        sig, tau = _compose((sig, tau),
                            (Polynomial([np.sqrt(a)]), Polynomial([1.0])))

    # (A^2 + x B^2)(S^2 + x T^2) = (AS)^2 + (x BT)^2 + x ((AT)^2 + (BS)^2)
    root_c = float(np.sqrt(scale_c))
    x = Polynomial([0.0, 1.0])
    f1 = _signfix((reg_a * sig).scale(root_c)).trimmed()
    f2 = _signfix((x * (reg_b * tau)).scale(root_c)).trimmed()
    g1 = _signfix((reg_a * tau).scale(root_c)).trimmed()
    g2 = _signfix((reg_b * sig).scale(root_c)).trimmed()

    recon = SosDecomposition(f1, f2, g1, g2, 0.0).reconstruct()
    n = max(len(recon.coeffs), len(pt.coeffs))
    diff = np.zeros(n)
    diff[: len(recon.coeffs)] += recon.coeffs
    diff[: len(pt.coeffs)] -= pt.coeffs
    residual = float(np.max(np.abs(diff)))
    tol = 1e-6 * max(abs(c) for c in pt.coeffs)
    if residual > tol:
        raise IllConditioned(
            f"reconstruction residual {residual:.3g} exceeds {tol:.3g}")
    return SosDecomposition(f1, f2, g1, g2, residual)
