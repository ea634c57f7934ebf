"""Exact membership oracle for the n = 1 cone and its constructive certificates.

For n = 1 the cone is exactly the polynomials nonnegative on [0, infinity).
That is decidable in integer arithmetic. The oracle takes float or rational
coefficients and scales them to Python ints by one positive factor (every
float is a dyadic rational, so nothing is rounded). On those ints it strips
the power of x, checks the boundary and leading signs, and tries a Bernstein
subdivision certificate, which settles most members. What that leaves goes
to root isolation on the same Bernstein coefficients: Descartes' rule
separates the roots of the square-free part, and the sign of p at one point
between each two of them decides. The same module produces the two kinds of
certificate: a rational point with exactly negative value when membership
fails, and a sum-of-squares decomposition p = f1^2 + f2^2 + x (g1^2 + g2^2)
when it holds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

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


def _squarefree(q: list[int]) -> list[int]:
    """q / gcd(q, q'), with the real roots of q, each simple.

    The gcd is the last term of a primitive remainder sequence over Z; it is
    primitive, so (Gauss's lemma) q divides by it exactly in ints.
    """
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


def _halves(b: list[int]) -> tuple[list[int], list[int]]:
    """Bernstein coefficients of both halves of a leaf, times 2^k: scaling
    by 2^k first makes every average below an exact integer."""
    k = len(b) - 1
    b = [v << k for v in b]
    left, right = [b[0]], [b[-1]]
    for _ in range(k):
        b = [(u + v) >> 1 for u, v in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    return left, right[::-1]


@functools.lru_cache(maxsize=64)
def _binomial_factors(k: int) -> tuple[int, ...]:
    """lcm_j C(k, j) / C(k, j) for j = 0..k: multiplying q_j by these turns
    the Bernstein coefficients q_j / C(k, j) into ints."""
    binom = [math.comb(k, j) for j in range(k + 1)]
    lcm = math.lcm(*binom)
    return tuple(lcm // c for c in binom)


def _bernstein(q: Sequence[int]) -> list[int]:
    """The Bernstein coefficients of q on [0, 1], times one positive int."""
    return [v * f for v, f in zip(q, _binomial_factors(len(q) - 1))]


def _bernstein_certifies(q: Sequence[int]) -> bool:
    """True proves q >= 0 on [0, infinity); False means only "not certified".

    q holds integer coefficients, lowest degree first. Every leaf with a
    negative Bernstein coefficient is halved, to depth _CERT_DEPTH. A
    negative end coefficient is a negative value of q, so a leaf that has
    one ends the search.
    """
    leaves = [_bernstein(q)]
    depth = 0
    while True:
        open_ = [b for b in leaves if min(b) < 0]
        if not open_:
            return True
        if depth == _CERT_DEPTH or any(b[0] < 0 or b[-1] < 0 for b in open_):
            return False
        leaves = [half for b in open_ for half in _halves(b)]
        depth += 1


def _sign_changes(b: Sequence[int]) -> int:
    signs = [v > 0 for v in b if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _isolate(q: list[int]) -> Optional[tuple[int, int]]:
    """(a, b) with b > 0 and q(a / b) < 0, or None when q >= 0 on [0, inf).

    q holds integer coefficients with q(0) != 0. The Bernstein coefficients
    of its square-free part are halved, left leaf first, until each leaf
    holds no root, or one root with nonzero end coefficients and touches
    neither y = 0 nor y = 1 (Collins-Akritas). Between two consecutive roots,
    and before the first and after the last, lies the left end of a leaf or
    the midpoint of a root-free one; q keeps one sign there, so it is tested
    at those points, in increasing order, and the first negative one is
    returned.
    """
    todo = [(0, 0, _bernstein(_squarefree(q)))]
    while todo:
        i, depth, b = todo.pop()      # the leaf [i, i + 1] / 2^depth
        m = 1 << depth
        roots = _sign_changes(b)
        if roots > 1 or roots == 1 and not (b[0] and b[-1] and 0 < i < m - 1):
            left, right = _halves(b)
            todo += [(2 * i + 1, depth + 1, right), (2 * i, depth + 1, left)]
            continue
        ys = [(i, m)] if i else []
        if roots == 0:
            ys.append((2 * i + 1, 2 * m))
        for a, d in ys:                # y = a / d is x = a / (d - a)
            if _scaled_value(q, a, d - a) < 0:
                return a, d - a
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


def _negative_point(
        p: Union[Polynomial, RationalPolynomial]) -> Optional[tuple[int, int]]:
    """(a, b) with b > 0 and p(a / b) < 0 exactly, or None when p >= 0 on
    [0, infinity), decided on integer coefficients."""
    c = _integer_coeffs(p.coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return None
    if c[0] < 0:
        return 0, 1
    # strip the power of x; x^v >= 0 on the half-line so only q matters
    v = 0
    while c[v] == 0:
        v += 1
    q = c[v:]
    if q[-1] < 0:
        # Cauchy: every root has |x| < 1 + max|q_i| / |q_k|, past which the
        # leading term outweighs the rest
        lead = -q[-1]
        return lead + max(map(abs, q[:-1]), default=0), lead
    if len(q) == 1 or _bernstein_certifies(q):
        return None
    return _isolate(q)


def is_nonneg_on_halfline(
        p: Union[Polynomial, RationalPolynomial]) -> bool:
    """Exact test for p(x) >= 0 on all of [0, infinity). Total function on
    finite coefficients.

    p may have float coefficients (a core.Polynomial), each taken as the
    dyadic rational it is: the verdict is that of the exact lift, with no
    rounding. The decision runs on integer coefficients; the Bernstein
    certificate settles most members, and root isolation decides what it
    leaves. Raises ValueError for a coefficient that is not finite.
    """
    return _negative_point(p) is None


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
