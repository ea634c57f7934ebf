"""Exact membership oracle for the n = 1 cone and its constructive certificates.

For n = 1 the cone is exactly the polynomials nonnegative on [0, infinity).
That is decidable in rational arithmetic. The oracle takes float or rational
coefficients and scales them to Python ints by one positive factor (every
float is a dyadic rational, so nothing is rounded). On those ints it strips
the power of x, checks the boundary and leading signs, and tries a Bernstein
subdivision certificate, which settles most members. Only what that leaves
is lifted to Fractions, for a Sturm count of the roots in (0, B] of the
odd-multiplicity part. The same module produces the two kinds of
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
# exact polynomial arithmetic on tuples of Fractions, lowest degree first

def _strip(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    d = len(c) - 1
    while d >= 0 and c[d] == 0:
        d -= 1
    return tuple(c[: d + 1])


def _deriv(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(Fraction(d) * c[d] for d in range(1, len(c)))


def _sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return _strip(out)


def _divmod(a: Sequence[Fraction],
            b: Sequence[Fraction]) -> tuple[tuple, tuple]:
    # exact long division, b nonzero
    a = list(_strip(a))
    b = _strip(b)
    assert b, "division by zero polynomial"
    db = len(b) - 1
    lead = b[-1]
    quo = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(v != 0 for v in a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        f = a[-1] / lead
        quo[da - db] = f
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a.pop()
    return _strip(quo), _strip(a)


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    # monic gcd; returns (1,) for coprime inputs
    a, b = _strip(a), _strip(b)
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
        if a:
            lead = a[-1]
            a = tuple(v / lead for v in a)
    return a if a else (Fraction(0),)


def _odd_multiplicity_part(q: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Monic product of the irreducible factors of odd multiplicity.

    Yun square-free decomposition: q = prod a_k^k with the a_k square-free
    and pairwise coprime; the odd part is prod over odd k.
    """
    q = _strip(q)
    assert q and len(q) > 1
    f = tuple(v / q[-1] for v in q)
    g = _gcd(f, _deriv(f))
    if len(g) == 1:
        return f
    w, _ = _divmod(f, g)
    y, _ = _divmod(_deriv(f), g)
    z = _sub(y, _deriv(w))
    parts: list[tuple[int, tuple[Fraction, ...]]] = []
    k = 1
    while len(w) > 1:
        a = _gcd(w, z)
        if len(a) > 1:
            parts.append((k, a))
        w, _ = _divmod(w, a)
        y, _ = _divmod(z, a)
        z = _sub(y, _deriv(w))
        k += 1
    out: tuple[Fraction, ...] = (Fraction(1),)
    for k, a in parts:
        if k % 2 == 1:
            prod = [Fraction(0)] * (len(out) + len(a) - 1)
            for i, u in enumerate(out):
                for j, v in enumerate(a):
                    prod[i + j] += u * v
            out = _strip(prod)
    return out


def _sturm_chain(p: Sequence[Fraction]) -> list[tuple[Fraction, ...]]:
    chain = [_strip(p)]
    d = _strip(_deriv(p))
    if d:
        chain.append(d)
        while len(chain[-1]) > 1:
            _, r = _divmod(chain[-2], chain[-1])
            if not r:
                break
            lead = abs(r[-1])
            chain.append(tuple(-v / lead for v in r))
    return chain


def _eval_frac(c: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _variations(chain, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = _eval_frac(c, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of chain[0] in the half-open interval (a, b]."""
    return _variations(chain, a) - _variations(chain, b)


def _cauchy_bound(c: Sequence[Fraction]) -> Fraction:
    # all roots lie strictly inside |x| < 1 + max|a_i| / |lead|
    lead = abs(c[-1])
    rest = max((abs(v) for v in c[:-1]), default=Fraction(0))
    return 1 + rest / lead


# ---------------------------------------------------------------------------
# Bernstein certificate: with x = y / (1 - y),
# (1 - y)^k q(y / (1 - y)) = sum_j q_j y^j (1 - y)^(k-j), whose Bernstein
# coefficients on [0, 1] are q_j / C(k, j). When every leaf of a de Casteljau
# subdivision of [0, 1] has nonnegative coefficients, that polynomial is
# nonnegative on [0, 1], hence q on [0, infinity).

# subdivision depth of the certificate; deeper members go to the Sturm count
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


def _bernstein_certifies(q: Sequence[int]) -> bool:
    """True proves q >= 0 on [0, infinity); False means only "not certified".

    q holds integer coefficients, lowest degree first. The Bernstein
    coefficients q_j / C(k, j), times one positive factor, are ints, and
    every leaf with a negative coefficient is halved, to depth _CERT_DEPTH.
    A negative end coefficient is a negative value of q, so a leaf that has
    one ends the search.
    """
    leaves = [[v * f for v, f in zip(q, _binomial_factors(len(q) - 1))]]
    depth = 0
    while True:
        open_ = [b for b in leaves if min(b) < 0]
        if not open_:
            return True
        if depth == _CERT_DEPTH or any(b[0] < 0 or b[-1] < 0 for b in open_):
            return False
        leaves = [half for b in open_ for half in _halves(b)]
        depth += 1


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


def is_nonneg_on_halfline(
        p: Union[Polynomial, RationalPolynomial]) -> bool:
    """Exact test for p(x) >= 0 on all of [0, infinity). Total function on
    finite coefficients.

    p may have float coefficients (a core.Polynomial), each taken as the
    dyadic rational it is: the verdict is that of the exact lift, with no
    rounding. The decision runs on integer coefficients; the Bernstein
    certificate settles most members, and the Sturm count decides what it
    leaves. Raises ValueError for a coefficient that is not finite.
    """
    c = _integer_coeffs(p.coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return True
    if c[-1] < 0 or c[0] < 0:
        return False
    # strip the power of x; x^v >= 0 on the half-line so only q matters
    v = 0
    while c[v] == 0:
        v += 1
    q = c[v:]
    if q[0] < 0:
        return False
    if len(q) == 1 or _bernstein_certifies(q):
        return True
    odd = _odd_multiplicity_part([Fraction(n) for n in q])
    if len(odd) == 1:
        return True
    chain = _sturm_chain(odd)
    return _count_roots(chain, Fraction(0), _cauchy_bound(odd)) == 0


def refute_halfline(p: RationalPolynomial) -> Optional[Fraction]:
    """Rational x0 >= 0 with p(x0) < 0 exactly, or None for members.

    The witness sign is re-verified in rational arithmetic before return.
    """
    if is_nonneg_on_halfline(p):
        return None
    c = _strip(p.coeffs)
    if c[0] < 0:
        return Fraction(0)
    v = 0
    while c[v] == 0:
        v += 1
    q = c[v:]

    def verified(x: Fraction) -> Fraction:
        assert x >= 0 and p(x) < 0
        return x

    if q[0] < 0:
        # negative just right of the origin; halve until the sign shows
        x = Fraction(1)
        for _ in range(20000):
            if p(x) < 0:
                return verified(x)
            x /= 2
        raise AssertionError("sign near zero did not materialize")
    bound = _cauchy_bound(q)
    if q[-1] < 0:
        # beyond every root the leading sign wins
        x = bound
        for _ in range(200):
            if p(x) < 0:
                return verified(x)
            x *= 2
        raise AssertionError("leading-sign witness did not materialize")
    # interior dip: bisect toward the first odd-multiplicity root r, testing
    # every probe. p < 0 on some (r, r + w), so a probe lands there once
    # hi - lo < w, however small w is against the bound, unless hi is r
    odd = _odd_multiplicity_part(q)
    chain = _sturm_chain(odd)
    lo, hi = Fraction(0), bound
    while _eval_frac(odd, hi) != 0 or \
            _count_roots(chain, Fraction(0), hi) > 1:
        if p(hi) < 0:
            return verified(hi)
        mid = (lo + hi) / 2
        if p(mid) < 0:
            return verified(mid)
        if _count_roots(chain, Fraction(0), mid) >= 1:
            hi = mid
        else:
            lo = mid
    # hi is the root r itself; step off it toward the bound
    step = bound - hi
    while True:
        step /= 2
        if p(hi + step) < 0:
            return verified(hi + step)


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
