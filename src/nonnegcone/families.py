"""Constructors for the structured polynomial families under study.

The central family has n consecutive unit coefficients starting at degree s,
a single negative coefficient -t at degree m, and the mirror image of the
low block reflected through m: unit coefficients at degrees 2m - s - n + 1
through 2m - s.

t = 2 is known to be the sharp threshold only in two cases. For n = 1 the
member x^s - 2 x^m + x^(2m - s) = x^s (1 - x^(m - s))^2 is a perfect square.
For s = m - n the polynomial is x^(m - n) times the degree-2n case
loewy_general(n, n, 0, t), whose threshold t = 2 is the answer to Loewy's
question. For n >= 2 and s < m - n it can fail: loewy_general(2, 3, 0, 2)
is a certified non-member, because its derivative is negative at x = 3/5
and every member of an order n >= 2 cone is nondecreasing on [0, infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

from .core import Polynomial
from .exact import RationalPolynomial, is_nonneg_on_halfline
from .membership import Refuted, SearchConfig, refute


class InvalidSpec(ValueError):
    """Raised when family parameters violate the documented ranges."""


# coefficient lists are dense, so a family's degree is capped
MAX_DEGREE = 1000


def _check_shape(t: float, degree: int) -> None:
    if not math.isfinite(t):
        raise InvalidSpec("need a finite weight")
    if degree > MAX_DEGREE:
        raise InvalidSpec(f"family degree must be at most {MAX_DEGREE}")


@dataclass(frozen=True)
class LoewyGeneral:
    n: int
    m: int
    s: int
    t: float

    def __post_init__(self):
        if not (self.m >= self.n >= 1):
            raise InvalidSpec("need m >= n >= 1")
        if not (0 <= self.s <= self.m - self.n):
            raise InvalidSpec("need 0 <= s <= m - n")
        _check_shape(self.t, 2 * self.m - self.s)


@dataclass(frozen=True)
class Alpha:
    n: int
    alpha: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpec("need n >= 1")
        if not 0 < self.alpha < math.inf:
            raise InvalidSpec("need finite alpha > 0")
        _check_shape(self.alpha, 2 * _alpha_m(self.n, self.alpha))


@dataclass(frozen=True)
class ConjectureGap:
    n: int
    m: int
    s: int
    t: float

    def __post_init__(self):
        if not (self.s > self.m >= self.n >= 1):
            raise InvalidSpec("need s > m >= n >= 1")
        _check_shape(self.t, self.s + self.n - 1)


FamilySpec = Union[LoewyGeneral, Alpha, ConjectureGap]


def spec_to_json_dict(spec: FamilySpec) -> dict:
    if isinstance(spec, LoewyGeneral):
        return {"variant": "loewy_general", "n": spec.n, "m": spec.m,
                "s": spec.s, "t": spec.t}
    if isinstance(spec, Alpha):
        return {"variant": "alpha", "n": spec.n, "alpha": spec.alpha}
    return {"variant": "conjecture_gap", "n": spec.n, "m": spec.m,
            "s": spec.s, "t": spec.t}


def spec_from_json_dict(d: dict) -> FamilySpec:
    v = d["variant"]
    if v == "loewy_general":
        return LoewyGeneral(int(d["n"]), int(d["m"]), int(d["s"]),
                            float(d["t"]))
    if v == "alpha":
        return Alpha(int(d["n"]), float(d["alpha"]))
    if v == "conjecture_gap":
        return ConjectureGap(int(d["n"]), int(d["m"]), int(d["s"]),
                             float(d["t"]))
    raise InvalidSpec(f"unknown variant {v!r}")


def loewy_general(n: int, m: int, s: int, t: float) -> Polynomial:
    """Unit blocks at degrees s..s+n-1 and 2m-s-n+1..2m-s, -t at degree m."""
    spec = LoewyGeneral(n, m, s, t)
    coeffs = [0.0] * (2 * spec.m - spec.s + 1)
    for k in range(spec.n):
        coeffs[spec.s + k] += 1.0
        coeffs[2 * spec.m - spec.s - k] += 1.0
    coeffs[spec.m] -= float(spec.t)
    return Polynomial(coeffs)


def _alpha_m(n: int, alpha: float) -> int:
    return n * int(math.ceil(alpha / 2.0))


def alpha_family(n: int, alpha: float) -> Polynomial:
    """All-ones coefficients except a single -alpha at the center degree."""
    spec = Alpha(n, alpha)
    m = _alpha_m(spec.n, spec.alpha)
    coeffs = [1.0] * (2 * m + 1)
    coeffs[m] = -float(spec.alpha)
    return Polynomial(coeffs)


def split_alpha(n: int, alpha: float) -> tuple[list[Polynomial], Polynomial]:
    """Split alpha_family(n, alpha) into family blocks plus a center slack.

    Returns (blocks, slack): blocks are loewy_general(n, m, s*n, 2) for
    s = 0..ceil(alpha/2)-1, whose unit blocks tile degrees 0..m-1 and
    m+1..2m exactly (the high blocks in reverse order), and slack is
    (2 ceil(alpha/2) - alpha) x^m. The coefficientwise sum of all pieces
    equals alpha_family(n, alpha) exactly.

    This is a coefficient identity only, not a sum of cone members. For
    n >= 2 and ceil(alpha/2) >= 2 every block but the innermost has
    s*n < m - n, and such blocks need not be members: split_alpha(2, 4.0)
    yields loewy_general(2, 4, 0, 2), whose derivative goes negative on
    (0, infinity). PAPER.md does not give the paper's own decomposition of
    the all-ones family.
    """
    spec = Alpha(n, alpha)
    c = int(math.ceil(spec.alpha / 2.0))
    m = spec.n * c
    blocks = [loewy_general(spec.n, m, s * spec.n, 2.0) for s in range(c)]
    slack_coeffs = [0.0] * (m + 1)
    slack_coeffs[m] = 2.0 * c - float(spec.alpha)
    return blocks, Polynomial(slack_coeffs)


def conjecture_family(n: int, m: int, s: int, t: float) -> Polynomial:
    """Unit blocks at degrees 0..n-1 and s..s+n-1 with -t at degree m."""
    spec = ConjectureGap(n, m, s, t)
    coeffs = [0.0] * (spec.s + spec.n)
    for k in range(spec.n):
        coeffs[k] += 1.0
        coeffs[spec.s + k] += 1.0
    coeffs[spec.m] -= float(spec.t)
    return Polynomial(coeffs)


def build(spec: FamilySpec) -> Polynomial:
    if isinstance(spec, LoewyGeneral):
        return loewy_general(spec.n, spec.m, spec.s, spec.t)
    if isinstance(spec, Alpha):
        return alpha_family(spec.n, spec.alpha)
    return conjecture_family(spec.n, spec.m, spec.s, spec.t)


def family_with_t(spec: FamilySpec, t: float) -> Polynomial:
    """The described family's polynomial with its free parameter set to t.

    For the all-ones family the parameter is the center weight; its t -> 0
    limit keeps the smallest center degree so bisection can start at 0.
    """
    if isinstance(spec, Alpha):
        if t <= 0.0:
            m = spec.n
            coeffs = [1.0] * (2 * m + 1)
            coeffs[m] = -float(t)
            return Polynomial(coeffs)
        return alpha_family(spec.n, t)
    return build(replace(spec, t=t))


# ---------------------------------------------------------------------------
# necessary conditions and the projection gap


def necessary_conditions(p: Polynomial, n: int) -> list[tuple[str, Optional[int]]]:
    """Cheap tests every member of the order-n cone must pass.

    (a) low n coefficients nonnegative, (b) high n coefficients nonnegative,
    (c) nonnegative on [0, infinity) via the exact oracle on the float lift,
    (d) for n >= 2, nondecreasing on [0, infinity), the same oracle on p'
    (p(xI + cJ) has off-diagonal entries (p(x + nc) - p(x)) / n).
    Returns the violations as (check, degree) pairs; an empty list is
    necessary but not sufficient for membership.
    """
    deg = p.degree()
    assert deg >= 0, "nonzero polynomial required"
    out: list[tuple[str, Optional[int]]] = []
    for d in range(0, min(n - 1, deg) + 1):
        if p.coeffs[d] < 0.0:
            out.append(("low_coeff", d))
    for d in range(max(0, deg - n + 1), deg + 1):
        if p.coeffs[d] < 0.0:
            out.append(("high_coeff", d))
    q = RationalPolynomial.from_polynomial(p)
    if not is_nonneg_on_halfline(q):
        out.append(("halfline", None))
    if n >= 2 and not is_nonneg_on_halfline(q.derivative()):
        out.append(("monotone", None))
    return out


def _shift(p: Polynomial, j: int) -> Polynomial:
    return Polynomial([0.0] * j + list(p.coeffs))


def _drop_top(p: Polynomial, top: int) -> Polynomial:
    """Remove the degree-top coefficient: the projection that forgets it."""
    coeffs = list(p.trimmed().coeffs)
    assert len(coeffs) == top + 1
    return Polynomial(coeffs[:top])


def projection_gap_example(n: int, k: int,
                           cfg: SearchConfig) -> Optional[Polynomial]:
    """A degree-k polynomial outside the order-n degree-k cone that extends
    to a member one degree higher, witnessing strictness of the projection.

    n = 1 is constructive: x^(k-1) (1 - x)^2 is a member of the degree-(k+1)
    cone and dropping its top term leaves x^(k-1) - 2 x^k, which fails at
    large x. For n >= 2 the candidates are shifted family members at t = 2
    of degree k+1; a candidate's projection is returned once the search
    refutes it, and None is returned when the ladder is exhausted.
    """
    if k < 2 * n:
        raise InvalidSpec("need k >= 2n")
    if n == 1:
        coeffs = [0.0] * (k + 1)
        coeffs[k - 1] = 1.0
        coeffs[k] = -2.0
        return Polynomial(coeffs)
    s = 0
    while True:
        j = k + 1 - 2 * n - s
        if j < 1:
            break
        q = _shift(loewy_general(n, n + s, s, 2.0), j)
        pi_q = _drop_top(q, k + 1)
        if isinstance(refute(pi_q, n, cfg), Refuted):
            return pi_q
        s += 1
    return None
