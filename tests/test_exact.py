"""Exact half-line oracle, rational witnesses, and the SOS construction."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonnegcone.core import Polynomial, eval_scalar
from nonnegcone import exact
from nonnegcone.exact import (
    NotNonnegative,
    RationalPolynomial,
    _bernstein_certifies,
    is_nonneg_on_halfline,
    polya_szego_decompose,
    refute_halfline,
)


def rp(*coeffs) -> RationalPolynomial:
    return RationalPolynomial(coeffs)


def test_oracle_examples():
    assert is_nonneg_on_halfline(rp(1, -2, 1)) is True
    assert is_nonneg_on_halfline(rp(1, Fraction(-5, 2), 1)) is False
    assert is_nonneg_on_halfline(rp(0, 0, -1, 1)) is False   # x^3 - x^2
    assert is_nonneg_on_halfline(rp(0, 0, 0, 1)) is True     # x^3
    assert is_nonneg_on_halfline(rp()) is True               # zero polynomial


def test_oracle_sign_conditions():
    assert is_nonneg_on_halfline(rp(-1)) is False
    assert is_nonneg_on_halfline(rp(1, 0, -1)) is False      # negative lead
    assert is_nonneg_on_halfline(rp(2)) is True
    assert is_nonneg_on_halfline(rp(0, 1)) is True           # x
    assert is_nonneg_on_halfline(rp(1, 1, 1)) is True


def test_oracle_multiplicity_handling():
    # even multiplicities never break membership, odd ones on (0, inf) do
    assert is_nonneg_on_halfline(rp(1, -4, 6, -4, 1)) is True     # (x-1)^4
    assert is_nonneg_on_halfline(rp(4, -8, 5, -1)) is False       # has dip
    # (x-1)^2 (x-2): negative beyond 2? no, positive lead, negative on (1,2)?
    # expand: (x^2-2x+1)(x-2) = x^3 -4x^2 +5x -2, negative on (0,1)? p(0)=-2
    assert is_nonneg_on_halfline(rp(-2, 5, -4, 1)) is False
    # (x-1)^2 (x+1) touches zero at 1 only
    assert is_nonneg_on_halfline(rp(1, -1, -1, 1)) is True


def test_refute_examples():
    x0 = refute_halfline(rp(1, Fraction(-5, 2), 1))
    p = rp(1, Fraction(-5, 2), 1)
    assert x0 is not None and p(x0) < 0
    assert refute_halfline(rp(1, 1)) is None
    assert refute_halfline(rp(-1)) == 0


def test_refute_near_origin_and_leading():
    # x^2 (x - 1): dips right after the stripped constant turns negative
    x0 = refute_halfline(rp(0, 0, -1, 1))
    assert x0 is not None and x0 > 0 and rp(0, 0, -1, 1)(x0) < 0
    # negative leading coefficient: witness beyond the root bound
    x0 = refute_halfline(rp(1, 0, -1))
    assert x0 is not None and rp(1, 0, -1)(x0) < 0


def test_oracle_soundness_random():
    rng = np.random.default_rng(31)
    grid = np.linspace(0.0, 100.0, 2000)
    for _ in range(250):
        deg = int(rng.integers(0, 9))
        nums = rng.integers(-100, 101, size=deg + 1)
        q = RationalPolynomial([Fraction(int(v), 100) for v in nums])
        verdict = is_nonneg_on_halfline(q)
        vals = np.polyval([float(c) for c in q.coeffs[::-1]], grid)
        if np.min(vals) < 0.0:
            k = int(np.argmin(vals))
            exact_val = q(Fraction(float(grid[k])))
            if exact_val < 0:
                assert verdict is False
        if verdict is False:
            x0 = refute_halfline(q)
            assert x0 is not None and x0 >= 0 and q(x0) < 0
        else:
            assert refute_halfline(q) is None


def _sympy_nonneg(coeffs: list) -> bool:
    """p >= 0 on [0, inf): its lowest and highest nonzero coefficients are
    positive and every positive real root has even multiplicity."""
    nonzero = [c for c in coeffs if c != 0]
    if not nonzero:
        return True
    if nonzero[0] < 0 or nonzero[-1] < 0:
        return False
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x)
    return all(mult % 2 == 0 for r, mult in poly.real_roots(multiple=False)
               if r > 0)


# non-members whose Bernstein halving would overflow to inf (large) or round
# to zero (subnormal) in floats; the certificate works in integers
EXTREME_NON_MEMBERS = [
    [1.5986556870945832e+308, 1.3653776341267699e+308,
     -1.6983672832767358e+308, 1.3965195747310622e+307],
    [2.5e-323, -1.14e-322, -1e-323, 1.93e-322],
]


def _sturm_only(q: RationalPolynomial) -> bool:
    """The oracle with its Bernstein certificate switched off."""
    with mock.patch.object(exact, "_bernstein_certifies", return_value=False):
        return is_nonneg_on_halfline(q)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=9),
       scale=st.sampled_from([1.0, 1e300, 8e306, 1e-300, 2.0 ** -1074]))
@example(coeffs=[1, -1, -1, 1], scale=1.0)      # (x - 1)^2 (x + 1)
@example(coeffs=[4, 0, -3, 1], scale=1.0)       # (x - 2)^2 (x + 1)
@example(coeffs=[4, 0, -3, 1], scale=1e300)
@example(coeffs=[0, 4, 0, -3, 1], scale=1.0)    # zero at a_0
@example(coeffs=[4, 0, -3, 1, 0], scale=1e-300)  # zero at a_k
@example(coeffs=[1, -2, 1], scale=1.0)          # (x - 1)^2, touches at y = 1/2
@example(coeffs=[20, -20, 20, -20, 20, -20, 20, -20, 20], scale=8e306)
def test_certificate_is_never_wrong(coeffs, scale):
    q = RationalPolynomial([c * scale for c in coeffs])
    certified = _bernstein_certifies(q.coeffs)
    verdict = _sturm_only(q)
    assert verdict or not certified
    assert is_nonneg_on_halfline(q) == verdict
    if all(c >= 0 for c in coeffs):
        assert certified
    if scale == 1.0:
        assert _sympy_nonneg(coeffs) == verdict


def test_certificate_exact_at_extreme_magnitudes():
    for row in EXTREME_NON_MEMBERS:
        q = RationalPolynomial(row)
        assert not _bernstein_certifies(q.coeffs)
        assert not is_nonneg_on_halfline(q)


def test_certificate_edge_cases():
    def certifies(*coeffs):
        return _bernstein_certifies(rp(*coeffs).coeffs)
    assert certifies(1, -1.9, 1) and not certifies(1, -2.1, 1)
    assert certifies(0, 0, 0) and certifies(2) and not certifies(-2)
    assert certifies(-0.0, 0, 1) and certifies(0, 1, 0)
    # (x - 1)^2 touches zero at the dyadic y = 1/2, where one halving splits
    # it; (x - 2)^2 touches at y = 2/3, which no depth reaches
    assert certifies(1, -2, 1)
    assert not certifies(4, -4, 1) and is_nonneg_on_halfline(rp(4, -4, 1))


def test_json_roundtrip():
    q = rp(1, Fraction(-5, 2), 0, 3)
    items = q.to_json_list()
    assert items == ["1/1", "-5/2", "0/1", "3/1"]
    assert RationalPolynomial.from_json_list(items) == q


def test_polya_szego_examples():
    d = polya_szego_decompose(Polynomial([0.0, 1.0]))
    assert d.f1.is_zero() and d.f2.is_zero() and d.g2.is_zero()
    assert d.g1.coeffs == (1.0,)
    assert d.residual <= 1e-12

    d = polya_szego_decompose(Polynomial([1.0, -2.0, 1.0]))
    assert d.f2.is_zero() and d.g1.is_zero() and d.g2.is_zero()
    assert np.allclose(d.f1.coeffs, [1.0, -1.0], atol=1e-9)

    d = polya_szego_decompose(Polynomial([1.0, 0.0, 0.0, 1.0]))
    assert d.residual <= 1e-6 * 1.0


def test_polya_szego_rejects_nonmember():
    with pytest.raises(NotNonnegative):
        polya_szego_decompose(Polynomial([1.0, -2.5, 1.0]))


def test_polya_szego_random_members():
    # members built directly from the target form, then decomposed again
    rng = np.random.default_rng(47)
    x = Polynomial([0.0, 1.0])
    for _ in range(40):
        f1 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 4))))
        f2 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 4))))
        g1 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 4))))
        p = (f1 * f1 + f2 * f2 + x * (g1 * g1)).trimmed()
        if p.is_zero():
            continue
        d = polya_szego_decompose(p)
        assert d.residual <= 1e-6 * max(abs(c) for c in p.coeffs)
        recon = d.reconstruct()
        for t in np.linspace(0.0, 3.0, 7):
            assert eval_scalar(recon, t) == pytest.approx(
                eval_scalar(p, t), rel=1e-6, abs=1e-6)
