"""Exact half-line oracle, rational witnesses, and the SOS construction."""

import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonnegcone.core import Polynomial, eval_scalar
from nonnegcone import exact, volume
from nonnegcone.exact import (
    NotNonnegative,
    RationalPolynomial,
    _bernstein_certifies,
    _integer_coeffs,
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


def _isolation_only(q: RationalPolynomial) -> bool:
    """The oracle with its Bernstein certificate switched off: root isolation
    alone decides."""
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
    certified = _bernstein_certifies(_integer_coeffs(q.coeffs))
    verdict = _isolation_only(q)
    assert verdict or not certified
    assert is_nonneg_on_halfline(q) == verdict
    if all(c >= 0 for c in coeffs):
        assert certified
    if scale == 1.0:
        assert _sympy_nonneg(coeffs) == verdict


def test_certificate_exact_at_extreme_magnitudes():
    for row in EXTREME_NON_MEMBERS:
        q = RationalPolynomial(row)
        assert not _bernstein_certifies(_integer_coeffs(q.coeffs))
        assert not is_nonneg_on_halfline(q)
        assert not is_nonneg_on_halfline(Polynomial(row))


def test_certificate_edge_cases():
    def certifies(*coeffs):
        return _bernstein_certifies(_integer_coeffs(rp(*coeffs).coeffs))
    assert certifies(1, -1.9, 1) and not certifies(1, -2.1, 1)
    assert certifies(0, 0, 0) and certifies(2) and not certifies(-2)
    assert certifies(-0.0, 0, 1) and certifies(0, 1, 0)
    # (x - 1)^2 touches zero at the dyadic y = 1/2, where one halving splits
    # it; (x - 2)^2 touches at y = 2/3, which no depth reaches
    assert certifies(1, -2, 1)
    assert not certifies(4, -4, 1) and is_nonneg_on_halfline(rp(4, -4, 1))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-20, 20) | st.just(-0.0),
                       min_size=1, max_size=9),
       scale=st.sampled_from([1.0, 1e300, 8e306, 1e-300, 2.0 ** -1074]))
@example(coeffs=[-0.0, 1, -2, 1], scale=1.0)    # -0.0 at a_0
@example(coeffs=[0, 0, 4, -4, 1], scale=1e300)  # zeros at a_0, a_1
@example(coeffs=[4, -4, 1, 0, -0.0], scale=2.0 ** -1074)  # trailing zeros
@example(coeffs=[1, -3, 3, -1], scale=1e-300)   # -(x - 1)^3
def test_float_rows_decided_as_their_rational_lift(coeffs, scale):
    row = [c * scale for c in coeffs]
    verdict = is_nonneg_on_halfline(Polynomial(row))
    assert verdict == is_nonneg_on_halfline(RationalPolynomial(row))
    if scale == 1.0:
        assert _sympy_nonneg(coeffs) == verdict


def test_integer_coeffs_keep_ratios():
    row = [0.1, -0.0, 2.0 ** -1074, -3.0, 1e300]
    ints = _integer_coeffs(row)
    assert all(isinstance(v, int) for v in ints)
    # one positive scale: every int is its coefficient times the same D
    scale = Fraction(ints[0]) / Fraction(row[0])
    assert scale > 0
    assert [Fraction(v) for v in ints] == [Fraction(c) * scale for c in row]
    assert _integer_coeffs([Fraction(1, 6), Fraction(-3, 4), 0]) == [2, -9, 0]


# the hostile entries of the volume grid test: subnormals, signed zeros and
# magnitudes near both ends of the float range, mixed within a row
HOSTILE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 1e-315, 0.0, -0.0, 1e-300, -1e300, 1e300])


def _power_of_two(r: Fraction) -> bool:
    return r > 0 and all(v & (v - 1) == 0
                         for v in (r.numerator, r.denominator))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=st.integers(1, 8).flatmap(lambda w: st.lists(
    st.lists(HOSTILE, min_size=w, max_size=w), min_size=1, max_size=4)))
@example(rows=[[5e-324, -5e-324, 0.0], [-0.0, 0.0, 1e-320]])
@example(rows=[[-0.0, -5e-324], [-5e-324, 1.0]])
@example(rows=[[0.0], [-0.0]])
@example(rows=[[1e300, -1e-300, 1e-315, 0.5]])
def test_integer_rows_match_integer_coeffs_up_to_a_power_of_two(rows):
    for row, ints in zip(rows, exact._integer_rows(np.array(rows))):
        assert all(type(v) is int for v in ints)
        ref = _integer_coeffs(row)
        assert [v == 0 for v in ints] == [v == 0 for v in ref]
        # one power of two per row, against the row and against ref
        for base in (row, ref):
            ratios = {Fraction(v) / Fraction(b) for v, b in zip(ints, base)
                      if b}
            assert len(ratios) <= 1 and all(map(_power_of_two, ratios))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_integer_rows_reject_non_finite_entries(bad):
    rows = np.array([[1.0, -1.0, 1.0], [0.5, 2.0, bad]])
    with pytest.raises(ValueError, match="finite"):
        exact._integer_rows(rows)


def test_certified_float_row_builds_no_fraction():
    never = mock.Mock(side_effect=AssertionError("Fraction built"))
    with mock.patch.object(exact, "Fraction", never):
        assert is_nonneg_on_halfline(Polynomial([1.0, -1.9, 1.0]))
        assert is_nonneg_on_halfline(Polynomial([0.0, 0.0, 2.0, -1.0, 1.0]))
        assert not is_nonneg_on_halfline(Polynomial([1.0, 0.0, -1.0]))
        assert not is_nonneg_on_halfline(Polynomial([0.0, -1.0, 1.0]))
        # rows the certificate leaves to root isolation, which works on ints
        assert is_nonneg_on_halfline(Polynomial([4.0, -4.0, 1.0]))  # (x-2)^2
        assert is_nonneg_on_halfline(Polynomial([4.0, 0.0, -4.0, 0.0, 1.0]))
        assert is_nonneg_on_halfline(Polynomial([4.0, 0.0, -3.0, 1.0]))
        assert not is_nonneg_on_halfline(Polynomial([1.0, -2.5, 1.0]))
        assert not is_nonneg_on_halfline(Polynomial([0.0, 0.0, -1.0, 1.0]))
        assert not is_nonneg_on_halfline(
            Polynomial([1e300, -3.0, 1e-300]))
    never.assert_not_called()


def _times(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(factors=st.lists(st.tuples(
           st.sampled_from([0, Fraction(1, 2), 1, 2, 3, -1]),
           st.integers(1, 4)), min_size=1, max_size=3),
       sqrt2_power=st.sampled_from([0, 2, 3]),
       scale=st.sampled_from([1.0, 1e300, 2.0 ** -1074]))
@example(factors=[(2, 2)], sqrt2_power=2, scale=1.0)
@example(factors=[(1, 1), (3, 1)], sqrt2_power=3, scale=2.0 ** -1074)
@example(factors=[(Fraction(1, 2), 4), (0, 3)], sqrt2_power=0, scale=1e300)
def test_isolation_decides_multiple_roots(factors, sqrt2_power, scale):
    """Products of (x - r)^m, times (x^2 - 2)^2 or ^3: root isolation alone
    decides as sympy does, and refutes with an exactly negative point; the
    discriminant test of degree <= 3 is switched off with the certificate."""
    coeffs = [Fraction(1)]
    for r, m in factors:
        for _ in range(m):
            coeffs = _times(coeffs, [-r, 1])
    for _ in range(sqrt2_power):
        coeffs = _times(coeffs, [-2, 0, 1])
    # a positive scale moves no root and no sign
    expected = _sympy_nonneg(coeffs)
    q = RationalPolynomial([c * Fraction(scale) for c in coeffs])
    assert is_nonneg_on_halfline(q) == expected
    with mock.patch.object(exact, "_bernstein_certifies",
                           return_value=False), \
            mock.patch.object(exact, "_low_degree_member", return_value=False):
        assert is_nonneg_on_halfline(q) == expected
        x0 = refute_halfline(q)
    if expected:
        assert x0 is None
    else:
        x = sympy.Symbol("x")
        poly = sympy.Poly([sympy.Rational(c) for c in reversed(q.coeffs)], x)
        assert x0 is not None and x0 >= 0
        assert poly.eval(sympy.Rational(x0.numerator, x0.denominator)) < 0


# ---------------------------------------------------------------------------
# rows of degree 2 and 3: the discriminant stage decides before any walk

_SMALL = st.integers(-20, 20)
_LOW_ROWS = st.one_of(
    st.lists(_SMALL, min_size=3, max_size=4),                  # random
    # (b x - a)^2, and (b x - a)^2 (e x + f) with f of either sign: a double
    # root at a / b
    st.builds(lambda a, b: _times([-a, b], [-a, b]),
              st.integers(-9, 9), st.integers(1, 5)),
    st.builds(lambda a, b, e, f: _times(_times([-a, b], [-a, b]), [f, e]),
              st.integers(-9, 9), st.integers(1, 5), st.integers(1, 5),
              st.integers(-9, 9)),
    # (b x - a)(b x - a - d) (e x + f): two roots d / b apart
    st.builds(lambda a, b, d, e, f: _times(_times([-a, b], [-a - d, b]),
                                           [f, e]),
              st.integers(-9, 9), st.integers(1, 5), st.integers(1, 3),
              st.integers(0, 5), st.integers(1, 9)),
    # a power of x stripped first, so q(0) may be negative
    st.lists(_SMALL, min_size=1, max_size=3).map(lambda r: [0] + r),
)


def _strip(c: list) -> list:
    """c without the power of x and without its top zeros."""
    while c and c[-1] == 0:
        c = c[:-1]
    while c and c[0] == 0:
        c = c[1:]
    return c


@settings(max_examples=400, derandomize=True, deadline=None)
@given(c=_LOW_ROWS, sign=st.sampled_from([1, -1]),
       scale=st.sampled_from([0, 80, -80, "coeffs"]))
@example(c=[0, -1, 0, 1], sign=1, scale=0)      # x (x^2 - 1), q(0) < 0
@example(c=[2, -3, 1], sign=1, scale=0)         # discriminant 1
@example(c=[4, -4, 1], sign=1, scale=80)        # (x - 2)^2 at 2^-79
@example(c=[4, 0, -3, 1], sign=1, scale=-80)    # (x - 2)^2 (x + 1) at 2^81
@example(c=[1, -3, 3, -1], sign=-1, scale="coeffs")
def test_low_degree_rows_decide_as_the_walk_and_sympy(c, sign, scale):
    """On integer rows of degree <= 3, with their roots moved by 2^-scale
    (c(2^scale x), made integer) or their coefficients times 2^80:
    _negative_int finds no point exactly when the walk on the stripped row
    finds none, and when sympy finds no positive root of odd multiplicity;
    rows with q(0) > 0 and discriminant <= 0 never reach the certificate
    or the walk, and those with a positive discriminant and a negative
    coefficient go to the walk without the certificate."""
    c = [int(v) for v in c]
    if scale == "coeffs":
        c = [sign * v << 80 for v in c]
    else:
        k = len(c) - 1
        c = [sign * v << (scale * i if scale >= 0 else -scale * (k - i))
             for i, v in enumerate(c)]
    q = _strip(c)
    member = _sympy_nonneg(c)
    walk_member = not q or exact._isolate(q) is None
    point = exact._negative_int(c)
    assert (point is None) is walk_member is member
    assert (exact._negative_int(c, settle=True) is None) is member
    if point is not None:
        assert exact._scaled_value(c, *point) < 0
    if len(q) in (3, 4) and q[0] > 0 and q[-1] > 0:
        x = sympy.Symbol("x")
        disc = sympy.discriminant(sympy.Poly(q[::-1], x))
        if disc <= 0:
            with mock.patch.object(
                    exact, "_bernstein_certifies",
                    side_effect=AssertionError("certified")), \
                    mock.patch.object(exact, "_walk",
                                      side_effect=AssertionError("walked")):
                assert exact._negative_int(c) is None
        elif min(q) < 0:
            with mock.patch.object(
                    exact, "_bernstein_certifies",
                    side_effect=AssertionError("certified")):
                assert exact._negative_int(c) == exact._isolate(q) == point


@pytest.mark.parametrize("coeffs", [
    [1, 1], [1, -1, 1], [4, -4, 1], [1, 0, 0, 1], [4, 0, -3, 1],
    [0, 0, 1, -1, 1], [3, 2 ** 80, -1, 2 ** 200],
    # (x - 2^-40)^2 (x + 1) and (x - 2^40)^2, whose walks once went past
    # the settle depth (test_deep_walks_settle_at_a_critical_point)
    [2.0 ** -80, 2.0 ** -80 - 2.0 ** -39, 1.0 - 2.0 ** -39, 1.0],
    [2.0 ** 80, -2.0 ** 41, 1.0],
])
def test_low_degree_members_call_no_certificate_or_walk(coeffs):
    # q(0) > 0 after the strip, degree <= 3 and discriminant <= 0 (degree 1
    # needs none): x + 1, x^2 - x + 1, (x - 2)^2, x^3 + 1, (x - 2)^2 (x + 1),
    # x^2 (x^2 - x + 1), a cubic with one real root, and two double roots
    with mock.patch.object(exact, "_bernstein_certifies",
                           side_effect=AssertionError("certified")), \
            mock.patch.object(exact, "_walk",
                              side_effect=AssertionError("walked")):
        assert is_nonneg_on_halfline(RationalPolynomial(coeffs))
        assert refute_halfline(RationalPolynomial(coeffs)) is None


# int rows of degree 4 to 8: small, with zeros; near 2^200; and a double
# positive root a / b times a factor of degree 2 to 6, such as
# (x - 1)^2 (x^2 + 1), which touches 0 at x = 1, the first split point
_HIGH_ROWS = st.one_of(
    st.lists(_SMALL, min_size=5, max_size=9),
    st.lists(st.integers(-9, 9) | st.integers(2 ** 200 - 9, 2 ** 200 + 9)
             .map(lambda v: v * (-1) ** (v % 3)), min_size=5, max_size=9),
    st.builds(lambda a, b, f: [int(v) for v in _times(
                  _times([-a, b], [-a, b]), f)],
              st.integers(1, 9), st.integers(1, 5),
              st.lists(st.integers(-3, 9), min_size=3, max_size=7)),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=st.lists(_HIGH_ROWS, min_size=1, max_size=6),
       scale=st.sampled_from([0, 40, -40]))
@example(rows=[[1, -2, 2, -2, 1]], scale=0)     # (x - 1)^2 (x^2 + 1)
@example(rows=[[1, -2, 2, -2, 1], [1, -2, 2, 0, 1]], scale=40)
@example(rows=[[1, -2, 2, -2, 1], [1, 1, -1, 1, 1]], scale=-40)
@example(rows=[[2 ** 200, -2 ** 201, 2 ** 201, -2 ** 201, 2 ** 200]],
         scale=0)
def test_first_split_batch_certifies_as_the_per_row_split(rows, scale):
    """The oracle rows of degree >= 4, their roots moved by 2^-scale: the
    batch proves a row with no zero coefficient exactly when per-row
    _halves of its _bernstein leaves both halves nonnegative, every row it
    proves is a member, by the oracle and (small rows) by sympy, and a row
    with a zero coefficient goes to the per-row oracle, not the batch."""
    k_rows = {}
    for r in rows:
        k = len(r) - 1
        r = [v << (scale * i if scale >= 0 else -scale * (k - i))
             for i, v in enumerate(r)]
        # the rows that reach the oracle: ends >= 0, a negative coefficient
        if r[0] >= 0 and r[-1] >= 0 and min(r) < 0:
            k_rows.setdefault(k, []).append(r)
    for k, group in k_rows.items():
        ints = np.array(group, dtype=object)
        whole = [r for r in group if 0 not in r]
        proved = exact._batch_members(
            np.array(whole, dtype=object).reshape(-1, k + 1)).tolist()
        for r, member in zip(whole, proved):
            left, right = exact._halves(exact._bernstein(r))
            assert member is (min(left + right) >= 0)
            if member:
                assert is_nonneg_on_halfline(RationalPolynomial(r))
                if max(map(abs, r)) < 2 ** 64:
                    assert _sympy_nonneg(r)
        with mock.patch.object(volume, "is_nonneg_on_halfline",
                               wraps=is_nonneg_on_halfline) as spy, \
                mock.patch.object(volume, "_batch_members",
                                  wraps=exact._batch_members) as batch:
            stage = volume._oracle_stages(ints.astype(float), ints, k)
        assert [r for c in batch.call_args_list
                for r in c.args[0].tolist()] == whole
        unproved = iter(not member for member in proved)
        assert [c.args[1] for c in spy.call_args_list] == \
            [r for r in group if 0 in r or next(unproved)]
        assert (stage == volume._ORACLE_INSIDE).tolist() == \
            [is_nonneg_on_halfline(RationalPolynomial(r)) for r in group]


def _squarefree_by_sequence(q: list) -> list:
    with mock.patch.object(exact, "_coprime_mod_p", return_value=False):
        return exact._squarefree(q)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(factors=st.lists(st.tuples(
           st.lists(st.integers(-9, 9), min_size=2, max_size=4)
           .filter(lambda f: f[-1] != 0),
           st.integers(1, 3)), min_size=1, max_size=4))
def test_squarefree_check_agrees_with_the_remainder_sequence(factors):
    """Products of random integer factors, some repeated: the modular check
    proves square-free exactly the products that are, and then q is the
    sequence's answer up to sign; q and -q walk the same points."""
    q = [1]
    for f, m in factors:
        for _ in range(m):
            q = [int(v) for v in _times(q, f)]
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(q)), x)
    squarefree = sympy.degree(sympy.sqf_part(poly), x) == len(q) - 1
    assert exact._coprime_mod_p(q) == squarefree
    fast, ref = exact._squarefree(q), _squarefree_by_sequence(q)
    if squarefree:
        assert fast == q and ref in (q, [-v for v in q])
    else:
        assert fast == ref
    if q[0]:
        assert list(exact._walk(q)) == list(exact._walk([-v for v in q]))


def test_cell_polynomial_needs_no_remainder_sequence():
    # a k = 6 order-2 member from a seed-1 sample (rounded): the modular
    # check proves its cell polynomial square-free, so _h_cells finds the
    # same cells with no pseudo-remainder; on 53-bit rows the sequence over
    # Z took seconds
    h = exact._order2_h([3, 3, 32, -17, -6, 31, 10])
    with mock.patch.object(exact, "_prem", side_effect=AssertionError("prem")):
        fast = exact._h_cells(h)
    assert fast is None
    with mock.patch.object(exact, "_coprime_mod_p", return_value=False):
        assert exact._h_cells(h) is None


def test_refute_far_dip():
    # negative only on about (4e299, 3e300), under a root bound of 1e600
    q = rp(1e300, -3, 1e-300)
    x0 = refute_halfline(q)
    assert x0 is not None and x0 > 0 and q(x0) < 0


def test_refute_checks_its_point_under_optimize():
    # python -O strips assert statements; the check of the point must stay
    code = "\n".join([
        "from unittest import mock",
        "from nonnegcone import exact",
        "assert False, 'assert statements ran'",
        "q = exact.RationalPolynomial([1, -3, 1])",
        "with mock.patch.object(exact, '_isolate', return_value=(0, 1)):",
        "    try:",
        "        exact.refute_halfline(q)",
        "    except ArithmeticError as e:",
        "        print(type(e).__name__, e)",
    ])
    # the package the test imported, not an installed one
    src = os.path.dirname(os.path.dirname(os.path.abspath(exact.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ArithmeticError refute_halfline: p(0)")


def test_oracle_has_no_capped_loop_or_assertion():
    assert "AssertionError" not in inspect.getsource(exact)
    for f in (exact._negative_point, exact._isolate, exact.refute_halfline):
        body = inspect.getsource(f)
        assert "range(" not in body and "assert " not in body


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_oracle_rejects_non_finite_coefficients(bad, where):
    row = [1.0, -1.0, 1.0]
    row[where] = bad
    with pytest.raises(ValueError, match="finite"):
        is_nonneg_on_halfline(Polynomial(row))


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


@pytest.mark.parametrize("coeffs, member", [
    ([1.0, 1.0, -1e300, 1.0, 1.0], False),     # negative on (1e-150, 1e150)
    ([1.0, 1.0, -2.0 ** 70, 1.0, 1.0], False),
    ([1e300, -3.0, 1e-300], False),            # negative on (4e299, 3e300)
    # (x^2 - 2^-80)^2 and (x^2 - 2^80)^2: a double root at 2^-40 or 2^40, a
    # depth past the settle, where no critical point is negative (degree 4,
    # which the discriminant does not decide)
    ([2.0 ** -160, 0.0, -2.0 ** -79, 0.0, 1.0], True),
    ([2.0 ** 160, 0.0, -2.0 ** 81, 0.0, 1.0], True),
    # and a dip below zero between roots 2^-40 +- 2^-50
    ([2.0 ** -80 - 2.0 ** -100, -2.0 ** -39, 1.0], False),
])
def test_deep_walks_settle_at_a_critical_point(coeffs, member):
    # the boolean oracle decides as the walk alone does; refute_halfline
    # never tries the critical points, so its point stays the walk's
    p = Polynomial(coeffs)
    with mock.patch.object(exact, "_critical_points",
                           wraps=exact._critical_points) as spy:
        assert is_nonneg_on_halfline(p) is member
    assert spy.call_count == 1
    with mock.patch.object(exact, "_critical_points",
                           side_effect=AssertionError("settled")):
        x0 = refute_halfline(RationalPolynomial.from_polynomial(p))
    assert (x0 is None) is member


def test_shallow_walks_never_settle():
    # rows that root isolation decides within a few halvings, as sampled
    # volume rows do, pay nothing for the settle
    with mock.patch.object(exact, "_critical_points",
                           side_effect=AssertionError("settled")):
        for row in ([4.0, -4.0, 1.0], [4.0, 0.0, -3.0, 1.0],
                    [1.0, -2.5, 1.0], [1.0, 1.0, -2.5, 1.0, 1.0]):
            is_nonneg_on_halfline(Polynomial(row))
            exact.is_order2_member(Polynomial(row))


# ---------------------------------------------------------------------------
# the integer Bernstein kernels, pinned against a Fraction de Casteljau
# written here: neighbour averages, with no scaling


def _casteljau(b):
    """The Bernstein coefficients of both halves of a leaf b, in Fractions."""
    level = [Fraction(v) for v in b]
    left, right = [level[0]], [level[-1]]
    while len(level) > 1:
        level = [(u + v) / 2 for u, v in zip(level, level[1:])]
        left.append(level[0])
        right.append(level[-1])
    return left, right[::-1]


def _bernstein_value(b, t):
    """The value at t of the polynomial with Bernstein coefficients b."""
    level = [Fraction(v) for v in b]
    while len(level) > 1:
        level = [(1 - t) * u + t * v for u, v in zip(level, level[1:])]
    return level[0]


def _scaled(xs, scale):
    return [scale * x for x in xs]


def _all_ints(rows):
    return all(type(v) is int for row in rows for v in row)


# signed ints up to 2^1100, with zeros
_ENTRIES = st.integers(-2 ** 1100, 2 ** 1100) | st.integers(-9, 9) | st.just(0)
_ROWS = st.lists(_ENTRIES, min_size=1, max_size=9)
_TENSORS = st.integers(1, 9).flatmap(lambda w: st.lists(
    st.lists(_ENTRIES, min_size=w, max_size=w), min_size=1, max_size=9))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(b=_ROWS)
@example(b=[7])                                 # a leaf of one coefficient
@example(b=[0] * 9)
@example(b=[-2 ** 1100, 0, 0, 2 ** 1100])
def test_halves_match_a_fraction_casteljau(b):
    left, right = exact._halves(b)
    assert _all_ints([left, right])
    scale = 2 ** (len(b) - 1)
    assert [left, right] == [_scaled(h, scale) for h in _casteljau(b)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(q=_ROWS)
@example(q=[-3])
@example(q=[0, 2 ** 1100, 0, -1])
def test_bernstein_matches_the_power_form(q):
    # (1 - t)^k q(t / (1 - t)) = sum_j q_j t^j (1 - t)^(k - j), and k + 1
    # distinct values pin a polynomial of degree k
    k = len(q) - 1
    b = exact._bernstein(q)
    assert _all_ints([b]) and len(b) == k + 1
    scale = math.lcm(*(math.comb(k, j) for j in range(k + 1)))
    for t in (Fraction(i, k + 2) for i in range(k + 1)):
        value = sum(c * t ** j * (1 - t) ** (k - j) for j, c in enumerate(q))
        assert _bernstein_value(b, t) == scale * value


@settings(max_examples=100, derandomize=True, deadline=None)
@given(h=_TENSORS)
@example(h=[[5]])
@example(h=[[0, -1], [2 ** 1100, 0]])
def test_bernstein2_matches_the_power_form(h):
    # the tensor form: de Casteljau in u along each row, then in s, on a
    # grid of (dx + 1) (du + 1) points, which pins it
    dx, du = len(h) - 1, len(h[0]) - 1
    b = exact._bernstein2(h)
    assert _all_ints(b) and [len(r) for r in b] == [du + 1] * (dx + 1)
    scale = math.lcm(*(math.comb(dx, i) for i in range(dx + 1))) \
        * math.lcm(*(math.comb(du, j) for j in range(du + 1)))
    for u in (Fraction(j, du + 2) for j in range(du + 1)):
        along_u = [_bernstein_value(row, u) for row in b]
        rows_at_u = [sum(c * u ** j for j, c in enumerate(row)) for row in h]
        for s in (Fraction(i, dx + 2) for i in range(dx + 1)):
            value = sum(c * s ** i * (1 - s) ** (dx - i)
                        for i, c in enumerate(rows_at_u))
            assert _bernstein_value(along_u, s) == scale * value


@settings(max_examples=100, derandomize=True, deadline=None)
@given(b=_TENSORS)
@example(b=[[5]])
@example(b=[[0, 0, 0]])
@example(b=[[1], [-2 ** 1100], [0]])
def test_quarters_match_a_fraction_casteljau(b):
    ks, ku = len(b) - 1, len(b[0]) - 1
    quarters = exact._quarters(b)
    assert [q[:2] for q in quarters] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    halves_u = [_casteljau(row) for row in b]
    for ds, du, q in quarters:
        cols = [_casteljau(col) for col in zip(*(h[du] for h in halves_u))]
        want = [_scaled(row, 2 ** (ks + ku))
                for row in zip(*(c[ds] for c in cols))]
        assert _all_ints(q) and q == want


def _certifies_by_levels(q):
    """The certificate as a breadth-first loop over whole levels of leaves,
    each halving shifted left k bits first so every average is exact."""
    def halves(b):
        k = len(b) - 1
        b = [v << k for v in b]
        left, right = [b[0]], [b[-1]]
        for _ in range(k):
            b = [(u + v) >> 1 for u, v in zip(b, b[1:])]
            left.append(b[0])
            right.append(b[-1])
        return left, right[::-1]

    leaves = [exact._bernstein(q)]
    depth = 0
    while True:
        open_ = [b for b in leaves if min(b) < 0]
        if not open_:
            return True
        if depth == exact._CERT_DEPTH or any(b[0] < 0 or b[-1] < 0
                                             for b in open_):
            return False
        leaves = [half for b in open_ for half in halves(b)]
        depth += 1


@settings(max_examples=400, derandomize=True, deadline=None)
@given(q=st.lists(st.integers(-40, 40), min_size=1, max_size=9),
       shift=st.sampled_from([0, 1100]))
@example(q=[1, -2, 1], shift=0)           # touches zero at y = 1/2
@example(q=[4, -4, 1], shift=0)           # touches at y = 2/3: depth 8
@example(q=[100, -199, 100], shift=0)     # a near-double root
@example(q=[8193, -8192, 2048], shift=0)  # (x - 2)^2 + 2^-11: depth 8
@example(q=[32769, -32768, 8192], shift=0)  # (x - 2)^2 + 2^-13: depth 9
@example(q=[1, -3, 3, -1], shift=1100)
@example(q=[-2], shift=0)
@example(q=[0, 0], shift=0)
def test_certificate_decides_as_a_level_by_level_loop(q, shift):
    q = [v << shift for v in q]
    assert _bernstein_certifies(q) == _certifies_by_levels(q)
