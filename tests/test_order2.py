"""The exact decision of the order-2 cone: exact.is_order2_member and the
counterexample matrix of every rejection."""

import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonnegcone import exact, volume
from nonnegcone.core import Polynomial
from nonnegcone.exact import (RationalPolynomial, is_nonneg_on_halfline,
                              is_order2_member, order2_counterexample)
from nonnegcone.membership import Refuted, SearchConfig, refute


def _image(coeffs, x, y, a):
    """A = [[a, 1], [a (x + y - a) - x y, x + y - a]] and p(A), in stdlib
    Fractions by plain matrix products: nothing from the package."""
    A = [[a, Fraction(1)], [a * (x + y - a) - x * y, x + y - a]]
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    out = [[Fraction(0)] * 2 for _ in range(2)]
    for c in coeffs:
        out = [[out[i][j] + Fraction(c) * power[i][j] for j in range(2)]
               for i in range(2)]
        power = [[sum(power[i][k] * A[k][j] for k in range(2))
                  for j in range(2)] for i in range(2)]
    return A, out


def _assert_counterexample(coeffs):
    """The rejection of coeffs comes with a positive rational matrix with
    eigenvalues x > |y| whose image has a negative entry."""
    x, y, a = order2_counterexample(Polynomial(coeffs))
    A, image = _image(coeffs, x, y, a)
    assert x > abs(y)
    assert min(map(min, A)) > 0
    assert A[0][0] + A[1][1] == x + y
    assert A[0][0] * A[1][1] - A[0][1] * A[1][0] == x * y
    assert min(map(min, image)) < 0


def _searched_rows(k: int, total: int, seed: int) -> list:
    """The rows of a seeded n = 2 estimate that pass the sign stage and the
    half-line oracle with some negative coefficient: the rows the order-2
    decision gets."""
    _, rows = next(volume._ball_chunks(k + 1, total, seed))
    return [r for r in rows
            if (r[:2] >= 0).all() and (r[k - 1:] >= 0).all()
            and (r < 0).any() and is_nonneg_on_halfline(Polynomial(r))]


@pytest.mark.parametrize("k", [4, 5, 6])
def test_accepted_rows_survive_a_long_search(k):
    accepted = rejected = 0
    for i, r in enumerate(_searched_rows(k, 1500, k)):
        if is_order2_member(Polynomial(r)):
            accepted += 1
            cfg = SearchConfig(restarts=20, max_iters=120, seed=i)
            assert not isinstance(refute(Polynomial(r), 2, cfg), Refuted), \
                r.tolist()
        else:
            rejected += 1
            _assert_counterexample(r.tolist())
    assert accepted > 10 and rejected > 10


def test_the_search_misses_a_rejected_row():
    # a row of the seed-4 volume-search benchmark: the benchmark's 3-restart
    # search misses it, a 20-restart search refutes it, and the decision
    # rejects it
    row = [0.31374233410454316, 0.816012003536631, -0.2460630622219427,
           0.4015034063775171, 0.047902845179613]
    p = Polynomial(row)
    assert is_order2_member(p) is False
    _assert_counterexample(row)
    seed = 10315424429527281990
    assert not isinstance(refute(p, 2, SearchConfig(3, 120, seed=seed)),
                          Refuted)
    found = refute(p, 2, SearchConfig(20, 120, seed=seed))
    assert isinstance(found, Refuted)
    assert found.witness.value == pytest.approx(-0.00225, abs=1e-5)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=7),
       shift=st.integers(0, 2),
       scale=st.sampled_from([1.0, 2.0 ** 996, 2.0 ** -996]))
@example(coeffs=[1, 0, -2, 0, 1], shift=0, scale=1.0)
@example(coeffs=[0, 1, -1], shift=0, scale=1.0)
@example(coeffs=[1, 2, -2, 0, 1], shift=1, scale=2.0 ** -996)
@example(coeffs=[0, 1, 0, -1, 0, 1], shift=0, scale=2.0 ** 996)
def test_decision_properties(coeffs, shift, scale):
    # c_0 = 0 and x-power factors through shift, degree <= 1 through short
    # lists, magnitudes near 1e300 and 1e-300 through exact power-of-two
    # scales
    coeffs = [0] * shift + coeffs
    p = Polynomial([scale * c for c in coeffs])
    member = is_order2_member(p)
    assert member is not None
    assert member == is_order2_member(RationalPolynomial(coeffs))
    if len(coeffs) <= 2:
        assert member == (min(coeffs) >= 0)
    if min(coeffs) >= 0:
        assert member
    # the cylindrical decomposition alone decides as the certificate does
    with mock.patch.object(exact, "_h_certificate", return_value=None):
        assert is_order2_member(p) == member
    if member:
        # the cone is closed under multiplication by x, and no search
        # refutes a member
        assert is_order2_member(Polynomial([0.0] + list(p.coeffs)))
        cfg = SearchConfig(restarts=2, max_iters=60, seed=len(coeffs))
        assert not isinstance(refute(p, 2, cfg), Refuted)
    else:
        _assert_counterexample(p.coeffs)


# rows that pass p, p', the odd and the even part, so that only H rejects
# them: small integer rows with c_0 = 0, and two sampled k = 5 rows
H_REJECTED = [
    [0, 1, 0, -2, 4, 4], [0, 4, 1, -3, 0, 2], [0, 2, 0, -1, 1, 3],
    [0, 4, 3, -3, -3, 2, 1], [0, 3, 1, -4, 2, 4], [0, 4, 0, -4, 3, 1, 3],
    [0.09521410900868521, 0.5215760173026622, -0.393157604062858,
     -0.28753826664043547, 0.45886238135939894, 0.05092499183720926],
    [0.05891556724034979, 0.40836682277104497, -0.39085594102320065,
     -0.3807746730554524, 0.6729508480717621, 0.17349903058749547],
]


@pytest.mark.parametrize("coeffs", H_REJECTED)
def test_rejections_by_h(coeffs):
    c = exact._integer_coeffs(coeffs)
    assert not any(exact._negative_int(q)
                   for q in (c, exact._deriv(c), c[1::2], c[0::2]))
    assert is_order2_member(Polynomial(coeffs)) is False
    _assert_counterexample(coeffs)
    # the cylindrical decomposition finds the negative cell on its own
    with mock.patch.object(exact, "_h_certificate", return_value=None):
        assert is_order2_member(Polynomial(coeffs)) is False


def test_non_finite_coefficients_are_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            is_order2_member(Polynomial([1.0, bad, 1.0]))


def test_repeated_factor_in_u_is_undecided():
    # a repeated factor in u makes Res_u(H, H_u) vanish identically, and
    # the cylindrical decomposition says so instead of deciding
    h = [[1, -4, 4], [0, 0, 0], [1, -4, 4]]     # (1 + x^2) (1 - 2u)^2
    with pytest.raises(exact.Order2Undecided):
        exact._h_cells(h)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(roots=st.lists(st.fractions(0, 8, max_denominator=6), min_size=0,
                      max_size=5),
       lead=st.integers(1, 3))
def test_walk_visits_every_cell(roots, lead):
    # q = lead * prod (x - r), q(0) != 0: every point of the walk is off
    # the roots and counts the roots below it, and every cell has a point
    roots = [r for r in roots if r]
    q = [lead]
    for r in roots:
        q = exact._mul(q, [-r.numerator, r.denominator])
    distinct = sorted(set(roots))
    cells = set()
    for a, b, cell in exact._walk(q):
        x = Fraction(a, b)
        assert x > 0 and x not in distinct
        assert cell == sum(r < x for r in distinct)
        cells.add(cell)
    assert cells == set(range(len(distinct) + 1))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(f=st.lists(st.integers(-9, 9), min_size=2, max_size=6),
       g=st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_resultant_and_interpolation_match_sympy(f, g):
    x = sp.symbols("x")
    if f[-1] == 0 or g[-1] == 0:
        return
    want = sp.resultant(sp.Poly(f[::-1], x), sp.Poly(g[::-1], x))
    assert abs(exact._resultant(f, g)) == abs(want)
    values = [sum(c * t ** i for i, c in enumerate(f)) for t in range(8)]
    assert exact._interpolate(values)[:len(f)] == f
    assert not any(exact._interpolate(values)[len(f):])
