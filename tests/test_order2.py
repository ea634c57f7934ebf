"""The exact decision of the order-2 cone: exact.is_order2_member and the
counterexample matrix of every rejection."""

import math
from fractions import Fraction
from unittest import mock

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonnegcone import exact, volume
from nonnegcone.core import Polynomial
from nonnegcone.exact import (RationalPolynomial, is_nonneg_on_halfline,
                              is_order2_member, order2_counterexample)
from nonnegcone.membership import Refuted, SearchConfig, refute
from test_acceptance import _power_sum_entry, _sympy_order2_member


def _image(coeffs, A):
    """p(A) in stdlib Fractions, summing explicit powers of A by plain
    matrix products: nothing from the package."""
    power = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    out = [[Fraction(0)] * 2 for _ in range(2)]
    for c in coeffs:
        out = [[out[i][j] + Fraction(c) * power[i][j] for j in range(2)]
               for i in range(2)]
        power = [[sum(power[i][k] * A[k][j] for k in range(2))
                  for j in range(2)] for i in range(2)]
    return out


def _assert_counterexample(coeffs):
    """The rejection of coeffs comes with a nonnegative rational matrix A
    and an entry (i, j) that is negative in p(A)."""
    A, i, j = order2_counterexample(Polynomial(coeffs))
    assert all(isinstance(v, Fraction) and v >= 0 for row in A for v in row)
    assert _image(coeffs, A)[i][j] < 0
    return A, i, j


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
    # the decision alone gives the answer the counterexample search gives
    assert member == (order2_counterexample(p) is None)
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


@pytest.mark.parametrize("coeffs", [[1, 1, -2, 1, 1], H_REJECTED[0]])
def test_a_wrong_h_point_raises(coeffs):
    # both pass the one-variable conditions, and H(1, 1/2) >= 0 for both
    # (the Loewy member L_2, and a row whose H is negative elsewhere), so a
    # decision that offered that point would be wrong: the exact re-check
    # raises instead of answering
    c = exact._integer_coeffs(coeffs)
    h = exact._order2_h(c)
    point = (Fraction(1), Fraction(1, 2))
    assert exact._eval_frac([exact._eval_frac(r, point[1]) for r in h],
                            point[0]) >= 0
    with mock.patch.object(exact, "_order2_h_point", return_value=point):
        with pytest.raises(ArithmeticError, match="not negative"):
            is_order2_member(Polynomial(coeffs))
        with pytest.raises(ArithmeticError, match="not negative"):
            order2_counterexample(Polynomial(coeffs))


# a row whose p', odd or even part, of degree 3, has both ends positive and
# a positive discriminant, so that it is the condition that fails, with the
# matrix and entry order2_counterexample gives for it
DISCRIMINANT_REJECTED = [
    ("p'", [1, 1, -3, -4, 2], ([[(1, 7), (1, 1)], [(0, 1), (1, 7)]], 0, 1)),
    ("odd", [4, 4, -1, -4, 3, -3, 3, 1],
     ([[(0, 1), (1, 1)], [(1, 1), (0, 1)]], 0, 1)),
    ("even", [1, 3, -4, 4, 2], ([[(0, 1), (1, 1)], [(1, 3), (0, 1)]], 0, 0)),
]


@pytest.mark.parametrize("cond, coeffs, matrix", DISCRIMINANT_REJECTED)
def test_discriminant_rejections_isolate_nothing(cond, coeffs, matrix):
    # the yes/no answers need no point, so no root isolation runs; the
    # counterexample still isolates the condition's point
    c = exact._integer_coeffs(coeffs)
    f = {"p'": exact._deriv(c), "odd": c[1::2], "even": c[0::2]}[cond]
    with mock.patch.object(exact, "_isolate",
                           side_effect=AssertionError("isolated")):
        assert is_order2_member(Polynomial(coeffs)) is False
        assert is_nonneg_on_halfline(RationalPolynomial(f)) is False
    assert exact._order2_failure(Polynomial(coeffs), settle=False)[1][0] \
        == cond
    rows, i, j = matrix
    A = [[Fraction(*v) for v in row] for row in rows]
    assert _assert_counterexample(coeffs) == (A, i, j)
    # the package's exact evaluator agrees with the explicit powers
    image = _image(coeffs, A)
    assert [[exact._entry(coeffs, A, r, c) for c in range(2)]
            for r in range(2)] == image


def _h_point_of(A):
    """(x, u) of A = [[0, 1], [u x^2, x (1 - u)]], the matrix of an H
    rejection: x is the positive root of x^2 - A11 x - A10 = 0."""
    assert A[0] == [0, 1]
    disc = A[1][1] ** 2 + 4 * A[1][0]
    root = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    assert root * root == disc
    x = (A[1][1] + root) / 2
    return x, 1 - A[1][1] / x


@pytest.mark.parametrize("coeffs", [
    [-1, 5, 5], [1, 1, -3, -4, 2], [4, 4, -1, -4, 3, -3, 3, 1],
    [1, 3, -4, 4, 2], H_REJECTED[6]])
def test_matrix_is_the_closed_form_at_the_failed_point(coeffs):
    # each condition's matrix sits at the very point the decision found: 0
    # for c_0 < 0, t I + N for p'(t) < 0, [[0, 1], [z, 0]] for the odd and
    # even parts at z, and [[0, 1], [u x^2, x (1 - u)]] for an interior
    # point (x, u) of H
    cond, point = exact._order2_failure(Polynomial(coeffs), settle=False)[1]
    zero, one = Fraction(0), Fraction(1)
    if cond == "H":
        x, u = point
        assert x > 0 and 0 < u < 1
        want = [[zero, one], [u * x * x, x * (1 - u)]], 0, 0
    else:
        t = Fraction(*point)
        want = {"p": ([[zero, zero], [zero, zero]], 0, 0),
                "p'": ([[t, one], [zero, t]], 0, 1),
                "odd": ([[zero, one], [t, zero]], 0, 1),
                "even": ([[zero, one], [t, zero]], 0, 0)}[cond]
    assert _assert_counterexample(coeffs) == want


@pytest.mark.parametrize("coeffs", H_REJECTED[:6])
def test_h_edge_points_step_inside(coeffs):
    # these rows fail H on its u = 0 edge, where the factors _order2_h
    # strips vanish and the matrix at the point itself has no negative
    # entry: the matrix is taken at a point stepped inward, x > 0 and
    # 0 < u < 1
    cond, (x0, u0) = exact._order2_failure(Polynomial(coeffs),
                                           settle=False)[1]
    assert cond == "H" and u0 == 0
    A, i, j = _assert_counterexample(coeffs)
    x, u = _h_point_of(A)
    assert (i, j) == (0, 0) and x > 0 and 0 < u < 1


@pytest.mark.parametrize("coeffs", [[1, 1, -1, 1, 1], [1, 1, -2, 1, 1]])
def test_h_members_proved_by_halves_in_x(coeffs):
    # H of these members, L_2 among them, has a negative Bernstein
    # coefficient that halving in s (that is, x) removes: no leaf is halved
    # in u, and the cylindrical decomposition never runs
    with mock.patch.object(exact, "_tensor_halves",
                           wraps=exact._tensor_halves) as spy, \
            mock.patch.object(exact, "_h_cells",
                              side_effect=AssertionError("cells")):
        assert is_order2_member(Polynomial(coeffs)) is True
    assert spy.call_count and all(call.args[1] for call in spy.call_args_list)


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


def _by_four_halfline_conditions(coeffs):
    """The decision with p itself tested by the half-line oracle, before p',
    the odd and the even part, then H; None when H is undecided."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return True
    if any(exact._negative_int(f)
           for f in (c, exact._deriv(c), c[1::2], c[0::2])):
        return False
    try:
        return exact._order2_h_point(exact._order2_h(c)) is None
    except exact.Order2Undecided:
        return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=8))
@example(coeffs=[1, -3, 1, 1])      # p < 0 near 1 with p(0) > 0: p' fails
@example(coeffs=[0, 0, -1, 1])      # p(0) = 0, p < 0 on (0, 1)
@example(coeffs=[-1, 5, 5])
def test_sign_of_p0_stands_for_the_halfline_test_of_p(coeffs):
    # p(x) = c_0 + int_0^x p', so p >= 0 on [0, infinity) once c_0 >= 0 and
    # p' >= 0 there: the decision is unchanged, and only c_0 < 0 fails as p
    p = RationalPolynomial(coeffs)
    member = is_order2_member(p)
    assert member == _by_four_halfline_conditions(coeffs)
    if member is None:
        return
    failed = exact._order2_failure(p, settle=False)[1]
    assert (failed is not None and failed[0] == "p") == (coeffs[0] < 0)
    if not member:
        _assert_counterexample(coeffs)


@st.composite
def _int_rows(draw):
    """(coeffs, small): an integer row of degree 2 to 8, lowest degree
    first, and whether sympy decides it quickly. Either small entries with
    zeros, mostly positive; or a row whose p' or even part (the conditions
    with an interior minimum) has a double positive root a / b, or two
    roots a / b and a / b + 2^-e / b, times a positive factor. Its roots
    may be moved by 2^80 or 2^-80 (c_i 2^(80 (k - i)) or c_i 2^(80 i)), and
    its coefficients scaled by 2^80 or 2^-80, as Fractions."""
    kind = draw(st.sampled_from(["small", "p'", "even"]))
    entry = st.integers(0, 4)
    if kind == "small":
        c = draw(st.lists(st.integers(-3, 6), min_size=3, max_size=9))
    else:
        a, b = draw(st.integers(1, 8)), draw(st.integers(1, 3))
        e = draw(st.sampled_from([0, 8, 20, 40]))
        f = exact._mul(exact._mul([-a, b], [-(a << e) - (e > 0), b << e]),
                       [1 + draw(entry)] + draw(st.lists(entry, max_size=2)))
        if kind == "even":
            odd = draw(st.lists(entry, min_size=len(f) - 1,
                                max_size=len(f) - 1))
            c = [v for pair in zip(f, odd) for v in pair] + [f[-1]]
        else:                           # p = c_0 + int_0^x f, times lcm
            lcm = math.lcm(*range(1, len(f) + 1))
            c = [draw(entry) * lcm] + [v * lcm // (i + 1)
                                       for i, v in enumerate(f)]
    while c and c[-1] == 0:
        c.pop()
    assume(len(c) >= 3)
    k = len(c) - 1
    move = draw(st.sampled_from([0, 80, -80]))
    if move:
        c = [v << (move * i if move > 0 else -move * (k - i))
             for i, v in enumerate(c)]
    scale = draw(st.sampled_from([1, Fraction(1, 2 ** 80), 2 ** 80]))
    small = kind == "small" and k <= 4 and move == 0
    return [Fraction(v * scale) for v in c], small


@settings(max_examples=200, derandomize=True, deadline=None)
@given(row=_int_rows())
@example(row=([1, 1, -2, 1, 1], True))         # L_2, on the cone's boundary
@example(row=([0, 1, 0, -2, 4, 4], False))     # rejected by H alone
@example(row=([4, -4, 1], True))               # (x - 2)^2
@example(row=([4, 4, -1, -4, 3, -3, 3, 1], False))  # rejected by odd
def test_yes_no_decision_matches_the_counterexample(row):
    # the yes/no decision is order2_counterexample's, None exactly where
    # that raises Order2Undecided, and every matrix it gives is nonnegative
    # with a negative entry in p(A), re-checked in Fractions; small rows
    # agree with sympy
    coeffs, small = row
    p = RationalPolynomial(coeffs)
    member = is_order2_member(p)
    try:
        found = order2_counterexample(p)
    except exact.Order2Undecided:
        assert member is None
        return
    assert member is (found is None)
    if found is not None:
        A, i, j = found
        assert min(map(min, A)) >= 0
        assert _power_sum_entry(coeffs, A, i, j) < 0
    if small:
        assert member == _sympy_order2_member(coeffs)
