"""Refutation search, witness confirmation, bisection utilities."""

import json
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from nonnegcone import exact, membership
from nonnegcone.core import (BeyondFloatRange, Polynomial, eval_matrix,
                             min_entry, sample_stochastic)
from nonnegcone.exact import (
    RationalPolynomial,
    is_nonneg_on_halfline,
    is_order2_member,
    loewy_certificate,
    refute_halfline,
)
from nonnegcone.families import loewy_general, necessary_conditions
from nonnegcone.membership import (
    BadBracket,
    ExactMember,
    NoRefutationFound,
    NoUpperRefutation,
    Refuted,
    SearchConfig,
    NoFloatWitness,
    TraceResult,
    Witness,
    _exact_entry,
    _lockstep,
    _monotone_witness,
    _probe_candidates,
    _restart_start,
    _unpack,
    boundary_offset,
    confirm_witness,
    max_t,
    prepare,
    refute,
    trace_slice,
    verdict_to_json,
)

CFG = SearchConfig(restarts=8, max_iters=150, seed=3)


def loewy22(t: float) -> Polynomial:
    return Polynomial([1.0, 1.0, -t, 1.0, 1.0])


def test_refute_scalar_cases():
    v = refute(Polynomial([1.0, -2.1, 1.0]), 1, CFG)
    assert isinstance(v, Refuted)
    w = v.witness
    assert w.rho > 0 and w.value < -CFG.confirm_tol
    q = RationalPolynomial.from_polynomial(Polynomial([1.0, -2.1, 1.0]))
    assert q(Fraction(w.rho)) < 0
    assert isinstance(refute(Polynomial([1.0, -2.0, 1.0]), 1, CFG), ExactMember)
    # negative constant: witness must still have rho > 0
    v = refute(Polynomial([-1.0]), 1, CFG)
    assert isinstance(v, Refuted) and v.witness.rho > 0
    # the oracle's point sits just below the upper root of a narrow dip
    p = Polynomial([1.0, -2.000000238418579, 1.0])
    v = refute(p, 1, CFG)
    assert isinstance(v, Refuted)
    assert confirm_witness(p, v.witness, CFG.confirm_tol)


def test_refute_monomial_never():
    v = refute(Polynomial([0.0, 0.0, 0.0, 1.0]), 2, CFG)
    assert isinstance(v, NoRefutationFound)
    assert v.best >= -CFG.confirm_tol


def test_refute_sharp_family():
    v = refute(loewy22(2.1), 2, CFG)
    assert isinstance(v, Refuted)
    assert confirm_witness(loewy22(2.1), v.witness, CFG.confirm_tol)
    v = refute(loewy22(2.0), 2, CFG)
    assert isinstance(v, NoRefutationFound)


def test_decrease_beyond_the_rho_clip_is_refuted():
    # q(y) = 1 + y - 2 y^2 + y^3 = 1 + y (1 - y)^2 is positive on the half
    # line but decreases on (1/3, 1), so p(x) = q(x / 2^20) decreases only
    # far beyond the search's largest rho, e^10
    a = 2.0 ** -20
    p = Polynomial([1.0, a, -2.0 * a * a, a ** 3])
    cfg = SearchConfig(restarts=4, seed=0)
    v = refute(p, 2, cfg)
    assert isinstance(v, Refuted)
    assert v.witness.rho > np.exp(membership._RHO_LOG_RANGE[1])
    assert v.witness.value < -0.03
    assert confirm_witness(p, v.witness, cfg.confirm_tol)


def test_decrease_beyond_float_range_is_not_a_crash():
    # p' < 0 only beyond x = 5e599, where no float matrix reaches
    p = Polynomial([1.0, 1e300, -1e-300])
    assert _monotone_witness(p, 2, CFG) is None
    assert isinstance(refute(p, 2, SearchConfig(restarts=1)), NoRefutationFound)


def _sympy_decreasing(coeffs: list) -> bool:
    """p(0) < 0, or p' negative just right of 0 or at an odd sign change."""
    if coeffs[0] < 0:
        return True
    y = sympy.Symbol("y")
    dp = sympy.Poly(list(reversed(coeffs)), y).diff(y)
    if dp.is_zero:
        return False
    lowest = next(c for c in reversed(dp.all_coeffs()) if c != 0)
    return lowest < 0 or any(r > 0 and mult % 2 == 1
                             for r, mult in dp.real_roots(multiple=False))


def _sympy_entry(coeffs: list, w: Witness) -> sympy.Rational:
    """Entry (i, j) of p(rho * s), every float read as the rational it is."""
    def rat(v: float) -> sympy.Rational:
        return sympy.Rational(*float(v).as_integer_ratio())

    n = w.s.shape[0]
    a = sympy.Matrix(n, n, lambda i, j: rat(w.rho) * rat(w.s[i, j]))
    acc = sympy.zeros(n, n)
    for c in reversed(coeffs):
        acc = acc * a + c * sympy.eye(n)
    return acc[w.i, w.j]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=7),
       n=st.sampled_from([2, 3]))
def test_monotone_certificate_matches_sympy(coeffs, n):
    p = Polynomial(coeffs)
    assume(not p.is_zero())
    decreasing = _sympy_decreasing(coeffs)
    q = RationalPolynomial.from_polynomial(p)
    assert (p.coeffs[0] < 0 or
            refute_halfline(q.derivative()) is not None) == decreasing
    flags = necessary_conditions(p, n)
    assert (("low_coeff", 0) in flags or ("monotone", None) in flags) == \
        decreasing
    w = _monotone_witness(p, n, CFG)
    assert (w is not None) == decreasing
    if w is not None:
        assert _sympy_entry(coeffs, w) < 0
        assert np.all(w.s > 0)
    if decreasing:
        assert isinstance(refute(p, n, SearchConfig(restarts=1)), Refuted)


def test_large_genuine_witness_is_confirmed():
    # the float value -131132.0 is 3.6e-11 below the exact entry, more than
    # an absolute 1e-12 but well within 1e-12 of the value's size
    p = Polynomial([4, 6, -3, 5, -1, -1])
    w = _monotone_witness(p, 2, CFG)
    assert w is not None and w.value < -1e5
    assert _sympy_entry([4, 6, -3, 5, -1, -1], w) < 0


def test_witness_beyond_float_range_is_an_error():
    # p < 0 only beyond x = 1e600: proved, but no float rho reaches it
    with pytest.raises(NoFloatWitness):
        refute(Polynomial([1.0, 1e300, -1e-300]), 1, CFG)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6) | st.sampled_from(
           [1e300, -1e300, 1e-300, -1e-300, 1e-9, -1e-9]),
           min_size=1, max_size=6),
       n=st.sampled_from([1, 2, 3]))
@example(coeffs=[0, -1, 1e300], n=1)
@example(coeffs=[0, -1e-300, 1e300], n=1)
@example(coeffs=[1e300, -3, 1e-300], n=1)   # negative only on ~(4e299, 3e300)
def test_every_refuted_witness_confirms(coeffs, n):
    p = Polynomial(coeffs)
    assume(not p.is_zero())
    cfg = SearchConfig(restarts=2, max_iters=40, seed=1)
    try:
        v = refute(p, n, cfg)
    except NoFloatWitness:
        assert n == 1
        return
    if isinstance(v, Refuted):
        assert confirm_witness(p, v.witness, cfg.confirm_tol)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unpack_on_stacks_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = rng.normal(scale=20.0, size=(5, 40, n * (n - 1) + 1))
    s, rho = _unpack(x, n)
    assert s.shape == (5, 40, n, n) and rho.shape == (5, 40)
    for idx in np.ndindex(5, 40):
        s1, rho1 = _unpack(x[idx], n)
        assert s1.shape == (n, n)
        assert s[idx].tobytes() == s1.tobytes()
        assert rho[idx].tobytes() == np.float64(rho1).tobytes()


def _scipy_restart(p: Polynomial, n: int, cfg: SearchConfig,
                   r: int) -> tuple[float, np.ndarray]:
    """Reference: scipy's Nelder-Mead from restart r's start, recording the
    lowest point it evaluates, one matrix at a time."""
    x0 = _restart_start(n, cfg, r)
    best_val, best_x = np.inf, x0

    def f(x):
        nonlocal best_val, best_x
        s, rho = _unpack(x, n)
        val, _, _ = min_entry(eval_matrix(p, rho * s))
        if val < best_val:
            best_val, best_x = val, np.array(x, dtype=float)
        return np.inf if np.isnan(val) else val

    optimize.minimize(f, x0, method="Nelder-Mead",
                      options={"maxiter": cfg.max_iters, "xatol": 1e-7,
                               "fatol": 1e-13, "adaptive": True})
    return best_val, best_x


@settings(max_examples=40, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=7),
       scale=st.sampled_from([1.0, 1e150, 1e300]),
       n=st.sampled_from([2, 3]),
       max_iters=st.sampled_from([1, 2, 120, 200]),
       restarts=st.integers(1, 10),
       seed=st.integers(0, 2 ** 32))
# overflows to inf and to NaN (inf - inf), which leaves simplices with tied
# inf values that only shrink steps change
@example(coeffs=[1, -1, 1, -1, 1], scale=1e300, n=2, max_iters=200,
         restarts=10, seed=0)
# zero coefficients below the top
@example(coeffs=[1, 0, -3, 0, 1], scale=1.0, n=2, max_iters=120, restarts=4,
         seed=1)
# a flat objective: every step of every restart shrinks
@example(coeffs=[2], scale=1.0, n=2, max_iters=120, restarts=3, seed=2)
# expansions that overflow where scipy reflects or contracts instead, so
# only the stacked step evaluates them
@example(coeffs=[1, -1, 1, -1, 1], scale=1e300, n=3, max_iters=120,
         restarts=3, seed=0)
# order 4, a search of dimension 13: expansions, reflections and both
# contractions; overflows; a flat objective, whose every step shrinks
@example(coeffs=[1, 1, -3, 1, 1], scale=1.0, n=4, max_iters=200, restarts=3,
         seed=4)
@example(coeffs=[1, -1, 1, -1, 1], scale=1e300, n=4, max_iters=120,
         restarts=2, seed=0)
@example(coeffs=[2], scale=1.0, n=4, max_iters=60, restarts=2, seed=3)
def test_lockstep_matches_scipy(coeffs, scale, n, max_iters, restarts, seed):
    p = Polynomial([scale * c for c in coeffs])
    cfg = SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, xs = _lockstep(np.array([p.coeffs]), n, [cfg])
        for r in range(restarts):
            val, x = _scipy_restart(p, n, cfg, r)
            assert np.float64(val).tobytes() == vals[0, r].tobytes()
            assert x.tobytes() == xs[0, r].tobytes()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(polys=st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=7),
                      min_size=1, max_size=5),
       scales=st.lists(st.sampled_from([1.0, 1e150, 1e300]),
                       min_size=5, max_size=5),
       n=st.sampled_from([2, 3]),
       max_iters=st.sampled_from([1, 2, 120]),
       restarts=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32))
@example(polys=[[1, -1, 1, -1, 1], [1, 1, -3, 1, 1], [2]],
         scales=[1e300, 1.0, 1e150, 1.0, 1.0], n=2, max_iters=120,
         restarts=3, seed=0)
# degrees 1 and 3 are zero in some rows of the stack but not in all
@example(polys=[[1, 0, -3, 0, 1], [1, 2, -3, 1, 1], [2, 0, 1]],
         scales=[1.0, 1.0, 1.0, 1.0, 1.0], n=2, max_iters=120, restarts=3,
         seed=1)
# flat objectives, which shrink at every step, next to one that does not
@example(polys=[[2], [1, 1, -3, 1, 1], [0]], scales=[1.0] * 5, n=3,
         max_iters=120, restarts=2, seed=2)
# expansions that overflow where scipy does not evaluate them
@example(polys=[[1, -1, 1, -1, 1], [0, 0, 0, 1], [1, -1, 1, -1, 1]],
         scales=[1e300, 1e300, 1.0, 1.0, 1.0], n=3, max_iters=120,
         restarts=3, seed=0)
# order 4, dimension 13: 2 x 3 simplices below the fold, 4 x 3 above it
@example(polys=[[1, 1, -3, 1, 1], [2], [1, -1, 1, -1, 1]],
         scales=[1.0, 1.0, 1e300, 1.0, 1.0], n=4, max_iters=120,
         restarts=2, seed=4)
@example(polys=[[1, 1, -3, 1, 1], [1, 0, -3, 0, 1], [2, 0, 1],
                [1, -1, 1, -1, 1]],
         scales=[1.0, 1.0, 1.0, 1e150, 1.0], n=4, max_iters=120,
         restarts=3, seed=5)
def test_lockstep_stack_matches_each_polynomial_alone(
        polys, scales, n, max_iters, restarts, seed):
    # mixed degrees, zero-padded at the top; each with its own seed
    rows = np.zeros((len(polys), max(map(len, polys))))
    for t, coeffs in enumerate(polys):
        rows[t, : len(coeffs)] = [scales[t] * c for c in coeffs]
    cfgs = [SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed + t)
            for t in range(len(polys))]
    with np.errstate(over="ignore", invalid="ignore"):
        vals, xs = _lockstep(rows, n, cfgs)
        assert vals.shape == (len(polys), restarts)
        for t, coeffs in enumerate(polys):
            alone = np.array([rows[t, : len(coeffs)]])
            val1, x1 = _lockstep(alone, n, [cfgs[t]])
            assert val1[0].tobytes() == vals[t].tobytes()
            assert x1[0].tobytes() == xs[t].tobytes()


def _scipy_step_evals(p: Polynomial, n: int, cfg: SearchConfig,
                      r: int) -> list[int]:
    """The evaluations scipy's Nelder-Mead makes at each iteration from
    restart r's start: 1 or 2, or more where the simplex shrinks."""
    calls, ends = [0], []

    def f(x):
        calls[0] += 1
        s, rho = _unpack(x, n)
        val = min_entry(eval_matrix(p, rho * s))[0]
        return np.inf if np.isnan(val) else val

    optimize.minimize(f, _restart_start(n, cfg, r), method="Nelder-Mead",
                      callback=lambda xk: ends.append(calls[0]),
                      options={"maxiter": cfg.max_iters, "xatol": 1e-7,
                               "fatol": 1e-13, "adaptive": True})
    return np.diff([n * (n - 1) + 2] + ends).tolist()


def _lockstep_calls(coeffs: list, n: int, cfg: SearchConfig
                    ) -> tuple[int, list[bool]]:
    """The eval_matrix calls of one lockstep of p = coeffs, and per step
    whether scipy's own runs of some restart shrink in it."""
    p = Polynomial(coeffs)
    steps = [_scipy_step_evals(p, n, cfg, r) for r in range(cfg.restarts)]
    shrinks = [any(len(ev) > t and ev[t] > 2 for ev in steps)
               for t in range(max(map(len, steps)))]
    with mock.patch.object(membership, "eval_matrix",
                           wraps=eval_matrix) as spy:
        _lockstep(np.array([p.coeffs]), n, [cfg])
    return spy.call_count, shrinks


_STEP_CASES = [([2.0], 2), ([1, 1, -3, 1, 1], 2), ([1, -1, 1, -1, 1], 3)]


@pytest.mark.parametrize("coeffs, n", _STEP_CASES)
def test_lockstep_evaluates_one_stack_per_step(coeffs, n):
    # below _FOLD_SHRINK_POINTS: the initial simplices, then per step one
    # stack with the candidates and the shrink points of every running
    # simplex, whether or not some simplex shrinks; n = 3 steps never fold,
    # and the n = 3 case never shrinks, so it also takes one stack per step
    cfg = SearchConfig(restarts=3, max_iters=30, seed=5)
    assert cfg.restarts * (n * (n - 1) + 1) <= membership._FOLD_SHRINK_POINTS
    calls, shrinks = _lockstep_calls(coeffs, n, cfg)
    assert calls == 1 + len(shrinks)
    if coeffs == [2.0]:     # flat: every step of every restart shrinks
        assert calls == 1 + (cfg.max_iters - 1)
    else:
        assert not all(shrinks)


@pytest.mark.parametrize("coeffs, n", _STEP_CASES)
def test_lockstep_above_the_fold_evaluates_shrinks_apart(coeffs, n):
    # above _FOLD_SHRINK_POINTS: one stack with the candidates per step, and
    # one more only in the steps where some simplex shrinks
    cfg = SearchConfig(restarts=3, max_iters=60, seed=5)
    with mock.patch.object(membership, "_FOLD_SHRINK_POINTS", 0):
        calls, shrinks = _lockstep_calls(coeffs, n, cfg)
    assert calls == 1 + len(shrinks) + sum(shrinks)
    if coeffs == [2.0]:     # flat: every step shrinks
        assert all(shrinks)
    else:
        # the n = 2 case shrinks in some steps, the n = 3 one in none
        assert not all(shrinks) and (n == 3 or any(shrinks))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(polys=st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=7),
                      min_size=1, max_size=5),
       scales=st.lists(st.sampled_from([1.0, 1e150, 1e300]),
                       min_size=5, max_size=5),
       n=st.sampled_from([2, 3]),
       max_iters=st.sampled_from([1, 2, 120]),
       restarts=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32))
# 5 x 4 simplices of dimension 7, 140 shrink points, start above the fold
# at its default and converge below it
@example(polys=[[1, -1, 1, -1, 1], [1, 1, -3, 1, 1], [2], [1, 0, -3, 0, 1],
                [1, 2, -3, 1, 1]],
         scales=[1e300, 1.0, 1.0, 1e150, 1.0], n=3, max_iters=120,
         restarts=4, seed=0)
def test_lockstep_fold_changes_no_bit(polys, scales, n, max_iters, restarts,
                                      seed):
    # the shrink points of simplices that do not shrink are evaluated only
    # when folded, and at 1e300 scales some overflow; no output may change
    rows = np.zeros((len(polys), max(map(len, polys))))
    for t, coeffs in enumerate(polys):
        rows[t, : len(coeffs)] = [scales[t] * c for c in coeffs]
    cfgs = [SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed + t)
            for t in range(len(polys))]
    outs = []
    for fold in (0, membership._FOLD_SHRINK_POINTS, 2 ** 62):
        with mock.patch.object(membership, "_FOLD_SHRINK_POINTS", fold):
            vals, xs = _lockstep(rows, n, cfgs)
        outs.append((vals.tobytes(), xs.tobytes()))
    assert outs[0] == outs[1] == outs[2]


def test_refute_reproducible():
    a = refute(loewy22(2.1), 2, CFG)
    b = refute(loewy22(2.1), 2, CFG)
    assert isinstance(a, Refuted) and isinstance(b, Refuted)
    assert a.witness.rho == b.witness.rho
    assert np.array_equal(a.witness.s, b.witness.s)
    assert a.witness.value == b.witness.value


@pytest.mark.parametrize("n", [2, 3])
def test_probe_stack_is_built_once_and_read_only(n):
    # (1, 1, -3, 1, 1) is refuted by a probe, so its witness is a view into
    # the cached stack
    stack = _probe_candidates(n)
    assert all(not arr.flags.writeable for arr in stack)
    p = Polynomial([1.0, 1.0, -3.0, 1.0, 1.0])
    first = prepare([p], n, [CFG])[0].witness
    assert _probe_candidates(n) is stack
    assert np.shares_memory(first.s, stack[0])
    with pytest.raises(ValueError):
        first.s[0, 0] = 0.5
    again = refute(p, n, CFG)
    assert _probe_candidates(n) is stack
    assert json.dumps(again.witness.to_json_dict()) == \
        json.dumps(first.to_json_dict())
    assert again.witness.s.tobytes() == first.s.tobytes()


def _fraction_entry(p: Polynomial, s: np.ndarray, rho: float, i: int,
                    j: int) -> Fraction:
    """Reference: entry (i, j) of p(rho * s), whole matrices of Fractions."""
    n = s.shape[0]
    a = [[Fraction(rho) * Fraction(float(s[r, c])) for c in range(n)]
         for r in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for coef in reversed(p.coeffs):
        acc = [[sum(acc[r][m] * a[m][c] for m in range(n))
                + (Fraction(coef) if r == c else 0) for c in range(n)]
               for r in range(n)]
    return acc[i][j]


@st.composite
def _entry_cases(draw):
    n = draw(st.sampled_from([1, 2, 3]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coeffs = draw(st.lists(finite, min_size=1, max_size=9))
    # positive entries down to the smallest subnormal
    s = draw(st.lists(st.floats(min_value=5e-324, max_value=1.0),
                      min_size=n * n, max_size=n * n))
    rho = draw(st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
               | st.floats(min_value=1e299, max_value=1e301))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return Polynomial(coeffs), np.array(s).reshape(n, n), rho, i, j


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_entry_cases())
@example(case=(Polynomial([1e300, -3.0, 5e-324, 1e-300]),
               np.array([[5e-324, 1.0], [0.5, 0.5]]), 1e300, 0, 1))
@example(case=(Polynomial([0.0, 2.0 ** -1074, 0.0, 1.0]),
               np.full((3, 3), 2.0 ** -1022), 9.9e299, 2, 0))
def test_exact_entry_matches_fraction_matrices(case):
    p, s, rho, i, j = case
    assert _exact_entry(p, s, rho, i, j) == _fraction_entry(p, s, rho, i, j)


def test_confirm_witness_rejections():
    v = refute(loewy22(2.1), 2, CFG)
    w = v.witness
    assert confirm_witness(loewy22(2.1), w, CFG.confirm_tol)
    # value below the confirmation threshold
    tiny = Witness(w.s, w.rho, w.i, w.j, -1e-15)
    assert not confirm_witness(Polynomial([1.0]), tiny, 1e-9)
    # broken row sums
    bad = Witness(w.s * 1.1, w.rho, w.i, w.j, w.value)
    assert not confirm_witness(loewy22(2.1), bad, CFG.confirm_tol)
    # nonpositive entries
    s = w.s.copy()
    s[0, 0] = -s[0, 0]
    assert not confirm_witness(loewy22(2.1), Witness(s, w.rho, w.i, w.j, w.value),
                               CFG.confirm_tol)
    # a claimed value that is not a finite number below -tol
    for value in (-w.value, float("nan"), float("-inf")):
        assert not confirm_witness(loewy22(2.1), Witness(w.s, w.rho, w.i, w.j,
                                                         value), CFG.confirm_tol)
    # rho that is not a finite positive number
    for rho in (float("nan"), float("inf")):
        assert not confirm_witness(loewy22(2.1), Witness(w.s, rho, w.i, w.j,
                                                         w.value), CFG.confirm_tol)


def test_downward_closure_in_t():
    # a witness at t0 stays a witness for all larger t, with value moving
    # linearly at slope -(rho^m (S^m)_ij)
    v = refute(loewy22(2.1), 2, CFG)
    w = v.witness
    m = 2
    smat = np.linalg.matrix_power(w.s, m)
    slope = -(w.rho ** m) * smat[w.i, w.j]
    for dt in (0.05, 0.2, 1.0):
        p2 = loewy22(2.1 + dt)
        out = eval_matrix(p2, w.rho * w.s)
        expect = w.value + slope * dt
        assert out[w.i, w.j] == pytest.approx(expect, rel=1e-9, abs=1e-12)
        w2 = Witness(w.s, w.rho, w.i, w.j, out[w.i, w.j])
        assert confirm_witness(p2, w2, CFG.confirm_tol)


def test_monomial_addition_monotonicity():
    rng = np.random.default_rng(17)
    p = loewy22(2.2)
    v = refute(p, 2, CFG)
    assert isinstance(v, Refuted)
    w = v.witness
    for _ in range(10):
        d = int(rng.integers(0, 6))
        c = float(rng.uniform(0.0, 0.5))
        plus = [0.0] * (d + 1)
        plus[d] = c
        entry = eval_matrix(p + Polynomial(plus), w.rho * w.s)[w.i, w.j]
        assert entry >= w.value - 1e-12


def test_scale_equivariance():
    p = loewy22(2.1)
    v = refute(p, 2, CFG)
    w = v.witness
    for lam in (0.5, 3.0):
        w2 = Witness(w.s, w.rho, w.i, w.j, lam * w.value)
        assert confirm_witness(p.scale(lam), w2, 0.5 * CFG.confirm_tol)


def test_agreement_with_exact_oracle_n1():
    rng = np.random.default_rng(29)
    for _ in range(60):
        deg = int(rng.integers(0, 7))
        nums = rng.integers(-50, 51, size=deg + 1)
        p = Polynomial([v / 50.0 for v in nums])
        if p.is_zero():
            continue
        verdict = refute(p, 1, CFG)
        exact = is_nonneg_on_halfline(RationalPolynomial.from_polynomial(p))
        assert isinstance(verdict, ExactMember) == exact


def test_max_t_scalar_family():
    lo, hi = max_t(lambda t: Polynomial([1.0, -t, 1.0]), 1, CFG,
                   t_hi=4.0, width=0.01)
    assert hi - lo <= 0.01
    assert lo <= 2.0 <= hi


def test_bisection_width_must_be_positive():
    family = lambda t: Polynomial([1.0, -t, 1.0])  # noqa: E731
    for width in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            max_t(family, 1, CFG, t_hi=4.0, width=width)
        with pytest.raises(ValueError):
            boundary_offset(Polynomial([1.0, 0.0, 1.0]),
                            Polynomial([0.0, -1.0]), 1, CFG, mu_hi=3.0,
                            width=width)
    # below float resolution the bracket stops at adjacent floats
    lo, hi = max_t(family, 1, CFG, t_hi=4.0, width=1e-300)
    assert lo <= 2.0 <= hi and np.nextafter(lo, np.inf) == hi


def test_max_t_no_upper():
    with pytest.raises(NoUpperRefutation):
        max_t(lambda t: Polynomial([1.0, 1.0]), 1, CFG, t_hi=8.0, width=0.1)


def test_boundary_offset_quadratic():
    # boundary of the half-line cone at 1 + c1 x + x^2 sits at c1 = -2
    mu = boundary_offset(Polynomial([1.0, 0.0, 1.0]), Polynomial([0.0, -1.0]),
                         1, CFG, mu_hi=3.0)
    assert mu == pytest.approx(2.0, abs=3e-3)


def test_boundary_offset_brackets():
    with pytest.raises(BadBracket):
        boundary_offset(Polynomial([1.0, 0.0, 1.0]), Polynomial([0.0, 1.0]),
                        1, CFG, mu_hi=4.0)
    mu = boundary_offset(Polynomial([1.0, -2.0, 1.0]), Polynomial([0.0, -1.0]),
                         1, CFG, mu_hi=1.0)
    assert 0.0 <= mu <= 2e-3


def test_trace_slice_curved():
    res = trace_slice(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0]),
                      Polynomial([0.0, -1.0]), 1, 5, CFG)
    assert len(res.points) == 5 and not res.missing
    for t, mu in res.points:
        assert mu == pytest.approx(2.0 * np.sqrt(t * (1.0 - t)), abs=1e-3)
    assert res.residual > 0.01


def test_trace_slice_degenerate():
    res = trace_slice(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0]),
                      Polynomial([0.0, -1.0]), 1, 1, CFG)
    assert len(res.points) == 1 and res.residual == 0.0
    # direction with nonnegative coefficients: every point fails the bracket
    res = trace_slice(Polynomial([0.0, 1.0]), Polynomial([0.0, 1.0]),
                      Polynomial([1.0]), 1, 3, CFG)
    assert not res.points and len(res.missing) == 3 and res.residual == 0.0


def test_witness_and_verdict_json():
    v = refute(loewy22(2.1), 2, CFG)
    blob = verdict_to_json(v, CFG)
    import json
    d = json.loads(blob)
    assert d["kind"] == "refuted"
    w = Witness.from_json_dict(d["witness"])
    assert confirm_witness(loewy22(2.1), w, CFG.confirm_tol)
    assert d["config"]["seed"] == CFG.seed
    blob = verdict_to_json(NoRefutationFound(5, 0.25), CFG)
    assert json.loads(blob)["restarts_used"] == 5


def test_search_config_roundtrip():
    d = CFG.to_json_dict()
    assert SearchConfig.from_json_dict(d) == CFG


def test_random_members_never_refuted():
    # nonnegative combinations of monomials evaluated at stochastic samples
    rng = np.random.default_rng(41)
    small = SearchConfig(restarts=2, max_iters=60, seed=5)
    for _ in range(6):
        coeffs = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6)))
        p = Polynomial(coeffs)
        assert not isinstance(refute(p, 2, small), Refuted)
    # sanity: witnesses evaluated on fresh stochastic matrices stay sound
    p = loewy22(2.1)
    v = refute(p, 2, CFG)
    for _ in range(20):
        s = sample_stochastic(2, rng)
        rho = float(np.exp(rng.uniform(-2, 2)))
        assert eval_matrix(p, rho * s).min() <= 1e300


def test_search_config_bounds_are_value_errors():
    # raised, not asserted, so that they hold under python -O too
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        trace_slice(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0]),
                    Polynomial([0.0, -1.0]), 1, 0, CFG)


# ---------------------------------------------------------------------------
# sequential references: one polynomial after another, by callback
# bisections; for n <= 2 each is decided by the exact oracles themselves,
# for n >= 3 by the Loewy certificate, else by its own refute


def _decision(p: Polynomial, verdict) -> tuple:
    """A polynomial with its verdict, witness bits included."""
    if isinstance(verdict, Refuted):
        w = verdict.witness
        return p.coeffs, w.s.tobytes(), w.rho, w.i, w.j, w.value
    return p.coeffs, repr(verdict)


def _refuted_alone(p: Polynomial, n: int, cfg: SearchConfig,
                   decided: list) -> bool:
    if n == 1:
        return not is_nonneg_on_halfline(p)
    if n >= 3 and loewy_certificate(p, n) is not None:
        return False
    member = is_order2_member(p) if n == 2 else None
    if member is not None:
        return not member
    verdict = refute(p, n, cfg)
    decided.append(_decision(p, verdict))
    return isinstance(verdict, Refuted)


def _bisect_ref(refuted, hi: float, width: float) -> tuple:
    lo = 0.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if refuted(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _max_t_ref(fn, n, cfg, t_hi, width, decided):
    log = []

    def probe(t):
        hit = _refuted_alone(fn(t), n, cfg, decided)
        log.append((t, hit))
        return hit

    if not probe(t_hi):
        raise NoUpperRefutation
    return _bisect_ref(probe, float(t_hi), width), log


def _offset_ref(g, u, n, cfg, mu_hi, width, decided):
    def refuted(mu):
        return _refuted_alone(g + u.scale(mu), n, cfg, decided)

    if _refuted_alone(g, n, cfg, decided):
        raise BadBracket
    hi = float(mu_hi)
    for _ in range(5):
        if refuted(hi):
            break
        hi *= 2.0
    else:
        raise BadBracket
    return _bisect_ref(refuted, hi,
                       width if width is not None else 1e-3 * hi)[0]


def _trace_ref(p, q, u, n, grid, cfg, decided):
    if (_refuted_alone(p, n, cfg, decided)
            or _refuted_alone(q, n, cfg, decided)):
        raise BadBracket
    pts, missing = [], []
    for i in range(1, grid + 1):
        t = i / (grid + 1)
        try:
            pts.append((t, _offset_ref(p.scale(1.0 - t) + q.scale(t), u, n,
                                       cfg, 1.0, 5e-4, decided)))
        except BadBracket:
            missing.append(t)
    residual = 0.0
    if len(pts) >= 3:
        ts, mus = np.array(pts).T
        slope, intercept = np.polyfit(ts, mus, 1)
        residual = float(np.max(np.abs(mus - (slope * ts + intercept))))
    return TraceResult(tuple(pts), tuple(missing), residual)


def _spied(fn, *args, **kwargs):
    """fn's result and the decision of every call of membership.refute,
    each of which must get its prepared share."""
    decided = []

    def spy(p, n, cfg, prepared):
        assert isinstance(prepared, membership.Prepared)
        verdict = refute(p, n, cfg, prepared)
        decided.append(_decision(p, verdict))
        return verdict

    with mock.patch.object(membership, "refute", spy):
        return fn(*args, **kwargs), decided


# the benchmark's slice segment, and an order-3 segment along the centre
# coefficient of loewy_general(3, 3, 0, t)
SLICE_SEGMENT = (Polynomial([1, 1, -1, 1, 1]), Polynomial([1, 1, -1.5, 1, 1]),
                 Polynomial([0, 0, -1]))
SLICE_SEGMENT3 = (Polynomial([1, 1, 1, -1, 1, 1, 1]),
                  Polynomial([1, 1, 1, -1.5, 1, 1, 1]),
                  Polynomial([0, 0, 0, -1]))
SMALL = SearchConfig(restarts=4, max_iters=100, seed=7)


@pytest.mark.parametrize("segment,n,grid,cfg", [
    (SLICE_SEGMENT, 2, 3, SearchConfig(restarts=10, seed=11)),
    (SLICE_SEGMENT, 2, 5, SMALL),
    # u is small: the offset needed passes the ladder's top, mu = 16, at
    # t = 1/2 and 3/4, so those points are missing
    ((Polynomial([1, 1, -1, 1, 1]), Polynomial([1, 1, 1, 1, 1]),
      Polynomial([0, 0, -0.1])), 2, 3, SMALL),
    ((Polynomial([1]), Polynomial([0, 0, 1]), Polynomial([0, -1])), 1, 5,
     SMALL),
    ((Polynomial([1, 1]), Polynomial([0, 1]), Polynomial([1])), 1, 3, SMALL),
    (SLICE_SEGMENT3, 3, 2, SMALL),
], ids=["bench-grid3", "bench-grid5", "missing", "n1-curved", "n1-missing",
        "n3-grid2"])
def test_trace_slice_matches_sequential_reference(segment, n, grid, cfg):
    decided: list = []
    ref = _trace_ref(*segment, n, grid, cfg, decided)
    got, calls = _spied(trace_slice, *segment, n, grid, cfg)
    assert got == ref
    assert Counter(calls) == Counter(decided)
    # n <= 2 is decided without a search, n = 3 only by searches
    assert bool(calls) == (n == 3)
    if grid == 3 and n == 2 and segment is not SLICE_SEGMENT:
        assert len(got.points) == 1 and len(got.missing) == 2


@pytest.mark.parametrize("p,q", [
    (Polynomial([1, 1, -3, 1, 1]), Polynomial([1, 1, -1, 1, 1])),
    (Polynomial([1, 1, -1, 1, 1]), Polynomial([1, 1, -3, 1, 1])),
])
def test_trace_slice_refuted_endpoint(p, q):
    with pytest.raises(BadBracket):
        _trace_ref(p, q, Polynomial([0, 0, -1]), 2, 3, SMALL, [])
    with pytest.raises(BadBracket):
        trace_slice(p, q, Polynomial([0, 0, -1]), 2, 3, SMALL)


@pytest.mark.parametrize("fn,n,t_hi,width", [
    (loewy22, 2, 3.0, 0.02),
    (lambda t: Polynomial([1.0, -t, 1.0]), 1, 4.0, 0.01),
    # every member with t > 0 is negative only beyond the float range, so
    # no float witness shows it; the exact oracle does
    (lambda t: Polynomial([1.0, 1e300, -t * 1e-300]), 1, 1.0, 0.1),
    (lambda t: loewy_general(3, 3, 0, t), 3, 4.0, 0.25),
])
def test_max_t_matches_sequential_reference(fn, n, t_hi, width):
    decided: list = []
    (lo_hi, log) = _max_t_ref(fn, n, SMALL, t_hi, width, decided)
    probes: list = []
    got, calls = _spied(max_t, fn, n, SMALL, t_hi, width, probe_log=probes)
    assert got == lo_hi and probes == log
    assert calls == decided and bool(calls) == (n == 3)


@pytest.mark.parametrize("g,u,n", [
    (Polynomial([1, 1, -1.25, 1, 1]), Polynomial([0, 0, -1]), 2),
    (Polynomial([1.0, 0.0, 1.0]), Polynomial([0.0, -1.0]), 1),
    (Polynomial([1.0, 1e300, 0.0]), Polynomial([0.0, 0.0, -1e-300]), 1),
    (Polynomial([1, 1, 1, -1.25, 1, 1, 1]), Polynomial([0, 0, 0, -1]), 3),
])
def test_boundary_offset_matches_sequential_reference(g, u, n):
    decided: list = []
    ref = _offset_ref(g, u, n, SMALL, 1.0, None, decided)
    got, calls = _spied(boundary_offset, g, u, n, SMALL, 1.0)
    assert got == ref and calls == decided and bool(calls) == (n == 3)


def test_order2_thresholds_run_no_search():
    def no_search(*args):
        raise AssertionError("searched at n = 2")

    with mock.patch.object(membership, "prepare", no_search), \
            mock.patch.object(membership, "_lockstep", no_search):
        lo, hi = max_t(loewy22, 2, SMALL, t_hi=3.0, width=1e-3)
        res = trace_slice(*SLICE_SEGMENT, 2, 3, SMALL)
    assert lo <= 2.0 < hi and len(res.points) == 3


@pytest.mark.parametrize("seed", [1, 2, 8])
def test_order2_slice_is_exact_and_seed_free(seed):
    # the benchmark's segment: the offset at t leaves the centre coefficient
    # at -1 - t / 2 - mu = -2, the degree-4 bound, and the bisection from
    # mu = 1 meets it exactly
    res = trace_slice(*SLICE_SEGMENT, 2, 3, SearchConfig(restarts=10,
                                                         seed=seed))
    assert res.points == ((0.25, 0.875), (0.5, 0.75), (0.75, 0.625))
    for t, mu in res.points:
        g = SLICE_SEGMENT[0].scale(1 - t) + SLICE_SEGMENT[1].scale(t)
        assert (g + SLICE_SEGMENT[2].scale(mu)).coeffs[2] == -2.0


@pytest.mark.parametrize("n", [1, 2])
def test_coefficient_beyond_float_range_is_an_error(n):
    # u's ladder doubles 1e308 past the float range
    with pytest.raises(BeyondFloatRange):
        trace_slice(*SLICE_SEGMENT[:2], Polynomial([0, 0, 1e308]), n, 1,
                    SMALL)


def test_extreme_dyadic_maxt_settles_its_deep_walks():
    # for t near 1e300, loewy22(t) is negative from about t^(-1/2) on, so the
    # root isolation would halve its first leaf about 500 times per
    # decision (250,041 halvings for the whole maxt); past depth 16 the
    # oracle tests the critical points of p exactly instead. About a
    # thousand bisection steps, each now stopping at that depth
    with mock.patch.object(exact, "_halves", wraps=exact._halves) as spy:
        lo, hi = max_t(loewy22, 2, SMALL, t_hi=1e300, width=0.5)
    assert lo <= 2.0 < hi and hi - lo <= 0.5
    assert spy.call_count <= 20_000


# ---------------------------------------------------------------------------
# decide: the one ladder of exact stages before the search

DECIDE_CFG = SearchConfig(restarts=2, max_iters=40, seed=5)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(-4, 4), min_size=1, max_size=5)
       .filter(any), n=st.sampled_from([1, 2, 3]))
def test_decide_agrees_with_the_exact_decisions(coeffs, n):
    p = Polynomial([float(c) for c in coeffs])
    [(stage, verdict)] = membership.decide([p], n, [DECIDE_CFG])
    assert stage in membership.DECISION_STAGES
    inside = stage in membership.INSIDE_STAGES
    # every coefficient >= 0 is accepted first, at every order
    assert (stage == "coeffs_nonneg") == (min(coeffs) >= 0)
    if n == 1:
        assert stage == "coeffs_nonneg" or stage.startswith("oracle_")
        assert inside == is_nonneg_on_halfline(p)
    member = is_order2_member(p) if n == 2 else None
    if member is not None:
        assert inside == member
    # only a search leaves a verdict, and it names the search's outcome
    if stage.startswith("search_"):
        assert isinstance(verdict, Refuted) == (stage == "search_refuted")
    else:
        assert verdict is None


def test_decide_batch_matches_each_polynomial_alone():
    polys = [loewy_general(3, 3, 0, t) for t in (1.0, 2.0, 2.5, 3.0)] + \
        [Polynomial([1, 0, 0, -1, 0, 0, 1]), Polynomial([1, 2, 3])]
    cfgs = [SearchConfig(restarts=4, max_iters=80, seed=s)
            for s in range(len(polys))]
    with mock.patch.object(membership, "refute",
                           wraps=membership.refute) as spy:
        batch = membership.decide(polys, 3, cfgs)
    alone = [membership.decide([p], 3, [c])[0] for p, c in zip(polys, cfgs)]
    assert [_decision(p, v) for p, (_, v) in zip(polys, batch)] == \
        [_decision(p, v) for p, (_, v) in zip(polys, alone)]
    assert [s for s, _ in batch] == [s for s, _ in alone]
    # one refute per searched polynomial, in batch order, on its share
    searched = [p.coeffs for p, (s, _) in zip(polys, batch)
                if s.startswith("search_")]
    assert [c.args[0].coeffs for c in spy.call_args_list] == searched
    assert searched and all(c.args[3] is not None
                            for c in spy.call_args_list)
    assert {"coeffs_nonneg", "loewy_cone"} <= {s for s, _ in batch}


def test_order2_thresholds_skip_the_decision_on_nonnegative_coefficients():
    # b >= 0 is the order-2 condition on x^2 + b x + 1, so the threshold is
    # t = 2, where the coefficients are all >= 0
    def fn(t):
        return Polynomial([1.0, 2.0 - t, 1.0])

    segment = (Polynomial([1, 1, 0, 1, 1]), Polynomial([1, 1, 1, 1, 1]),
               Polynomial([0, 0, -1]))
    ref_maxt = _max_t_ref(fn, 2, SMALL, 8.0, 0.01, [])
    ref_slice = _trace_ref(*segment, 2, 3, SMALL, [])
    with mock.patch.object(membership, "is_order2_member",
                           wraps=is_order2_member) as spy:
        probes: list = []
        got_maxt = max_t(fn, 2, SMALL, 8.0, 0.01, probe_log=probes)
        got_slice = trace_slice(*segment, 2, 3, SMALL)
    assert (got_maxt, probes) == ref_maxt and got_slice == ref_slice
    assert got_maxt[0] == 2.0 and len(got_slice.points) == 3
    asked = [c.args[0].coeffs for c in spy.call_args_list]
    assert asked and all(min(c) < 0 for c in asked)
    # the shortcut was taken: both ends of the segment, and t = 2
    assert (2.0, False) in probes
