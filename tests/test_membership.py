"""Refutation search, witness confirmation, bisection utilities."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from nonnegcone.core import Polynomial, eval_matrix, min_entry, sample_stochastic
from nonnegcone.exact import (
    RationalPolynomial,
    is_nonneg_on_halfline,
    refute_halfline,
)
from nonnegcone.families import necessary_conditions
from nonnegcone.membership import (
    BadBracket,
    ExactMember,
    NoRefutationFound,
    NoUpperRefutation,
    Refuted,
    SearchConfig,
    NoFloatWitness,
    Witness,
    _lockstep,
    _monotone_witness,
    _restart_start,
    _unpack,
    boundary_offset,
    confirm_witness,
    max_t,
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
    assert v.witness.rho > np.exp(cfg.rho_log_range[1])
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
    s, rho = _unpack(x, n, CFG.rho_log_range)
    assert s.shape == (5, 40, n, n) and rho.shape == (5, 40)
    for idx in np.ndindex(5, 40):
        s1, rho1 = _unpack(x[idx], n, CFG.rho_log_range)
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
        s, rho = _unpack(x, n, cfg.rho_log_range)
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
def test_lockstep_matches_scipy(coeffs, scale, n, max_iters, restarts, seed):
    p = Polynomial([scale * c for c in coeffs])
    cfg = SearchConfig(restarts=restarts, max_iters=max_iters, seed=seed)
    with np.errstate(over="ignore", invalid="ignore"):
        vals, xs = _lockstep(p, n, cfg)
        for r in range(restarts):
            val, x = _scipy_restart(p, n, cfg, r)
            assert np.float64(val).tobytes() == vals[r].tobytes()
            assert x.tobytes() == xs[r].tobytes()


def test_refute_reproducible():
    a = refute(loewy22(2.1), 2, CFG)
    b = refute(loewy22(2.1), 2, CFG)
    assert isinstance(a, Refuted) and isinstance(b, Refuted)
    assert a.witness.rho == b.witness.rho
    assert np.array_equal(a.witness.s, b.witness.s)
    assert a.witness.value == b.witness.value


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
