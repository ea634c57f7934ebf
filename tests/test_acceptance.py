"""End-to-end acceptance checks, one test per release criterion.

Run with -v to get one pass/fail line per criterion. Each test pins the
stated tolerance and search budget; wall-clock limits are asserted where
the criterion names one. Nothing here filters or retries a bad outcome:
a counterexample found by a budgeted search is reported, with its exact
witness, in the assertion message.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from nonnegcone import exact, volume
from nonnegcone.cli import main as cli_main
from nonnegcone.core import Polynomial, perron_normalize
from nonnegcone.exact import (
    RationalPolynomial,
    is_nonneg_on_halfline,
    is_order2_member,
    order2_counterexample,
    polya_szego_decompose,
    refute_halfline,
)
from nonnegcone.families import (
    LoewyGeneral,
    alpha_family,
    loewy_general,
    projection_gap_example,
    split_alpha,
)
from nonnegcone.membership import (
    ExactMember,
    NoRefutationFound,
    Refuted,
    SearchConfig,
    max_t,
    refute,
    trace_slice,
    verdict_to_json_dict,
)
from nonnegcone.volume import compare_experiment, estimate_cone_fraction


def grid_cases() -> list:
    return [(n, m, s)
            for n in (1, 2, 3)
            for m in range(n, 6)
            for s in range(0, m - n + 1)]


def test_acceptance_01_scalar_sharp_threshold(capsys):
    t0 = time.perf_counter()
    code = cli_main(["maxt", "loewy", "--n", "1", "--m", "1", "--s", "0",
                     "--width", "0.01"])
    elapsed = time.perf_counter() - t0
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    lo, hi = doc["interval"]
    assert hi - lo <= 0.01
    assert lo <= 2.0 <= hi
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_acceptance_02_matrix_sharp_threshold():
    t0 = time.perf_counter()
    p_hi = loewy_general(2, 2, 0, 2.1)
    v_hi = refute(p_hi, 2, SearchConfig(restarts=200, seed=0))
    assert isinstance(v_hi, Refuted)

    p_at = loewy_general(2, 2, 0, 2.0)
    v_at = refute(p_at, 2, SearchConfig(restarts=500, seed=0))
    assert isinstance(v_at, NoRefutationFound)

    lo, hi = max_t(LoewyGeneral(2, 2, 0, 2.0), 2,
                   SearchConfig(restarts=60, seed=0), t_hi=4.0, width=0.01)
    assert 1.9 <= lo <= hi <= 2.1, f"interval [{lo}, {hi}]"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s, budget 5min"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_order2_maxt_interval_holds_the_threshold(seed):
    """At n = 2 both ends of a maxt interval are proofs: hi has a
    nonnegative rational matrix whose image has a negative entry, and
    sympy, on its own, finds lo inside the cone."""
    lo, hi = max_t(LoewyGeneral(2, 2, 0, 2.0), 2, SearchConfig(seed=seed),
                   t_hi=3.0, width=1e-9)
    assert lo <= 2.0 < hi and hi - lo <= 1e-9
    p_hi = loewy_general(2, 2, 0, hi)
    matrix, i, j = order2_counterexample(p_hi)
    assert min(map(min, matrix)) >= 0
    assert _power_sum_entry(p_hi.coeffs, matrix, i, j) < 0
    assert _sympy_order2_member(loewy_general(2, 2, 0, lo).coeffs)


def _power_sum_entry(coeffs, a, i: int, j: int) -> Fraction:
    """Entry (i, j) of sum_k coeffs[k] a^k, summing explicit powers of a.

    Deliberately not Horner and not the package's confirmation code, so it
    is an independent re-check of a claimed witness.
    """
    n = len(a)
    power = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        if k:
            power = [[sum(power[r][l] * a[l][c2] for l in range(n))
                      for c2 in range(n)] for r in range(n)]
        total += Fraction(c) * power[i][j]
    return total


def _witness_problem(p: Polynomial, w) -> str:
    """Why w does not show p outside the cone, or "" when it does.

    The witness matrix rho * s must be entrywise positive, and entry (i, j)
    of p(rho * s) must be exactly negative and match the claimed value.
    """
    s = [[Fraction(float(v)) for v in row] for row in w.s]
    rho = Fraction(w.rho)
    if rho <= 0 or any(v <= 0 for row in s for v in row):
        return "witness matrix is not positive"
    a = [[rho * v for v in row] for row in s]
    entry = _power_sum_entry(p.coeffs, a, w.i, w.j)
    scale = _power_sum_entry([abs(c) for c in p.coeffs], a, w.i, w.j)
    if not entry < 0:
        return f"entry ({w.i},{w.j}) is {float(entry):.3g}, not negative"
    if not w.value < 0 or abs(entry - Fraction(w.value)) > 1e-9 * scale:
        return f"claimed value {w.value:.6g} but entry is {float(entry):.6g}"
    return ""


def _decreasing_step_certificate(p: Polynomial, n: int) -> Fraction:
    """The negative off-diagonal entry of p(xI + cJ), J the all-ones matrix.

    p(xI + cJ) = p(x) I + ((p(x + nc) - p(x)) / n) J, so a rational x > 0
    with p'(x) < 0 and a small c > 0 with p(x + nc) < p(x) give a positive
    matrix whose image has a negative entry. The entry is computed from the
    explicit matrix and checked against the closed form.
    """
    q = RationalPolynomial.from_polynomial(p)
    dq = RationalPolynomial.from_polynomial(p.derivative())
    x = next(Fraction(k, 20) for k in range(1, 100) if dq(Fraction(k, 20)) < 0)
    c = next(Fraction(1, 2 ** e) for e in range(1, 60)
             if q(x + n * Fraction(1, 2 ** e)) < q(x))
    a = [[x * (r == col) + c for col in range(n)] for r in range(n)]
    entry = _power_sum_entry(p.coeffs, a, 0, 1)
    assert entry == (q(x + n * c) - q(x)) / n
    return entry


# Grid cases whose polynomial at t = 2 decreases somewhere on (0, infinity).
# No member of an order n >= 2 cone does (see _decreasing_step_certificate).
NON_MONOTONE_AT_TWO = {(2, 3, 0), (2, 4, 0), (2, 5, 0)}
# The monotone n = 2 grid cases outside class (A): members at t = 2.
ORDER2_MEMBERS_AT_TWO = {(2, 4, 1), (2, 5, 1), (2, 5, 2)}


def _cell_samples(f, var, lo, hi) -> list:
    """One rational point in each open interval into which the real roots
    of the nonzero polynomial f cut (lo, hi); hi may be oo."""
    roots = sorted({r for r in sp.Poly(f, var).real_roots() if lo < r < hi},
                   key=lambda r: r.evalf(60))
    ends = [sp.S(lo), *roots, sp.S(hi)]
    out = []
    for a, b in zip(ends, ends[1:]):
        q = (sp.floor(a) + 1 if b == sp.oo
             else sp.nsimplify(((a + b) / 2).evalf(60), rational=True))
        assert a < q < b
        out.append(q)
    return out


def _sympy_nonneg(f, var, lo, hi) -> bool:
    """Whether the polynomial f is >= 0 on (lo, hi), by its sign at one
    point between each two of its real roots."""
    f = sp.expand(f)
    return f == 0 or all(f.subs(var, q) >= 0
                         for q in _cell_samples(f, var, lo, hi))


def _sympy_order2_member(coeffs) -> bool:
    """Membership in the order-2 cone decided with sympy alone, by the
    conditions of the nonnegcone.exact module comment: p, p', the odd and the
    even part >= 0 on (0, oo), and H = (p(-u x) + u p(x)) / (1 + u) >= 0 on
    x > 0, 0 < u < 1. Let G be the product of the distinct irreducible
    factors of H other than x, u and u - 1, which keep one sign there. Above
    the x-cells cut by the real roots of the resultant in u of G and its
    u-derivative, and of G at u = 0 and u = 1, H keeps its sign pattern in
    u, so one rational x per cell decides."""
    x, u = sp.symbols("x u")
    c = [sp.Rational(Fraction(v).numerator, Fraction(v).denominator)
         for v in coeffs]
    p = sum(v * x ** i for i, v in enumerate(c))
    odd = sum(v * x ** i for i, v in enumerate(c[1::2]))
    even = sum(v * x ** i for i, v in enumerate(c[0::2]))
    if not all(_sympy_nonneg(f, x, 0, sp.oo)
               for f in (p, sp.diff(p, x), odd, even)):
        return False
    h = sp.cancel((p.subs(x, -u * x) + u * p) / (1 + u))
    g = sp.Mul(*(f for f, _ in sp.factor_list(h)[1]
                 if f not in (x, u, u - 1)))
    crit = g if sp.degree(g, u) < 1 else \
        sp.resultant(g, sp.diff(g, u), u) * g.subs(u, 0) * g.subs(u, 1)
    return all(_sympy_nonneg(h.subs(x, q), u, 0, 1)
               for q in _cell_samples(crit, x, 0, sp.oo))


def test_acceptance_03_family_grid():
    """t = 2 is sharp on the grid wherever membership at t = 2 is proved.

    The grid cases fall into three classes at t = 2:
    (A) proved members: n = 1 gives x^s (1 - x^(m-s))^2, and s = m - n gives
        x^(m-n) times the degree-2n member loewy_general(n, n, 0, 2). None
        may be refuted, and n = 1 must be certified exactly.
    (B) n >= 2 cases with p' < 0 somewhere on (0, infinity): proved
        non-members, each must be refuted.
    (C) the other n >= 2 cases (monotone): for n = 2, (2, 4, 1), (2, 5, 1)
        and (2, 5, 2), the exact order-2 decision proves membership at t = 2
        and rejects t = 2.01, and sympy, independently, agrees at t = 2, as
        it agrees that the three (B) cases of n = 2 are not members; for
        n = 3 membership is not settled, and any refutation must be sound.
    Every witness is re-checked here in exact arithmetic, independently of
    the package's own confirmation.
    """
    t0 = time.perf_counter()
    cases = grid_cases()
    assert len(cases) == 31

    refuted_above = []
    unsound = []
    for n, m, s in cases:
        p = loewy_general(n, m, s, 2.1)
        v = refute(p, n, SearchConfig(restarts=300, seed=0))
        if isinstance(v, Refuted):
            refuted_above.append((n, m, s))
            problem = _witness_problem(p, v.witness)
            if problem:
                unsound.append(((n, m, s, 2.1), problem))

    at_two = {}
    for n, m, s in cases:
        p = loewy_general(n, m, s, 2.0)
        v = refute(p, n, SearchConfig(restarts=100, seed=0))
        at_two[(n, m, s)] = v
        if isinstance(v, Refuted):
            problem = _witness_problem(p, v.witness)
            if problem:
                unsound.append(((n, m, s, 2.0), problem))

    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0, f"took {elapsed:.2f}s, budget 30min"
    assert len(refuted_above) >= 0.95 * len(cases), \
        f"only {len(refuted_above)}/{len(cases)} refuted at t=2.1"
    assert unsound == [], f"witnesses failing the exact re-check: {unsound}"

    proved = [c for c in cases if c[0] == 1 or c[2] == c[1] - c[0]]
    assert len(proved) == 22
    refuted_members = [c for c in proved if isinstance(at_two[c], Refuted)]
    assert refuted_members == [], \
        f"proved members refuted at t=2.0: {refuted_members}"
    not_exact = [c for c in proved
                 if c[0] == 1 and not isinstance(at_two[c], ExactMember)]
    assert not_exact == [], f"n = 1 members not certified: {not_exact}"

    non_monotone = set()
    for n, m, s in cases:
        if (n, m, s) in proved:
            continue
        dp = loewy_general(n, m, s, 2.0).derivative()
        if not is_nonneg_on_halfline(RationalPolynomial.from_polynomial(dp)):
            non_monotone.add((n, m, s))
    assert non_monotone == NON_MONOTONE_AT_TWO
    for n, m, s in sorted(non_monotone):
        assert isinstance(at_two[(n, m, s)], Refuted), \
            f"non-monotone {(n, m, s)} not refuted at t=2.0: {at_two[(n, m, s)]}"
        entry = _decreasing_step_certificate(loewy_general(n, m, s, 2.0), n)
        assert entry < 0, f"{(n, m, s)}: xI + cJ entry {entry}"

    open_two = {c for c in cases if c[0] == 2} - set(proved) - non_monotone
    assert open_two == ORDER2_MEMBERS_AT_TWO
    for case in sorted(open_two | non_monotone):
        if case[0] != 2:
            continue
        p = loewy_general(*case, 2.0)
        member = case in ORDER2_MEMBERS_AT_TWO
        assert is_order2_member(p) is member, case
        assert _sympy_order2_member(p.coeffs) is member, case
        assert not (member and isinstance(at_two[case], Refuted)), case
        # and t = 2 is sharp for them
        assert is_order2_member(loewy_general(*case, 2.01)) is False, case


def test_acceptance_04_alpha_and_split():
    for n in (1, 2, 3):
        for alpha in (1, 2, 3, 4):
            v = refute(alpha_family(n, alpha), n,
                       SearchConfig(restarts=40, seed=0))
            assert not isinstance(v, Refuted), (n, alpha)
            if n == 1:
                assert isinstance(v, ExactMember), (n, alpha)
    # the paper's third result at n = 2, proved: -alpha at the centre of a
    # polynomial of ones is a member for every alpha of the ladder, which
    # sits on the circulant bound 2m/n; sympy alone agrees on the cheap ones
    for alpha in (2, 4, 8, 16, 32):
        assert is_order2_member(alpha_family(2, alpha)) is True, alpha
    for alpha in (2, 4):
        assert _sympy_order2_member(alpha_family(2, alpha).coeffs), alpha
    # and the bound is sharp: past it the even part, whose value at 1 is
    # m - t, dips below 0, and the rejection's matrix is the permutation
    # [[0, 1], [1, 0]], at which entry (0, 0) of p(A) is that value,
    # negative by the explicit power sum above
    for m in (2, 4, 8, 16, 32):
        coeffs = [1.0] * (2 * m + 1)
        coeffs[m] = -(m + 2.0 ** -10)
        p = Polynomial(coeffs)
        assert is_order2_member(p) is False, m
        assert exact._order2_failure(p, settle=True)[1][0] == "even", m
        matrix, i, j = order2_counterexample(p)
        assert (matrix, i, j) == ([[0, 1], [1, 0]], 0, 0), m
        assert _power_sum_entry(coeffs, matrix, i, j) < 0, m

    alphas = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)
    cases = [(n, a) for n in (1, 2, 3, 4, 5) for a in alphas]
    assert len(cases) == 50
    for n, a in cases:
        blocks, slack = split_alpha(n, a)
        total = slack
        for b in blocks:
            total = total + b
        target = alpha_family(n, a)
        la, lb = list(total.coeffs), list(target.coeffs)
        la += [0.0] * (len(lb) - len(la))
        lb += [0.0] * (len(la) - len(lb))
        assert la == lb, f"split mismatch at n={n}, alpha={a}"


def test_acceptance_05_halfline_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    grid = np.linspace(0.0, 100.0, 2001)
    n_members = 0
    for _ in range(1000):
        deg = int(rng.integers(0, 9))
        num = rng.integers(-12, 13, size=deg + 1)
        den = rng.integers(12, 25, size=deg + 1)
        q = RationalPolynomial([Fraction(int(a), int(b))
                                for a, b in zip(num, den)])
        float_coeffs = np.array([float(c) for c in q.coeffs] or [0.0])
        vals = np.polynomial.polynomial.polyval(grid, float_coeffs)
        if is_nonneg_on_halfline(q):
            n_members += 1
            i = int(vals.argmin())
            if vals[i] < 0.0:
                x = Fraction(grid[i])
                assert q(x) >= 0, f"grid contradicts member verdict at {x}"
        else:
            w = refute_halfline(q)
            assert w is not None and w >= 0
            assert q(w) < 0, "witness must be exactly negative"
    elapsed = time.perf_counter() - t0
    assert 0 < n_members < 1000   # both verdicts well represented
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"


def test_acceptance_06_two_square_residuals():
    rng = np.random.default_rng(606)
    for _ in range(100):
        f1 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 5))))
        f2 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 5))))
        g1 = Polynomial(rng.uniform(-1, 1, size=int(rng.integers(1, 4))))
        p = f1 * f1 + f2 * f2 + Polynomial([0.0, 1.0]) * (g1 * g1)
        assert p.degree() <= 6
        dec = polya_szego_decompose(p)
        sup = max(abs(c) for c in p.coeffs)
        assert dec.residual <= 1e-6 * sup, \
            f"residual {dec.residual} vs bound {1e-6 * sup}"


def test_acceptance_07_perron_normalization():
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        a = rng.uniform(0.05, 1.0, size=(n, n))
        dec = perron_normalize(a)
        assert np.max(np.abs(dec.reconstruct() - a)) <= 1e-10
        assert np.max(np.abs(dec.s.sum(axis=1) - 1.0)) <= 1e-12
    rho = perron_normalize(np.array([[1.0, 2.0], [3.0, 4.0]])).rho
    assert abs(rho - (5.0 + np.sqrt(33.0)) / 2.0) <= 1e-9


def test_acceptance_08_volume_calibration():
    cfg = SearchConfig(restarts=20, max_iters=120, seed=0)

    def inside_where(mask_of_rows):
        return lambda rows, start: [np.where(
            mask_of_rows(rows), volume._ORACLE_INSIDE, volume._SIGN)]

    full = volume._estimate(
        inside_where(lambda rows: np.ones(len(rows), bool)),
        (1,), 3, 100000, cfg)[0]
    assert full.fraction == 1.0

    orthant = volume._estimate(
        inside_where(lambda rows: (rows >= 0).all(axis=1)),
        (1,), 3, 100000, cfg)[0]
    p = 2.0 ** (-4)
    sigma = np.sqrt(p * (1 - p) / 100000)
    assert abs(orthant.fraction - p) <= 3 * sigma

    # independent quadrature value for the degree-2 scalar cone fraction,
    # computed ahead of time: 0.2128721
    est = estimate_cone_fraction(1, 2, 1000000, cfg)
    target = 0.2128721
    sigma = np.sqrt(target * (1 - target) / 1000000)
    assert est.bias == "Exact"
    assert abs(est.fraction - target) <= 3 * sigma, \
        f"{est.fraction} vs {target} +- {3 * sigma}"


def test_acceptance_09_fraction_orderings():
    cfg = SearchConfig(restarts=20, max_iters=120, seed=0)
    # escalation ladder; the nominal cap is 1e7 samples but separation is
    # expected orders of magnitude earlier, so the ladder stops at 5e4
    rep_order = None
    for N in (2000, 10000, 50000):
        rep_order = compare_experiment("order", {"n_a": 1, "n_b": 2, "k": 4},
                                       N, cfg)
        if rep_order["confirmed"]:
            break
    assert rep_order["confirmed"], \
        f"order fractions not separated by N={N} (cap 1e7): {rep_order}"

    rep_proj = None
    for N in (3000, 10000, 50000):
        rep_proj = compare_experiment("projection", {"n": 1, "k": 2}, N, cfg)
        if rep_proj["confirmed"]:
            break
    assert rep_proj["confirmed"], \
        f"projection fractions not separated by N={N} (cap 1e7): {rep_proj}"


def test_acceptance_10_curved_boundary_slice():
    tr = trace_slice(Polynomial([1.0]), Polynomial([0.0, 0.0, 1.0]),
                     Polynomial([0.0, -1.0]), 1, 7,
                     SearchConfig(restarts=50, seed=0))
    assert tr.missing == ()
    for t, mu in tr.points:
        target = 2.0 * np.sqrt(t * (1.0 - t))
        assert abs(mu - target) <= 1e-3, f"t={t}: {mu} vs {target}"
    assert tr.residual > 0.01


def test_acceptance_11_projection_strictness():
    for k in range(2, 7):
        p = projection_gap_example(1, k, SearchConfig(restarts=20, seed=0))
        expect = [0.0] * (k - 1) + [1.0, -2.0]
        assert list(p.coeffs) == expect, f"k={k}: {p.coeffs}"
        assert refute_halfline(RationalPolynomial.from_polynomial(p)) \
            is not None
        lifted = RationalPolynomial.from_polynomial(
            p + Polynomial([0.0] * (k + 1) + [1.0]))
        assert is_nonneg_on_halfline(lifted)


def test_acceptance_12_replayability():
    cfg = SearchConfig(restarts=50, seed=9)
    p = loewy_general(2, 2, 0, 2.1)
    first = json.dumps(verdict_to_json_dict(refute(p, 2, cfg), cfg))
    doc = json.loads(first)
    cfg2 = SearchConfig.from_json_dict(doc["config"])
    again = json.dumps(verdict_to_json_dict(refute(p, 2, cfg2), cfg2))
    assert again == first

    est = estimate_cone_fraction(1, 2, 2000, SearchConfig(restarts=20, seed=3))
    d = est.to_json_dict()
    cfg3 = SearchConfig.from_json_dict(d["config"])
    est2 = estimate_cone_fraction(d["n"], d["k"], d["n_samples"], cfg3)
    assert est2.to_json_dict() == d
