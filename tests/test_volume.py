"""Ball sampling, Wilson intervals, volume fractions, paired experiments."""

import itertools
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonnegcone import exact, membership, volume
from nonnegcone.core import BeyondFloatRange, Polynomial
from nonnegcone.exact import (RationalPolynomial, is_nonneg_on_halfline,
                              is_order2_member, loewy_certificate)
from nonnegcone.membership import Refuted, SearchConfig, refute
from nonnegcone.volume import (
    CSV_HEADER,
    STAGES,
    VolumeEstimate,
    estimate_cone_fraction,
    estimate_projection_fraction,
    estimates_csv,
    compare_experiment,
    wilson_interval,
)
from nonnegcone.volume import (
    _INSIDE,
    _GRID,
    _ORACLE_INSIDE,
    _SIGN,
    _ball_chunks,
    _classify_rows,
    _estimate,
    _grid_refuted,
    _projection_rows,
)

CFG = SearchConfig(restarts=10, max_iters=100, seed=13)


def test_ball_chunks_dim1():
    _, rows = next(_ball_chunks(1, 4000, 1))
    xs = rows[:, 0]
    assert np.all(np.abs(xs) <= 1.0)
    assert abs(xs.mean()) < 3.0 / np.sqrt(12.0) / np.sqrt(4000) * 3.0
    frac_half = np.mean(np.abs(xs) <= 0.5)
    assert frac_half == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(4000))


def test_ball_chunks_radius_scaling():
    dim = 3
    _, pts = next(_ball_chunks(dim, 4000, 2))
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    got = np.mean(norms <= 0.5)
    target = 0.5 ** dim
    sigma = np.sqrt(target * (1 - target) / 4000)
    assert abs(got - target) <= 3 * sigma
    # coordinate means vanish
    for d in range(dim):
        assert abs(pts[:, d].mean()) <= 3 * pts[:, d].std() / np.sqrt(4000)


def test_ball_chunks_index_is_independent_of_total():
    dim, seed = 3, 5
    full = np.concatenate([rows for _, rows in _ball_chunks(dim, 10000, seed)])
    for total in (1, 4095, 4096, 4097, 10000):
        chunks = list(_ball_chunks(dim, total, seed))
        assert [start for start, _ in chunks] == list(range(0, total, 4096))
        rows = np.concatenate([rows for _, rows in chunks])
        assert rows.shape == (total, dim)
        assert rows.tobytes() == full[:total].tobytes()


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100, 3.0)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100, 3.0)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(30, 100, 3.0)
    assert 0.0 <= lo <= 0.3 <= hi <= 1.0


@pytest.mark.parametrize("z", [1e200, np.inf, np.nan])
def test_wilson_interval_rejects_z_whose_square_is_not_finite(z):
    # z * z overflows; NaN would fall through max and min to [0, 1]
    with pytest.raises(ValueError, match="finite"):
        wilson_interval(30, 100, z)


def test_projection_rejects_c_cap_not_above_zero():
    # as the CLI's --c-cap does, before any sample is drawn; a finite c_cap
    # whose 16 c_cap is beyond the float range stays BeyondFloatRange
    for c_cap in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="c_cap"):
            estimate_projection_fraction(1, 2, 200, c_cap=c_cap)
    with pytest.raises(BeyondFloatRange):
        estimate_projection_fraction(1, 2, 200, c_cap=1e308)


def inside_where(mask_of_rows):
    """A classifier for volume._estimate: the rows in mask_of_rows(rows)
    count as inside."""
    return lambda rows, start: [np.where(mask_of_rows(rows), _ORACLE_INSIDE,
                                         _SIGN)]


def test_calibration_hooks():
    e = _estimate(inside_where(lambda rows: np.ones(len(rows), bool)),
                  (1,), 3, 1500, CFG)[0]
    assert e.fraction == 1.0 and e.n_inside == 1500
    e = _estimate(inside_where(lambda rows: (rows >= 0).all(axis=1)),
                  (1,), 3, 20000, CFG)[0]
    assert e.ci_low <= 2.0 ** (-4) <= e.ci_high
    e = _estimate(inside_where(lambda rows: rows[:, 0] >= 0),
                  (1,), 2, 20000, CFG)[0]
    assert e.ci_low <= 0.5 <= e.ci_high
    assert e.stages["oracle_inside"] == e.n_inside
    assert e.stages["sign"] == e.n_refuted


def test_cone_fraction_matches_integral_oracle():
    e = estimate_cone_fraction(1, 2, 30000, CFG)
    assert e.bias == "Exact"
    assert e.ci_low <= 0.2128721 <= e.ci_high
    assert e.n_inside + e.n_refuted == e.n_samples


def test_reproducible_counts():
    a = estimate_cone_fraction(1, 4, 4000, CFG)
    b = estimate_cone_fraction(1, 4, 4000, CFG)
    assert a.n_inside == b.n_inside and a.fraction == b.fraction


def test_inclusion_consistency_shared_samples():
    # any sample inside the order-2 classification is inside the order-1 one
    _, rows = next(_ball_chunks(5, 400, CFG.seed))
    small = SearchConfig(restarts=4, max_iters=80, seed=CFG.seed)
    in1 = _INSIDE[_classify_rows(rows, (1,), 4, small, 0)[0]]
    in2 = _INSIDE[_classify_rows(rows, (2,), 4, small, 0)[0]]
    assert np.all(~in2 | in1)
    assert in2.sum() <= in1.sum()


def test_integer_grid_sign_matches_fraction_evaluation():
    rng = np.random.default_rng(8)
    rows = [rng.standard_normal(int(rng.integers(1, 8))) * scale
            for scale in (1.0, 1e300, 1e-300, 1e-315) for _ in range(25)]
    rows += [[5e-324, -5e-324, 0.0], [-0.0, -5e-324], [-5e-324, 1.0],
             [0.0], [-0.0, 0.0, 1e-320]]
    grid = _GRID.tolist()
    assert grid[0] == 0.0
    for row in rows:
        row = [float(c) for c in row]
        rational = RationalPolynomial(row)
        [ints] = exact._integer_rows(np.array([row]))
        for x in grid:
            assert (exact._scaled_value(ints, *x.as_integer_ratio()) < 0) == \
                (rational(Fraction(x)) < 0)
    # a row negative only at x = 0 of the grid is refuted there
    row = np.array([[-1e-300, 1.0, 1.0]])
    assert _grid_refuted(row, exact._integer_rows(row)).tolist() == [True]


def _isolation_inside(rows: np.ndarray) -> list:
    """Per-row reference: root isolation alone on each float row, with the
    oracle's Bernstein certificate switched off."""
    with mock.patch.object(exact, "_bernstein_certifies", return_value=False):
        return [is_nonneg_on_halfline(RationalPolynomial(r)) for r in rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_classification_matches_per_row_oracle(seed):
    for k in (0, 1, 2, 4, 6):
        _, rows = next(_ball_chunks(k + 1, 4096, seed))
        stage = _classify_rows(rows, (1,), k, CFG, 0)[0]
        assert _INSIDE[stage].tolist() == _isolation_inside(rows)
    _, rows = next(_ball_chunks(3, 4096, seed))
    stage = _projection_rows(rows, 1, 2, CFG, 0, 10.0)
    completed = np.concatenate([rows, np.full((len(rows), 1), 160.0)], axis=1)
    assert _INSIDE[stage].tolist() == _isolation_inside(completed)


@pytest.mark.parametrize("seed", [1, 2])
def test_n1_nonnegative_rows_are_accepted_before_the_oracle(seed):
    for k in (0, 2, 4, 6):
        _, rows = next(_ball_chunks(k + 1, 4096, seed))
        with mock.patch.object(volume, "is_nonneg_on_halfline",
                               wraps=is_nonneg_on_halfline) as spy, \
                mock.patch.object(volume, "_batch_members",
                                  wraps=exact._batch_members) as batch:
            stage = _classify_rows(rows, (1,), k, CFG, 0)[0]
        signs_pass = (rows[:, 0] >= 0) & (rows[:, k] >= 0)
        nonneg = signs_pass & (rows >= 0).all(axis=1)
        assert (stage == STAGES.index("coeffs_nonneg")).tolist() == \
            nonneg.tolist()
        # none of them reaches the oracle, per row or in the batch
        batch_rows = [r for c in batch.call_args_list for r in c.args[0]]
        assert (spy.call_count + len(batch_rows) > 0) == (k > 0)
        assert all(min(c.args[0].coeffs) < 0 for c in spy.call_args_list)
        assert all(min(r) < 0 for r in batch_rows)
        e = estimate_cone_fraction(1, k, 4096, replace(CFG, seed=seed))
        assert e.stages["coeffs_nonneg"] > 0
        assert e.stages["oracle_inside"] + e.stages["coeffs_nonneg"] == \
            e.n_inside


# integer coefficients of degree-2 and degree-3 rows: small, zero, or near
# 2^200
_COEFF = st.one_of(st.integers(-9, 9), st.integers(-2 ** 201, 2 ** 201),
                   st.integers(2 ** 200 - 9, 2 ** 200 + 9).map(
                       lambda v: v * (-1) ** (v % 3)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=st.lists(st.lists(_COEFF, min_size=3, max_size=4),
                     min_size=1, max_size=5))
@example(rows=[[4, -4, 1], [1, -1, -1, 1]])     # (x - 2)^2, (x - 1)^2 (x + 1)
@example(rows=[[2, -3, 1], [1, 0, -3, 1]])      # discriminants 1 and 81 - 4
@example(rows=[[2 ** 200, -2 ** 201, 2 ** 200], [0, -1, 1], [1, -2, 0, 1]])
def test_low_degree_batch_decides_as_the_per_row_oracle(rows):
    """The oracle rows of degree 2 or 3 with no zero coefficient are decided
    in one batch by their discriminants, as the per-row oracle decides them;
    a row with a zero coefficient goes to the per-row oracle."""
    for k in (2, 3):
        ints = np.array([r[:k + 1] for r in rows if len(r) > k], dtype=object)
        if not len(ints):
            continue
        # the rows that reach the oracle: ends >= 0, a negative coefficient
        ints = ints[(ints[:, 0] >= 0) & (ints[:, k] >= 0)
                    & (ints < 0).any(axis=1)]
        floats = ints.astype(float)
        with mock.patch.object(volume, "is_nonneg_on_halfline",
                               wraps=is_nonneg_on_halfline) as spy, \
                mock.patch.object(volume, "_batch_members",
                                  wraps=exact._batch_members) as batch:
            stage = volume._oracle_stages(floats, ints, k)
        want = [is_nonneg_on_halfline(RationalPolynomial(r))
                for r in ints.tolist()]
        assert (stage == _ORACLE_INSIDE).tolist() == want
        zero = (ints == 0).any(axis=1).tolist()
        assert [c.args[1] for c in spy.call_args_list] == \
            [r for r, z in zip(ints.tolist(), zero) if z]
        batch_rows = [r for c in batch.call_args_list
                      for r in c.args[0].tolist()]
        assert batch_rows == [r for r, z in zip(ints.tolist(), zero) if not z]


def test_first_split_members_skip_the_per_row_oracle():
    """At degree >= 4 the batch only proves members: a row that the first
    Bernstein split proves reaches neither the certificate nor the per-row
    oracle, and each row it leaves, or that has a zero coefficient and
    skips it, calls the public oracle exactly once."""
    rows = [[1, 1, -1, 1, 1, 1, 1],        # proved at the first split
            [9, 3, 4, 4, 4, -5, 1],        # (x - 3)^2 (1 + ... + x^4)
            [1, -3, 1, 1, 1, 1, 1],        # dips below 0 near x = 0.4
            [1, 1, -1, 0, 1, 1, 1]]        # a zero: per row
    ints = np.array(rows, dtype=object)
    with mock.patch.object(volume, "is_nonneg_on_halfline",
                           wraps=is_nonneg_on_halfline) as spy, \
            mock.patch.object(volume, "_batch_members",
                              wraps=exact._batch_members) as batch, \
            mock.patch.object(exact, "_bernstein_certifies",
                              wraps=exact._bernstein_certifies) as cert:
        stage = volume._oracle_stages(ints.astype(float), ints, 6)
    assert (stage == _ORACLE_INSIDE).tolist() == [True, True, False, True]
    assert [r for c in batch.call_args_list
            for r in c.args[0].tolist()] == rows[:3]
    assert [c.args[1] for c in spy.call_args_list] == rows[1:]
    assert [list(c.args[0]) for c in cert.call_args_list] == rows[1:]


def _decided_ref(p: Polynomial, n: int, cfg: SearchConfig):
    """Per-polynomial reference for a row that passes the half-line oracle:
    the coefficient signs, for n = 2 the exact decision, for n >= 3 the
    Loewy certificate, else one refute with its own search. (stage, verdict
    of the search or None)."""
    if min(p.coeffs) >= 0:
        return STAGES.index("coeffs_nonneg"), None
    if n == 2:
        return STAGES.index("order2_inside" if is_order2_member(p)
                            else "order2_rejected"), None
    if loewy_certificate(p, n) is not None:
        return STAGES.index("loewy_cone"), None
    verdict = refute(p, n, cfg)
    return STAGES.index("search_refuted" if isinstance(verdict, Refuted)
                        else "search_exhausted"), verdict


def _per_row_stages(rows: np.ndarray, n: int, k: int,
                    cfg: SearchConfig) -> list:
    """Per-row reference for a first chunk: sign, the coefficient signs,
    grid and oracle, then _decided_ref on each row that passes them."""
    out = []
    for idx, r in enumerate(rows):
        if (r[:n] < 0).any() or (r[max(0, k + 1 - n):] < 0).any():
            out.append(STAGES.index("sign"))
        elif (r >= 0).all():
            out.append(STAGES.index("coeffs_nonneg"))
        elif volume._grid_refuted(r[None],
                                  [exact._integer_coeffs(r.tolist())])[0]:
            out.append(STAGES.index("grid"))
        elif not is_nonneg_on_halfline(RationalPolynomial(r)):
            out.append(STAGES.index("oracle_rejected"))
        else:
            per = replace(cfg, seed=volume._sample_seed(cfg.seed, idx))
            out.append(_decided_ref(Polynomial(r), n, per)[0])
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_search_matches_per_row_refute(seed):
    cfg = SearchConfig(restarts=3, max_iters=120, seed=seed)
    searched = nonneg = order2 = 0
    # at n = 3 only k = 6 leaves a coefficient free of the sign stage
    for n, k in [*itertools.product((2, 3), (4, 5)), (3, 6)]:
        _, rows = next(_ball_chunks(k + 1, 300 if k < 6 else 1000, seed))
        with mock.patch.object(membership, "_search",
                               wraps=membership._search) as spy:
            stage = _classify_rows(rows, (n,), k, cfg, 0)[0]
        assert stage.tolist() == _per_row_stages(rows, n, k, cfg)
        # one search batch holding exactly the searched rows, in row order;
        # none at n = 2, and none on a row whose coefficients are all >= 0
        hit = np.flatnonzero(stage >= STAGES.index("search_refuted"))
        assert [[p.coeffs for p in c.args[0]] for c in spy.call_args_list] \
            == ([[tuple(rows[i]) for i in hit]] if len(hit) else [])
        assert n == 3 or len(hit) == 0
        searched += len(hit)
        nonneg += int((stage == STAGES.index("coeffs_nonneg")).sum())
        order2 += int(np.isin(stage, [STAGES.index("order2_rejected"),
                                      STAGES.index("order2_inside")]).sum())
    assert searched > 0 and nonneg > 0 and order2 > 0


@settings(max_examples=30, derandomize=True, deadline=None)
@given(coeffs=st.lists(st.integers(0, 6) | st.sampled_from([1e-300, 1e300]),
                       min_size=1, max_size=7),
       n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32))
def test_nonnegative_coefficients_are_never_refuted(coeffs, n, seed):
    # what lets coeffs_nonneg skip the search: sum c_k A^k >= 0 for every
    # nonnegative A, so no search finds a witness
    cfg = SearchConfig(restarts=4, max_iters=80, seed=seed)
    assert not isinstance(refute(Polynomial(coeffs), n, cfg), Refuted)


def _ladder_ref(v: np.ndarray, n: int, cfg: SearchConfig,
                c_cap: float) -> int:
    """Per-row reference for the projection by a doubling ladder: _decided_ref
    on each completion v + c_cap 2^j x^(k+1), j = 0..4, that passes the
    half-line oracle, up to the first one inside. Upward closure (adding
    c x^(k+1), c >= 0, never leaves the cone) makes the top rung alone give
    the same inside mask wherever every rung is decided exactly."""
    stage = STAGES.index("oracle_rejected")
    for j in range(5):
        completed = Polynomial(list(v) + [c_cap * 2.0 ** j])
        if not is_nonneg_on_halfline(
                RationalPolynomial.from_polynomial(completed)):
            continue
        stage = _decided_ref(completed, n, cfg)[0]
        if _INSIDE[stage]:
            break
    return stage


def _completed(rows: np.ndarray, c_cap: float) -> np.ndarray:
    return np.concatenate([rows, np.full((len(rows), 1), 16.0 * c_cap)],
                          axis=1)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n,k", [pytest.param(2, 4, id="4"),
                                 pytest.param(2, 5, id="5")])
def test_projection_ladder_matches_per_row_ladder(seed, n, k):
    # n = 2 completions are decided exactly, so the top completion alone
    # gives the ladder's inside mask; its stages are those of the completed
    # rows classified one by one
    c_cap = 10.0
    cfg = SearchConfig(restarts=3, max_iters=120, seed=seed)
    _, rows = next(_ball_chunks(k + 1, 200, seed))
    ref = [STAGES.index("sign")
           if (r[:n] < 0).any() or (r[k + 2 - n:] < 0).any()
           else _ladder_ref(r, n, cfg, c_cap) for r in rows]
    with mock.patch.object(membership, "_search",
                           wraps=membership._search) as spy:
        stage = _projection_rows(rows, n, k, cfg, 0, c_cap)
    assert _INSIDE[stage].tolist() == _INSIDE[ref].tolist()
    assert stage.tolist() == _per_row_stages(_completed(rows, c_cap), n,
                                             k + 1, cfg)
    assert spy.call_count == 0
    assert {"coeffs_nonneg", "order2_inside", "order2_rejected"} <= \
        {STAGES[s] for s in stage}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_projection_searches_the_open_top_completions(seed):
    # at n = 3 the completions left open by the exact stages are one search
    # batch per chunk, in row order, each with its sample's own seed; a
    # refuted completion's witness proves the row outside for every
    # c <= 16 c_cap
    n, k, c_cap = 3, 6, 10.0
    cfg = SearchConfig(restarts=3, max_iters=120, seed=seed)
    _, rows = next(_ball_chunks(k + 1, 400, seed))
    start = 4096   # a later chunk: seeds come from the global sample index
    batches, real = [], membership._search

    def search(polys, n_, cfgs):
        verdicts = real(polys, n_, cfgs)
        batches.append((polys, cfgs, verdicts))
        return verdicts

    with mock.patch.object(membership, "_search", search):
        stage = _projection_rows(rows, n, k, cfg, start, c_cap)
    (polys, cfgs, verdicts), = batches
    hit = np.flatnonzero(stage >= STAGES.index("search_refuted")).tolist()
    completed = _completed(rows, c_cap)
    # the exact stages decide the completed rows as they do one by one
    ref = np.array(_per_row_stages(completed, n, k + 1, cfg))
    searched = ref >= STAGES.index("search_refuted")
    assert np.flatnonzero(searched).tolist() == hit
    assert (stage[~searched] == ref[~searched]).all()
    assert [p.coeffs for p in polys] == [tuple(completed[i]) for i in hit]
    assert [c.seed for c in cfgs] == \
        [volume._sample_seed(seed, start + i) for i in hit]
    refuted = [isinstance(v, Refuted) for v in verdicts]
    assert (stage[hit] == STAGES.index("search_refuted")).tolist() == refuted
    assert any(refuted) and not all(refuted)
    for p, v in zip(polys, verdicts):
        if isinstance(v, Refuted):
            assert membership.confirm_witness(p, v.witness)


def test_projection_contains_cone_per_sample():
    for n, k in [(1, 2), (2, 4)]:
        _, rows = next(_ball_chunks(k + 1, 3000, CFG.seed))
        cone = _INSIDE[_classify_rows(rows, (n,), k, CFG, 0)[0]]
        assert cone.any()
        assert _INSIDE[_projection_rows(rows, n, k, CFG, 0, 10.0)][cone].all()
        ep = estimate_projection_fraction(n, k, 3000, CFG)
        ec = estimate_cone_fraction(n, k, 3000, CFG)
        assert ep.seed == ec.seed
        assert ep.n_inside >= ec.n_inside


def test_projection_examples():
    v = np.array([0.0, 1.0, -2.0]) / np.sqrt(5.0)
    rows = v[None, :]
    assert _INSIDE[_projection_rows(rows, 1, 2, CFG, 0, 10.0)][0]
    assert not _INSIDE[_classify_rows(rows, (1,), 2, CFG, 0)[0]][0]
    neg = np.array([-0.3, 0.5, 0.1])
    assert not _INSIDE[_classify_rows(neg[None, :], (1,), 2, CFG, 0)[0]][0]
    q = np.polynomial.polynomial.polyval(np.linspace(0, 3, 50),
                                         np.append(neg, 10.0))
    assert q.min() < 0.0   # completion cannot rescue a negative constant


def test_compare_projection_confirmed():
    rep = compare_experiment("projection", {"n": 1, "k": 2}, 3000, CFG)
    assert rep["expected"]
    assert rep["observed_direction_holds"] and rep["ci_separated"]
    assert rep["confirmed"] is True


def test_compare_degree_direction():
    rep = compare_experiment("degree", {"n": 1, "k_a": 2, "k_b": 6}, 3000, CFG)
    assert rep["estimates"][0]["fraction"] > rep["estimates"][1]["fraction"]
    assert rep["confirmed"] in (True, False)


def test_compare_trend_reports_data_only():
    rep = compare_experiment("trend", {"n": 1, "ks": [2, 4, 6]}, 1500, CFG)
    assert "confirmed" not in rep
    fr = [e["fraction"] for e in rep["estimates"]]
    assert len(fr) == 3
    assert rep["monotone_decreasing"] == all(a > b for a, b in zip(fr, fr[1:]))


def test_compare_order_small():
    small = SearchConfig(restarts=6, max_iters=80, seed=17)
    rep = compare_experiment("order", {"n_a": 1, "n_b": 2, "k": 4}, 400, small)
    a, b = rep["estimates"]
    assert a["bias"] == "Exact" and b["bias"] == "Exact"
    assert rep["observed_direction_holds"]
    # only samples that pass the order-1 stages reach the order-2 decision,
    # and no n = 2 sample is searched
    st = b["stages"]
    decided = st["order2_rejected"] + st["order2_inside"]
    assert 0 < decided <= a["n_inside"]
    assert st["order2_rejected"] > 0 and st["order2_inside"] > 0
    assert st["search_refuted"] == st["search_exhausted"] == 0
    assert st["coeffs_nonneg"] > 0
    assert st["order2_inside"] + st["coeffs_nonneg"] == b["n_inside"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("n_a, n_b", [(1, 2), (1, 3), (2, 3)])
def test_compare_order_equals_separate_estimates(n_a, n_b, k, seed):
    # one pass classifies the shared samples for both orders: each estimate
    # is the one its order gives alone, stage counts included, the chunks
    # are drawn once, and the higher order sends no row of its own to the
    # half-line oracle; N takes a second chunk, whose sample indices, and so
    # search seeds, start at 4096
    cfg, N = SearchConfig(restarts=2, max_iters=60, seed=seed), 4200
    with mock.patch.object(volume, "is_nonneg_on_halfline",
                           wraps=is_nonneg_on_halfline) as oracle, \
            mock.patch.object(volume, "_ball_chunks",
                              wraps=volume._ball_chunks) as chunks:
        rep = compare_experiment("order", {"n_a": n_a, "n_b": n_b, "k": k},
                                 N, cfg)
    assert chunks.call_count == 1
    joint = [c.args[0].coeffs for c in oracle.call_args_list]
    alone, seen = [], []
    for n in (n_a, n_b):
        with mock.patch.object(volume, "is_nonneg_on_halfline",
                               wraps=is_nonneg_on_halfline) as oracle:
            alone.append(estimate_cone_fraction(n, k, N, cfg).to_json_dict())
        seen.append([c.args[0].coeffs for c in oracle.call_args_list])
    assert rep["estimates"] == alone
    # the oracle got the rows of the lower order alone, which hold those of
    # the higher order
    assert joint == seen[0] and set(seen[1]) <= set(seen[0])


def test_order2_estimate_runs_no_lockstep():
    # the n = 2 estimate of a seed-1 compare order call, as the benchmark
    # runs it: every row is decided exactly, none is searched
    cfg = SearchConfig(restarts=3, max_iters=120, seed=1)
    with mock.patch.object(membership, "_lockstep",
                           side_effect=AssertionError("lockstep ran")):
        rep = compare_experiment("order", {"n_a": 1, "n_b": 2, "k": 4}, 250,
                                 cfg)
    b = rep["estimates"][1]
    assert b["bias"] == "Exact"
    assert b["stages"]["order2_rejected"] + b["stages"]["order2_inside"] > 0


def test_csv_format():
    e = estimate_cone_fraction(1, 2, 500, CFG)
    text = estimates_csv([e])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    parts = lines[1].split(",")
    assert parts[0] == "2" and parts[1] == "1" and parts[2] == "500"
    assert parts[7] == str(CFG.seed)


def test_estimate_json_dict():
    e = estimate_cone_fraction(1, 2, 500, CFG)
    d = e.to_json_dict()
    assert d["n_inside"] + d["n_refuted"] == 500
    assert d["config"]["seed"] == CFG.seed
    stages = d["stages"]
    assert tuple(stages) == STAGES and sum(stages.values()) == 500
    # an n = 1 row with no negative coefficient is accepted before the
    # oracle
    assert stages["oracle_inside"] > 0 and stages["coeffs_nonneg"] > 0
    assert stages["oracle_inside"] + stages["coeffs_nonneg"] == d["n_inside"]
    assert stages["search_refuted"] == stages["search_exhausted"] == 0
    with pytest.raises(AssertionError):
        VolumeEstimate(**{**e.__dict__,
                          "stages": dict(stages, sign=stages["sign"] + 1)})
