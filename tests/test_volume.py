"""Ball sampling, Wilson intervals, volume fractions, paired experiments."""

from unittest import mock

import numpy as np
import pytest

from nonnegcone import exact
from nonnegcone.exact import RationalPolynomial, is_nonneg_on_halfline
from nonnegcone.membership import SearchConfig
from nonnegcone.volume import (
    CSV_HEADER,
    STAGES,
    VolumeEstimate,
    estimate_cone_fraction,
    estimate_projection_fraction,
    estimates_csv,
    compare_experiment,
    sample_ball,
    wilson_interval,
)
from nonnegcone.volume import (
    _INSIDE,
    _ball_chunks,
    _classify_rows,
    _projection_rows,
)

CFG = SearchConfig(restarts=10, max_iters=100, seed=13)


def test_sample_ball_dim1():
    rng = np.random.default_rng(1)
    xs = np.array([sample_ball(1, rng)[0] for _ in range(4000)])
    assert np.all(np.abs(xs) <= 1.0)
    assert abs(xs.mean()) < 3.0 / np.sqrt(12.0) / np.sqrt(4000) * 3.0
    frac_half = np.mean(np.abs(xs) <= 0.5)
    assert frac_half == pytest.approx(0.5, abs=3 * 0.5 / np.sqrt(4000))


def test_sample_ball_radius_scaling():
    rng = np.random.default_rng(2)
    dim = 3
    pts = np.array([sample_ball(dim, rng) for _ in range(4000)])
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= 1.0 + 1e-12)
    got = np.mean(norms <= 0.5)
    target = 0.5 ** dim
    sigma = np.sqrt(target * (1 - target) / 4000)
    assert abs(got - target) <= 3 * sigma
    # coordinate means vanish
    for d in range(dim):
        assert abs(pts[:, d].mean()) <= 3 * pts[:, d].std() / np.sqrt(4000)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100, 3.0)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100, 3.0)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(30, 100, 3.0)
    assert 0.0 <= lo <= 0.3 <= hi <= 1.0


def test_calibration_hooks():
    e = estimate_cone_fraction(1, 3, 1500, CFG, classifier_override=lambda v: True)
    assert e.fraction == 1.0 and e.n_inside == 1500
    e = estimate_cone_fraction(1, 3, 20000, CFG,
                               classifier_override=lambda v: bool((v >= 0).all()))
    assert e.ci_low <= 2.0 ** (-4) <= e.ci_high
    e = estimate_cone_fraction(1, 2, 20000, CFG,
                               classifier_override=lambda v: bool(v[0] >= 0))
    assert e.ci_low <= 0.5 <= e.ci_high
    assert e.stages is None and e.to_json_dict()["stages"] is None


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
    in1 = _INSIDE[_classify_rows(rows, 1, 4, small, 0)]
    in2 = _INSIDE[_classify_rows(rows, 2, 4, small, 0)]
    assert np.all(~in2 | in1)
    assert in2.sum() <= in1.sum()


def _oracle_inside(rows: np.ndarray) -> list:
    """Per-row reference: the Sturm count alone on each float row, with the
    oracle's Bernstein certificate switched off."""
    with mock.patch.object(exact, "_bernstein_certifies", return_value=False):
        return [is_nonneg_on_halfline(RationalPolynomial(r)) for r in rows]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunk_classification_matches_per_row_oracle(seed):
    for k in (0, 1, 2, 4, 6):
        _, rows = next(_ball_chunks(k + 1, 4096, seed))
        stage = _classify_rows(rows, 1, k, CFG, 0)
        assert _INSIDE[stage].tolist() == _oracle_inside(rows)
    _, rows = next(_ball_chunks(3, 4096, seed))
    stage = _projection_rows(rows, 1, 2, CFG, 0, 10.0)
    completed = np.concatenate([rows, np.full((len(rows), 1), 160.0)], axis=1)
    assert _INSIDE[stage].tolist() == _oracle_inside(completed)


def test_projection_contains_cone_per_sample():
    ep = estimate_projection_fraction(1, 2, 3000, CFG)
    ec = estimate_cone_fraction(1, 2, 3000, CFG)
    assert ep.seed == ec.seed
    assert ep.n_inside >= ec.n_inside


def test_projection_examples():
    v = np.array([0.0, 1.0, -2.0]) / np.sqrt(5.0)
    rows = v[None, :]
    assert _INSIDE[_projection_rows(rows, 1, 2, CFG, 0, 10.0)][0]
    assert not _INSIDE[_classify_rows(rows, 1, 2, CFG, 0)][0]
    neg = np.array([-0.3, 0.5, 0.1])
    assert not _INSIDE[_classify_rows(neg[None, :], 1, 2, CFG, 0)][0]
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
    assert a["bias"] == "Exact" and b["bias"] == "UpperBiased"
    assert rep["observed_direction_holds"]
    # only samples that pass the order-1 stages reach the search
    searched = b["stages"]["search_refuted"] + b["stages"]["search_exhausted"]
    assert 0 < searched <= a["n_inside"]
    assert b["stages"]["search_exhausted"] == b["n_inside"]


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
    assert stages["oracle_inside"] == d["n_inside"]
    assert stages["search_refuted"] == stages["search_exhausted"] == 0
    with pytest.raises(AssertionError):
        VolumeEstimate(**{**e.__dict__,
                          "stages": dict(stages, sign=stages["sign"] + 1)})
