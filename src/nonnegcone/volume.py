"""Monte-Carlo volume fractions of the cone inside the coefficient ball.

Samples are uniform in the closed unit ball of coefficient space (dimension
k+1 for degree-k polynomials). Each sample is decided by the first of these
stages that settles it, cheapest first; the estimate counts the samples each
stage decided:

1. sign: a negative coefficient among the first or last n rejects;
2. grid: a vectorized scan whose negative hit is confirmed at one exactly
   evaluated rational point rejects;
3. oracle: the exact half-line oracle (a Bernstein certificate in integers,
   then a Sturm count for the rows it leaves) decides every remaining row,
   rejecting ("oracle_rejected") or accepting ("oracle_inside");
4. search, n >= 2 only: a budgeted refutation search on every row that
   passed 3 either finds a witness ("search_refuted") or exhausts its
   budget ("search_exhausted").

Only the last step can err, and only in one direction: a missed witness
counts an outsider as inside, so n >= 2 estimates are labeled UpperBiased
while n = 1 estimates are Exact. Projection estimates run the same stages on
the completed polynomial; for n >= 2 they skip the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import Polynomial
from .exact import RationalPolynomial, is_nonneg_on_halfline
from .membership import Refuted, SearchConfig, refute

_CHUNK = 4096
_GRID = np.concatenate([np.linspace(0.0, 2.0, 33),
                        np.geomspace(2.5, 1000.0, 32)])

# the stage that decided a sample, in pipeline order; _classify_rows and
# _projection_rows return one code per row
STAGES = ("sign", "grid", "oracle_rejected", "oracle_inside",
          "search_refuted", "search_exhausted")
(_SIGN, _GRID_HIT, _ORACLE_REJECTED, _ORACLE_INSIDE, _SEARCH_REFUTED,
 _SEARCH_EXHAUSTED) = range(len(STAGES))
# whether a sample decided at each stage counts as inside
_INSIDE = np.array([False, False, False, True, False, True])


@dataclass(frozen=True)
class VolumeEstimate:
    n: int
    k: int
    dim: int
    n_samples: int
    n_inside: int
    n_refuted: int
    fraction: float
    ci_low: float
    ci_high: float
    z: float
    bias: str                  # "Exact" or "UpperBiased"
    cfg: SearchConfig
    seed: int
    # samples decided at each of STAGES; None under a classifier_override
    stages: Optional[dict[str, int]] = None

    def __post_init__(self):
        assert self.n_inside + self.n_refuted == self.n_samples
        if self.stages is not None:
            assert tuple(self.stages) == STAGES
            assert sum(self.stages.values()) == self.n_samples
            assert sum(v for v, inside in zip(self.stages.values(), _INSIDE)
                       if inside) == self.n_inside
        assert 0.0 <= self.ci_low <= self.fraction + 1e-15
        assert self.fraction <= self.ci_high + 1e-15 and self.ci_high <= 1.0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "dim": self.dim,
            "n_samples": self.n_samples, "n_inside": self.n_inside,
            "n_refuted": self.n_refuted, "fraction": self.fraction,
            "ci_low": self.ci_low, "ci_high": self.ci_high, "z": self.z,
            "bias": self.bias, "seed": self.seed,
            "config": self.cfg.to_json_dict(), "stages": self.stages,
        }

    def csv_row(self) -> str:
        return (f"{self.k},{self.n},{self.n_samples},{self.fraction!r},"
                f"{self.ci_low!r},{self.ci_high!r},{self.bias},{self.seed}")


CSV_HEADER = "k,n,N,fraction,ci_low,ci_high,bias,seed"


def estimates_csv(rows: Sequence[VolumeEstimate]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def wilson_interval(inside: int, total: int, z: float) -> tuple[float, float]:
    assert total >= 1 and 0 <= inside <= total
    p = inside / total
    zz = z * z
    denom = 1.0 + zz / total
    center = (p + zz / (2.0 * total)) / denom
    half = z * np.sqrt(p * (1.0 - p) / total + zz / (4.0 * total * total)) / denom
    lo = 0.0 if inside == 0 else max(0.0, center - half)
    hi = 1.0 if inside == total else min(1.0, center + half)
    return float(lo), float(hi)


def sample_ball(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point in the closed unit ball: Gaussian direction, U^(1/dim)."""
    assert dim >= 1
    g = rng.standard_normal(dim)
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return np.zeros(dim)
    r = float(rng.random()) ** (1.0 / dim)
    return (r / norm) * g


def _ball_chunks(dim: int, total: int, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Deterministic chunked sample stream; chunk c depends only on (seed, c),
    so a given sample index yields the same point for any total."""
    n_chunks = -(-total // _CHUNK)
    for c in range(n_chunks):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, c])
        g = rng.standard_normal((_CHUNK, dim))
        u = rng.random(_CHUNK)
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        pts = g * (u ** (1.0 / dim) / norms)[:, None]
        take = min(_CHUNK, total - c * _CHUNK)
        yield c * _CHUNK, pts[:take]


def _sample_seed(seed: int, idx: int) -> int:
    return (seed + 0x9E3779B97F4A7C15 * (idx + 1)) & 0xFFFFFFFFFFFFFFFF


def _grid_refuted(rows: np.ndarray) -> np.ndarray:
    """Mask of coefficient rows exactly negative at their grid minimum."""
    vals = np.polynomial.polynomial.polyval(_GRID, rows.T)
    argmins = vals.argmin(axis=1)
    out = np.zeros(rows.shape[0], dtype=bool)
    for i in np.where(vals.min(axis=1) < 0.0)[0]:
        x = Fraction(float(_GRID[argmins[i]]))
        out[i] = RationalPolynomial(rows[i])(x) < 0
    return out


def _halfline_stages(rows: np.ndarray) -> np.ndarray:
    """_ORACLE_INSIDE or _ORACLE_REJECTED for each coefficient row."""
    return np.array([_ORACLE_INSIDE if is_nonneg_on_halfline(
        RationalPolynomial(r)) else _ORACLE_REJECTED for r in rows.tolist()],
        dtype=int)


def _classify_rows(rows: np.ndarray, n: int, k: int, cfg: SearchConfig,
                   start_idx: int) -> np.ndarray:
    """The deciding stage of each coefficient row (degree k) of a chunk."""
    stage = np.full(rows.shape[0], _SIGN)
    # sign rejections on the first and last n coefficient positions; these
    # are valid even when the leading coefficient vanishes, because a
    # negative entry at one of the checked positions is in-range either way
    low_bad = (rows[:, :n] < 0.0).any(axis=1)
    high_bad = (rows[:, max(0, k + 1 - n):] < 0.0).any(axis=1)
    sub = np.flatnonzero(~(low_bad | high_bad))
    hit = _grid_refuted(rows[sub])
    stage[sub[hit]] = _GRID_HIT
    sub = sub[~hit]
    stage[sub] = _halfline_stages(rows[sub])
    if n >= 2:
        for i in np.flatnonzero(_INSIDE[stage]):
            per = replace(cfg, seed=_sample_seed(cfg.seed, start_idx + int(i)))
            refuted = isinstance(refute(Polynomial(rows[i]), n, per), Refuted)
            stage[i] = _SEARCH_REFUTED if refuted else _SEARCH_EXHAUSTED
    return stage


def _estimate(classify: Callable[[np.ndarray, int], np.ndarray], n: int,
              k: int, N: int, cfg: SearchConfig, z: float) -> VolumeEstimate:
    """The estimate from the stage counts of classify(rows, start_idx) over
    the sample chunks."""
    stages = np.zeros(len(STAGES), dtype=np.int64)
    for start, rows in _ball_chunks(k + 1, N, cfg.seed):
        stages += np.bincount(classify(rows, start), minlength=len(STAGES))
    n_inside = int(stages[_INSIDE].sum())
    lo, hi = wilson_interval(n_inside, N, z)
    bias = "Exact" if n == 1 else "UpperBiased"
    return VolumeEstimate(n, k, k + 1, N, n_inside, N - n_inside,
                          n_inside / N, lo, hi, z, bias, cfg, cfg.seed,
                          dict(zip(STAGES, stages.tolist())))


def estimate_cone_fraction(
        n: int, k: int, N: int, cfg: Optional[SearchConfig] = None,
        classifier_override: Optional[Callable[[np.ndarray], bool]] = None,
        z: float = 3.0) -> VolumeEstimate:
    """Fraction of the unit coefficient ball inside the order-n degree-k cone.

    classifier_override replaces the whole membership pipeline (used for
    calibration against sets of known volume); its estimate has no stage
    counts.
    """
    assert n >= 1 and k >= 0 and N >= 1
    if cfg is None:
        cfg = SearchConfig(restarts=20, max_iters=120)
    if classifier_override is not None:
        n_inside = sum(bool(classifier_override(r))
                       for _, rows in _ball_chunks(k + 1, N, cfg.seed)
                       for r in rows)
        lo, hi = wilson_interval(n_inside, N, z)
        return VolumeEstimate(n, k, k + 1, N, n_inside, N - n_inside,
                              n_inside / N, lo, hi, z, "Exact", cfg, cfg.seed)
    return _estimate(lambda rows, start: _classify_rows(rows, n, k, cfg, start),
                     n, k, N, cfg, z)


def _projection_ladder_stage(v: np.ndarray, n: int, k: int,
                             cfg: SearchConfig, idx: int, c_cap: float) -> int:
    """Deciding stage, for n >= 2, of whether v lies in the image of the
    degree-(k+1) cone after dropping the top coefficient: decided by
    completing with c x^(k+1).

    Upward closure (adding c x^(k+1) with c >= 0 never leaves the cone)
    collapses the existential over c to tests along a doubling ladder. The
    ladder climbs only while the refutation is marginal (witness value above
    -0.05), since searching at huge c degrades witness visibility.
    """
    stage = _ORACLE_REJECTED
    for j in range(5):                                # c_cap .. 16 c_cap
        completed = Polynomial(list(v) + [c_cap * 2.0 ** j])
        q = RationalPolynomial.from_polynomial(completed)
        if not is_nonneg_on_halfline(q):
            continue    # failures below the half-line bar can heal at larger c
        per = replace(cfg, seed=_sample_seed(cfg.seed, idx))
        verdict = refute(completed, n, per)
        if not isinstance(verdict, Refuted):
            return _SEARCH_EXHAUSTED
        stage = _SEARCH_REFUTED
        if verdict.witness.value <= -0.05:
            break
    return stage


def _projection_rows(rows: np.ndarray, n: int, k: int, cfg: SearchConfig,
                     start_idx: int, c_cap: float) -> np.ndarray:
    """The deciding stage of each row of a chunk for the projected cone.

    For n = 1 the completion at the top of the ladder, 16 c_cap, alone is
    decisive and exact, and goes through the grid and the oracle.
    """
    stage = np.full(rows.shape[0], _SIGN)
    bad = (rows[:, :n] < 0.0).any(axis=1)
    if n >= 2:
        # completed high block includes positions k+2-n..k of v
        bad |= (rows[:, k + 2 - n:] < 0.0).any(axis=1)
        for i in np.flatnonzero(~bad):
            stage[i] = _projection_ladder_stage(rows[i], n, k, cfg,
                                                start_idx + int(i), c_cap)
        return stage
    sub = np.flatnonzero(~bad)
    completed = np.concatenate(
        [rows[sub], np.full((sub.size, 1), 16.0 * c_cap)], axis=1)
    hit = _grid_refuted(completed)
    stage[sub[hit]] = _GRID_HIT
    stage[sub[~hit]] = _halfline_stages(completed[~hit])
    return stage


def estimate_projection_fraction(
        n: int, k: int, N: int, cfg: Optional[SearchConfig] = None,
        c_cap: float = 10.0, z: float = 3.0) -> VolumeEstimate:
    """Fraction of the ball whose points extend to one-degree-higher members."""
    assert n >= 1 and k >= 2 * n and N >= 1
    if cfg is None:
        cfg = SearchConfig(restarts=20, max_iters=120)
    return _estimate(
        lambda rows, start: _projection_rows(rows, n, k, cfg, start, c_cap),
        n, k, N, cfg, z)


def _separated(a: VolumeEstimate, b: VolumeEstimate) -> bool:
    return a.ci_low > b.ci_high or b.ci_low > a.ci_high


def compare_experiment(kind: str, params: dict, N: int,
                       cfg: Optional[SearchConfig] = None) -> dict:
    """Paired comparison experiments on a shared seed and sample budget.

    Reports both estimates, the expected inequality direction, whether the
    observed point estimates follow it, and whether the z-level confidence
    intervals separate. A direction is never reported as confirmed while
    the intervals overlap.
    """
    if cfg is None:
        cfg = SearchConfig(restarts=20, max_iters=120)
    if kind == "trend":
        n = int(params["n"])
        ks = [int(k) for k in params["ks"]]
        ests = [estimate_cone_fraction(n, k, N, cfg) for k in ks]
        fr = [e.fraction for e in ests]
        return {"kind": kind, "params": params, "n_samples": N,
                "estimates": [e.to_json_dict() for e in ests],
                "expected": "fractions drift toward zero as degree grows",
                "monotone_decreasing": all(x > y for x, y in zip(fr, fr[1:])),
                "note": "reported as data; a finite sweep cannot settle a limit"}
    if kind == "order":
        n_a, n_b, k = int(params["n_a"]), int(params["n_b"]), int(params["k"])
        assert n_a < n_b
        a = estimate_cone_fraction(n_a, k, N, cfg)
        b = estimate_cone_fraction(n_b, k, N, cfg)
        expected = "fraction decreases when the matrix order increases"
    elif kind == "projection":
        n, k = int(params["n"]), int(params["k"])
        a = estimate_projection_fraction(n, k, N, cfg)
        b = estimate_cone_fraction(n, k, N, cfg)
        expected = ("the projected higher-degree cone fills more of the ball "
                    "than the same-degree cone")
    elif kind == "degree":
        n = int(params["n"])
        k_a, k_b = int(params["k_a"]), int(params["k_b"])
        assert k_a < k_b
        a = estimate_cone_fraction(n, k_a, N, cfg)
        b = estimate_cone_fraction(n, k_b, N, cfg)
        expected = "fraction decreases as the degree grows"
    else:
        raise ValueError(f"unknown experiment kind {kind!r}")
    holds = b.fraction < a.fraction    # each pair expects a above b
    sep = _separated(a, b)
    return {"kind": kind, "params": params, "n_samples": N,
            "estimates": [a.to_json_dict(), b.to_json_dict()],
            "expected": expected, "observed_direction_holds": holds,
            "ci_separated": sep, "confirmed": bool(holds and sep)}
