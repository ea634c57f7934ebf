"""Monte-Carlo volume fractions of the cone inside the coefficient ball.

Samples are uniform in the closed unit ball of coefficient space (dimension
k+1 for degree-k polynomials). Each sample is decided by the first of these
stages that settles it, cheapest first; the estimate counts the samples each
stage decided:

1. sign: a negative coefficient among the first or last n rejects;
2. grid: a vectorized scan whose negative hit is confirmed at one exactly
   evaluated rational point rejects;
3. oracle: the exact half-line oracle (a Bernstein certificate, then root
   isolation for the rows it leaves, both in integers) decides every row left,
   rejecting ("oracle_rejected") or accepting ("oracle_inside");
4. coefficients, n >= 2 only: a row that passed 3 with every coefficient
   >= 0 is proved inside ("coeffs_nonneg"), since sum c_k A^k >= 0 for
   every nonnegative A; it is never searched;
5. Loewy cone, n >= 3 only: a row that passed 3 for which
   exact.loewy_certificate finds j, a and lam with every coefficient of
   p - lam x^j L_n(a x) >= 0 is proved inside ("loewy_cone"), given the
   paper's theorem that L_n = loewy_general(n, n, 0, 2) is in the order-n
   cone, which this package does not check;
6. order 2, n = 2 only: exact.is_order2_member decides every other row that
   passed 3, in integers, rejecting ("order2_rejected", with an exact
   rational counterexample matrix) or accepting ("order2_inside");
7. search, n >= 3, and the rare n = 2 rows that 6 leaves undecided: a
   budgeted refutation search either finds a witness ("search_refuted") or
   exhausts its budget ("search_exhausted"). The rows of a chunk are
   searched as one membership.prepare batch: each row's probes and
   certificate, then one Nelder-Mead lockstep for the rows those leave
   open, one stacked evaluation per step, so each verdict is the one a
   search of that row alone gives.

Only the last step can err, and only in one direction: a missed witness
counts an outsider as inside (step 5 rests on the paper's theorem, not on a
check made here). So an estimate is labeled Exact when no sample
is "search_exhausted", as every n = 1 and n = 2 estimate is in practice, and
UpperBiased otherwise. Projection estimates run the same stages on the
completed polynomial; for n >= 2 they skip the grid. The check command
still searches at n = 2 (see the membership docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import Polynomial
from .exact import (_integer_coeffs, _scaled_value, is_nonneg_on_halfline,
                    is_order2_member, loewy_certificate)
from .membership import (NoRefutationFound, Refuted, SearchConfig, Search,
                         Verdict, drive, prepare, refute)

_CHUNK = 4096
# the search budget of an estimate given no config
_DEFAULT_CFG = SearchConfig(restarts=20, max_iters=120)
_GRID = np.concatenate([np.linspace(0.0, 2.0, 33),
                        np.geomspace(2.5, 1000.0, 32)])

# the stage that decided a sample, in pipeline order; _classify_rows and
# _projection_rows return one code per row
STAGES = ("sign", "grid", "oracle_rejected", "oracle_inside",
          "coeffs_nonneg", "loewy_cone", "order2_rejected", "order2_inside",
          "search_refuted", "search_exhausted")
(_SIGN, _GRID_HIT, _ORACLE_REJECTED, _ORACLE_INSIDE, _COEFFS_NONNEG,
 _LOEWY_CONE, _ORDER2_REJECTED, _ORDER2_INSIDE, _SEARCH_REFUTED,
 _SEARCH_EXHAUSTED) = range(len(STAGES))
# whether a sample decided at each stage counts as inside
_INSIDE = np.array([False, False, False, True, True, True, False, True,
                    False, True])
# the stage of a searched sample, by the type of its verdict
_SEARCH_STAGE = {Refuted: _SEARCH_REFUTED,
                 NoRefutationFound: _SEARCH_EXHAUSTED}


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
    stages: dict[str, int]     # samples decided at each of STAGES

    def __post_init__(self):
        assert self.n_inside + self.n_refuted == self.n_samples
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


def _ball_chunks(dim: int, total: int, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """Deterministic chunked stream of points uniform in the closed unit
    ball (Gaussian direction, radius U^(1/dim)); chunk c depends only on
    (seed, c), so a given sample index yields the same point for any total."""
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


def _sample_cfg(cfg: SearchConfig, idx: int) -> SearchConfig:
    """The search config of sample idx: cfg with the sample's own seed."""
    return replace(cfg, seed=_sample_seed(cfg.seed, idx))


def _negative_at(row: list[float], x: float) -> bool:
    """Whether the polynomial with float coefficients row is negative at the
    float x, exactly: in integers, at the dyadic ratio of x."""
    return _scaled_value(_integer_coeffs(row), *x.as_integer_ratio()) < 0


def _grid_refuted(rows: np.ndarray) -> np.ndarray:
    """Mask of coefficient rows exactly negative at their grid minimum."""
    vals = np.polynomial.polynomial.polyval(_GRID, rows.T)
    argmins = vals.argmin(axis=1)
    out = np.zeros(rows.shape[0], dtype=bool)
    for i in np.where(vals.min(axis=1) < 0.0)[0]:
        out[i] = _negative_at(rows[i].tolist(), float(_GRID[argmins[i]]))
    return out


def _decided(items: list[tuple[Polynomial, SearchConfig]],
             n: int) -> list[tuple[int, Optional[Verdict]]]:
    """The deciding stage of each (polynomial, config) of a batch, n >= 2,
    with the verdict of its search where one ran.

    A polynomial with every coefficient >= 0 sends each nonnegative matrix
    A to sum c_k A^k >= 0, so it is inside with no search (floats are exact
    rationals, so the sign test is exact). For n = 2 is_order2_member
    decides the rest; for n >= 3 the Loewy certificate proves some inside
    (see the module docstring for its premise). What is left shares one
    prepare(), then each gets its own refute.
    """
    out: list[tuple[int, Optional[Verdict]]] = \
        [(_COEFFS_NONNEG, None)] * len(items)
    todo = []
    for t, (p, _) in enumerate(items):
        if min(p.coeffs) >= 0.0:
            continue
        if n >= 3:
            if loewy_certificate(p, n) is None:
                todo.append(t)
            else:
                out[t] = (_LOEWY_CONE, None)
            continue
        member = is_order2_member(p)
        if member is None:
            todo.append(t)
        else:
            out[t] = (_ORDER2_INSIDE if member else _ORDER2_REJECTED, None)
    if todo:
        polys, cfgs = zip(*(items[t] for t in todo))
        for t, p, cfg, prepared in zip(todo, polys, cfgs,
                                       prepare(polys, n, cfgs)):
            verdict = refute(p, n, cfg, prepared)
            out[t] = (_SEARCH_STAGE[type(verdict)], verdict)
    return out


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
    stage[sub] = [_ORACLE_INSIDE if is_nonneg_on_halfline(Polynomial(r))
                  else _ORACLE_REJECTED for r in rows[sub].tolist()]
    sub = np.flatnonzero(_INSIDE[stage])
    if n >= 2 and sub.size:
        stage[sub] = [s for s, _ in _decided(
            [(Polynomial(rows[i]), _sample_cfg(cfg, start_idx + i))
             for i in sub.tolist()], n)]
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
    bias = "Exact" if stages[_SEARCH_EXHAUSTED] == 0 else "UpperBiased"
    return VolumeEstimate(n, k, k + 1, N, n_inside, N - n_inside,
                          n_inside / N, lo, hi, z, bias, cfg, cfg.seed,
                          dict(zip(STAGES, stages.tolist())))


def estimate_cone_fraction(
        n: int, k: int, N: int, cfg: Optional[SearchConfig] = None,
        z: float = 3.0) -> VolumeEstimate:
    """Fraction of the unit coefficient ball inside the order-n degree-k cone."""
    if not (n >= 1 and k >= 0 and N >= 1):
        raise ValueError(f"need n >= 1, k >= 0 and N >= 1, got n={n}, k={k}, "
                         f"N={N}")
    if cfg is None:
        cfg = _DEFAULT_CFG
    return _estimate(lambda rows, start: _classify_rows(rows, n, k, cfg, start),
                     n, k, N, cfg, z)


def _projection_ladder(v: np.ndarray, c_cap: float,
                       cfg: SearchConfig) -> Search:
    """Deciding stage, for n >= 2, of whether v lies in the image of the
    degree-(k+1) cone after dropping the top coefficient: decided by
    completing with c x^(k+1). A search for drive() that yields each
    completion it needs decided, with cfg, and is sent its stage and
    search verdict (see _decided).

    Upward closure (adding c x^(k+1) with c >= 0 never leaves the cone)
    collapses the existential over c to tests along a doubling ladder. After
    a search refutes, the ladder climbs only while the refutation is
    marginal (witness value above -0.05), since searching at huge c degrades
    witness visibility; an exact rejection climbs to the top.
    """
    stage = _ORACLE_REJECTED
    for j in range(5):                                # c_cap .. 16 c_cap
        completed = Polynomial(list(v) + [c_cap * 2.0 ** j])
        if not is_nonneg_on_halfline(completed):
            continue    # failures below the half-line bar can heal at larger c
        stage, verdict = yield completed, cfg
        if _INSIDE[stage]:
            return stage
        if stage == _SEARCH_REFUTED and verdict.witness.value <= -0.05:
            break
    return stage


def _projection_rows(rows: np.ndarray, n: int, k: int, cfg: SearchConfig,
                     start_idx: int, c_cap: float) -> np.ndarray:
    """The deciding stage of each row of a chunk for the projected cone.

    For n >= 2 the ladders of all rows advance in shared rounds, each round
    one search batch. For n = 1 the completion at the top of the ladder,
    16 c_cap, alone is decisive and exact, and is classified as a
    degree-(k+1) row.
    """
    if n == 1:
        return _classify_rows(
            np.concatenate([rows, np.full((rows.shape[0], 1), 16.0 * c_cap)],
                           axis=1), 1, k + 1, cfg, start_idx)
    # completed high block includes positions k+2-n..k of v
    bad = ((rows[:, :n] < 0.0).any(axis=1)
           | (rows[:, k + 2 - n:] < 0.0).any(axis=1))
    stage = np.full(rows.shape[0], _SIGN)
    sub = np.flatnonzero(~bad).tolist()
    stage[sub] = drive(
        [_projection_ladder(rows[i], c_cap, _sample_cfg(cfg, start_idx + i))
         for i in sub], lambda items: _decided(items, n))
    return stage


def estimate_projection_fraction(
        n: int, k: int, N: int, cfg: Optional[SearchConfig] = None,
        c_cap: float = 10.0, z: float = 3.0) -> VolumeEstimate:
    """Fraction of the ball whose points extend to one-degree-higher members."""
    if not (n >= 1 and k >= 2 * n and N >= 1):
        raise ValueError(f"need n >= 1, k >= 2 n and N >= 1, got n={n}, "
                         f"k={k}, N={N}")
    if cfg is None:
        cfg = _DEFAULT_CFG
    return _estimate(
        lambda rows, start: _projection_rows(rows, n, k, cfg, start, c_cap),
        n, k, N, cfg, z)


def _separated(a: VolumeEstimate, b: VolumeEstimate) -> bool:
    return a.ci_low > b.ci_high or b.ci_low > a.ci_high


# the parameters each compare_experiment kind reads
_PARAM_KEYS = {"trend": {"n", "ks"}, "order": {"n_a", "n_b", "k"},
               "projection": {"n", "k"}, "degree": {"n", "k_a", "k_b"}}


def _whole(v) -> int:
    """A parameter as an int: an int, or a float with no fractional part;
    ValueError for anything else, booleans included."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"expected an integer, got {v!r}")


def compare_experiment(kind: str, params: dict, N: int,
                       cfg: Optional[SearchConfig] = None) -> dict:
    """Paired comparison experiments on a shared seed and sample budget.

    Reports both estimates, the expected inequality direction, whether the
    observed point estimates follow it, and whether the z-level confidence
    intervals separate. A direction is never reported as confirmed while
    the intervals overlap.
    """
    if cfg is None:
        cfg = _DEFAULT_CFG
    if kind not in _PARAM_KEYS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    unread = sorted(set(params) - _PARAM_KEYS[kind])
    if unread:
        raise ValueError(f"{kind} reads only {sorted(_PARAM_KEYS[kind])}, "
                         f"not {unread}")
    if kind == "trend":
        n = _whole(params["n"])
        ks = [_whole(k) for k in params["ks"]]
        if len(ks) < 2 or any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError("trend needs at least two strictly increasing "
                             f"degrees, got {ks}")
        ests = [estimate_cone_fraction(n, k, N, cfg) for k in ks]
        fr = [e.fraction for e in ests]
        return {"kind": kind, "params": params, "n_samples": N,
                "estimates": [e.to_json_dict() for e in ests],
                "expected": "fractions drift toward zero as degree grows",
                "monotone_decreasing": all(x > y for x, y in zip(fr, fr[1:])),
                "note": "reported as data; a finite sweep cannot settle a limit"}
    if kind == "order":
        n_a, n_b, k = (_whole(params[key]) for key in ("n_a", "n_b", "k"))
        if not n_a < n_b:
            raise ValueError(f"order needs n_a < n_b, got {n_a} and {n_b}")
        a = estimate_cone_fraction(n_a, k, N, cfg)
        b = estimate_cone_fraction(n_b, k, N, cfg)
        expected = "fraction decreases when the matrix order increases"
    elif kind == "projection":
        n, k = _whole(params["n"]), _whole(params["k"])
        a = estimate_projection_fraction(n, k, N, cfg)
        b = estimate_cone_fraction(n, k, N, cfg)
        expected = ("the projected higher-degree cone fills more of the ball "
                    "than the same-degree cone")
    else:                              # degree
        n, k_a, k_b = (_whole(params[key]) for key in ("n", "k_a", "k_b"))
        if not k_a < k_b:
            raise ValueError(f"degree needs k_a < k_b, got {k_a} and {k_b}")
        a = estimate_cone_fraction(n, k_a, N, cfg)
        b = estimate_cone_fraction(n, k_b, N, cfg)
        expected = "fraction decreases as the degree grows"
    holds = b.fraction < a.fraction    # each pair expects a above b
    sep = _separated(a, b)
    return {"kind": kind, "params": params, "n_samples": N,
            "estimates": [a.to_json_dict(), b.to_json_dict()],
            "expected": expected, "observed_direction_holds": holds,
            "ci_separated": sep, "confirmed": bool(holds and sep)}
