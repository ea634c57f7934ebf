"""Monte-Carlo volume fractions of the cone inside the coefficient ball.

Samples are uniform in the closed unit ball of coefficient space (dimension
k+1 for degree-k polynomials). Each sample is decided by the first of these
stages that settles it, cheapest first; the estimate counts the samples each
stage decided:

1. sign: a negative coefficient among the first or last n rejects;
2. coeffs_nonneg: a row with no negative coefficient is inside at every
   order, since sum c_k A^k >= 0 for every nonnegative A (one vectorized
   mask; floats are rationals, so the sign test is exact);
3. grid: a float scan, one matrix product with a cached table of the
   grid's powers, proposes each row's least grid value; a negative one
   confirmed at its exactly evaluated rational point rejects;
4. oracle: the exact half-line oracle decides every row left, rejecting
   ("oracle_rejected") or accepting ("oracle_inside"). The rows with no
   zero coefficient go through one integer pass (exact._batch_members):
   at degree 2 or 3 the signs of their discriminants decide them, and at
   degree >= 4 the first split of the Bernstein certificate proves most
   members. Every other row calls is_nonneg_on_halfline (the
   discriminant, a Bernstein certificate, then root isolation for the
   rows it leaves);
5. for n >= 2, membership.decide takes each chunk's rows that 4 accepts, as
   one batch: its exact stages, then one search batch for the rows they
   leave open, so each verdict is the one a search of that row alone gives.

The rows that reach 3 are lifted to integers once per chunk
(exact._integer_rows), and 3 and 4 decide on those ints. Stages 2-4 do not
depend on n, so the estimates of several orders on one seed (compare order)
draw each chunk once and run 2-4 once; each order applies only its 1 and 5.

Only decide's "search_exhausted" rests on a budget rather than a proof (and
"loewy_cone" on the paper's theorem, not on a check made here). So an
estimate is labeled Exact when no sample is "search_exhausted", as every
n = 1 and n = 2 estimate is in practice, and UpperBiased otherwise. Every
interval is the Wilson interval at z = 3 (_Z), which the JSON names.
Projection estimates complete each row with 16 c_cap x^(k+1) and run the
same stages on the completed row, at every n (see _projection_rows).
An order above membership.MAX_ORDER or a degree above families.MAX_DEGREE
is a ValueError raised before any sample is drawn (_check_sizes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import BeyondFloatRange, Polynomial
from .exact import (_batch_members, _integer_rows, _scaled_value,
                    is_nonneg_on_halfline)
from .families import MAX_DEGREE
# refute is unused here, but bench/spans.py wraps it (ROADMAP item 4)
from .membership import (DECISION_STAGES, INSIDE_STAGES, MAX_ORDER,
                         SearchConfig, decide, refute)

_CHUNK = 4096
_Z = 3.0        # the z level of every estimate's Wilson interval
# the search budget of volume and compare, and of an estimate given no config
_DEFAULT_CFG = SearchConfig(restarts=20, max_iters=120)
_GRID = np.concatenate([np.linspace(0.0, 2.0, 33),
                        np.geomspace(2.5, 1000.0, 32)])

# the stage that decided a sample, in pipeline order; _classify_rows and
# _projection_rows return one code per row, its index here
STAGES = ("sign", "grid") + DECISION_STAGES
(_SIGN, _GRID_HIT, _ORACLE_REJECTED, _ORACLE_INSIDE, _COEFFS_NONNEG,
 _SEARCH_EXHAUSTED) = map(STAGES.index, (
     "sign", "grid", "oracle_rejected", "oracle_inside", "coeffs_nonneg",
     "search_exhausted"))
# whether a sample decided at each stage counts as inside
_INSIDE = np.isin(STAGES, INSIDE_STAGES)


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
            "ci_low": self.ci_low, "ci_high": self.ci_high, "z": _Z,
            "bias": self.bias, "seed": self.seed,
            "config": self.cfg.to_json_dict(), "stages": self.stages,
        }

    def csv_row(self) -> str:
        return (f"{self.k},{self.n},{self.n_samples},{self.fraction!r},"
                f"{self.ci_low!r},{self.ci_high!r},{self.bias},{self.seed}")


CSV_HEADER = "k,n,N,fraction,ci_low,ci_high,bias,seed"


def estimates_csv(rows: Sequence[VolumeEstimate]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def wilson_interval(inside: int, total: int) -> tuple[float, float]:
    """The Wilson score interval at level _Z."""
    assert total >= 1 and 0 <= inside <= total
    zz = _Z * _Z
    p = inside / total
    denom = 1.0 + zz / total
    center = (p + zz / (2.0 * total)) / denom
    half = _Z * np.sqrt(p * (1.0 - p) / total + zz / (4.0 * total * total)) / denom
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
        take = min(_CHUNK, total - c * _CHUNK)
        g = rng.standard_normal((_CHUNK, dim))[:take]
        u = rng.random(_CHUNK)[:take]
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        yield c * _CHUNK, g * (u ** (1.0 / dim) / norms)[:, None]


def _sample_seed(seed: int, idx: int) -> int:
    return (seed + 0x9E3779B97F4A7C15 * (idx + 1)) & 0xFFFFFFFFFFFFFFFF


def _sample_cfg(cfg: SearchConfig, idx: int) -> SearchConfig:
    """The search config of sample idx: cfg with the sample's own seed."""
    return replace(cfg, seed=_sample_seed(cfg.seed, idx))


@functools.lru_cache(maxsize=None)
def _grid_powers(k: int) -> np.ndarray:
    """The read-only (k + 1) x len(_GRID) table of _GRID ** j, j <= k; past
    degree 102 its entries at x = 1000 overflow to inf."""
    with np.errstate(over="ignore"):
        powers = _GRID ** np.arange(k + 1)[:, None]
    powers.flags.writeable = False
    return powers


def _grid_refuted(rows: np.ndarray, ints: np.ndarray) -> np.ndarray:
    """Mask of coefficient rows exactly negative at their grid minimum; ints
    holds each row in integers (exact._integer_rows), in which the sign is
    taken at the dyadic ratio of the grid point. The float scan, one matrix
    product, only proposes the point: a rounding there costs at most a row
    left to the oracle. A row whose product overflows to inf - inf = nan is
    scanned again by Horner's rule, which overflows to +-inf instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = rows @ _grid_powers(rows.shape[1] - 1)
        mins = vals.min(axis=1)
        nan = np.isnan(mins)
        if nan.any():
            vals[nan] = np.polynomial.polynomial.polyval(_GRID, rows[nan].T)
            mins = vals.min(axis=1)
    argmins = vals.argmin(axis=1)
    out = np.zeros(rows.shape[0], dtype=bool)
    for i in np.flatnonzero(mins < 0.0):
        x = float(_GRID[argmins[i]])
        out[i] = _scaled_value(ints[i], *x.as_integer_ratio()) < 0
    return out


def _signs_pass(rows: np.ndarray, n: int, k: int) -> np.ndarray:
    """Mask of degree-k rows with no negative entry among their first and
    last n coefficients. Such an entry rejects even when the leading
    coefficient vanishes, since it is in range either way."""
    return ~((rows[:, :n] < 0.0).any(axis=1)
             | (rows[:, max(0, k + 1 - n):] < 0.0).any(axis=1))


def _oracle_stages(rows: np.ndarray, ints: np.ndarray, k: int) -> np.ndarray:
    """The oracle's stage of each degree-k row with both ends >= 0 and a
    negative coefficient; ints holds the rows in integers. Rows with no
    zero coefficient have both ends > 0, and one pass over them
    (exact._batch_members) decides those of degree 2 or 3 by their
    discriminants and proves the members of degree >= 4 that the first
    split of the Bernstein certificate proves. The rows it leaves go one by
    one through the public oracle, which bench/spans.py traces per row."""
    inside = np.zeros(rows.shape[0], dtype=bool)
    batch = (rows != 0.0).all(axis=1)
    if k >= 2:
        inside[batch] = _batch_members(ints[batch])
    # at degree >= 4 the batch proves members only
    rest = ~batch if k in (2, 3) else ~inside
    inside[rest] = [is_nonneg_on_halfline(Polynomial(r), c) for r, c in zip(
        rows[rest].tolist(), ints[rest].tolist())]
    return np.where(inside, _ORACLE_INSIDE, _ORACLE_REJECTED)


def _classify_rows(rows: np.ndarray, orders: Sequence[int], k: int,
                   cfg: SearchConfig, start_idx: int) -> np.ndarray:
    """The deciding stage of each coefficient row (degree k) of a chunk, one
    line per order in orders. Stages 2-4 do not depend on the order: they
    run once, on the rows that pass the sign test of some order, which are
    those of the lowest order."""
    passes = [_signs_pass(rows, n, k) for n in orders]
    stage = np.full(rows.shape[0], _SIGN)
    sub = np.flatnonzero(np.logical_or.reduce(passes))
    # inside at every order: sum c_k A^k >= 0 for every nonnegative A
    nonneg = (rows[sub] >= 0.0).all(axis=1)
    stage[sub[nonneg]] = _COEFFS_NONNEG
    sub = sub[~nonneg]
    ints = _integer_rows(rows[sub])
    hit = _grid_refuted(rows[sub], ints)
    stage[sub[hit]] = _GRID_HIT
    sub, ints = sub[~hit], ints[~hit]
    stage[sub] = _oracle_stages(rows[sub], ints, k)
    out = np.where(passes, stage, _SIGN)
    for line, n in zip(out, orders):
        sub = np.flatnonzero(line == _ORACLE_INSIDE).tolist()
        if n >= 2 and sub:
            line[sub] = [STAGES.index(s) for s, _ in decide(
                [Polynomial(rows[i]) for i in sub], n,
                [_sample_cfg(cfg, start_idx + i) for i in sub])]
    return out


def _estimate(classify: Callable[[np.ndarray, int], Sequence[np.ndarray]],
              orders: Sequence[int], k: int, N: int,
              cfg: SearchConfig) -> list[VolumeEstimate]:
    """One estimate per order, from the stage counts of classify(rows,
    start_idx), one line of stage codes per order, over the sample chunks."""
    stages = np.zeros((len(orders), len(STAGES)), dtype=np.int64)
    for start, rows in _ball_chunks(k + 1, N, cfg.seed):
        stages += [np.bincount(line, minlength=len(STAGES))
                   for line in classify(rows, start)]
    return [VolumeEstimate(
        n, k, k + 1, N, inside, N - inside, inside / N,
        *wilson_interval(inside, N),
        "Exact" if counts[_SEARCH_EXHAUSTED] == 0 else "UpperBiased", cfg,
        cfg.seed, dict(zip(STAGES, counts.tolist())))
        for n, inside, counts in zip(
            orders, stages[:, _INSIDE].sum(axis=1).tolist(), stages)]


def _check_sizes(orders: Sequence[int], ks: Sequence[int], N: int) -> None:
    """ValueError unless N >= 1 and each order and degree is in range:
    [1, MAX_ORDER] keeps a probe stack and [0, MAX_DEGREE] a chunk of
    samples within memory."""
    if not (1 <= min(orders) <= max(orders) <= MAX_ORDER
            and 0 <= min(ks) <= max(ks) <= MAX_DEGREE and N >= 1):
        raise ValueError(f"need 1 <= n <= {MAX_ORDER}, 0 <= k <= "
                         f"{MAX_DEGREE} and N >= 1, got n={list(orders)}, "
                         f"k={list(ks)}, N={N}")


def _cone_estimates(orders: Sequence[int], k: int, N: int,
                    cfg: SearchConfig) -> list:
    """The cone fractions of estimate_cone_fraction at each order, from one
    pass over their shared samples."""
    _check_sizes(orders, (k,), N)
    return _estimate(
        lambda rows, start: _classify_rows(rows, orders, k, cfg, start),
        orders, k, N, cfg)


def estimate_cone_fraction(
        n: int, k: int, N: int,
        cfg: SearchConfig = _DEFAULT_CFG) -> VolumeEstimate:
    """Fraction of the unit coefficient ball inside the order-n degree-k cone."""
    return _cone_estimates((n,), k, N, cfg)[0]


def _projection_rows(rows: np.ndarray, n: int, k: int, cfg: SearchConfig,
                     start_idx: int, c_cap: float) -> np.ndarray:
    """The deciding stage of each row v of a chunk for the projected cone:
    whether some v + c x^(k+1), 0 <= c <= 16 c_cap, is an order-n member.
    Adding c x^(k+1), c >= 0, never leaves the cone (A^(k+1) >= 0 for every
    A >= 0), so the completion at 16 c_cap decides it as a degree-(k+1) row."""
    return _classify_rows(
        np.concatenate([rows, np.full((rows.shape[0], 1), 16.0 * c_cap)],
                       axis=1), (n,), k + 1, cfg, start_idx)[0]


def estimate_projection_fraction(
        n: int, k: int, N: int, cfg: SearchConfig = _DEFAULT_CFG,
        c_cap: float = 10.0) -> VolumeEstimate:
    """Fraction of the ball whose points v extend to members v + c x^(k+1),
    0 <= c <= 16 c_cap: by upward closure (_projection_rows) a witness at
    c = 16 c_cap refutes every such c. ValueError unless 0 < c_cap < inf
    and n and k are in range (as in _check_sizes, with k >= 2 n),
    BeyondFloatRange unless 16 c_cap is a float."""
    if not (1 <= n <= MAX_ORDER and 2 * n <= k <= MAX_DEGREE and N >= 1
            and 0.0 < c_cap < np.inf):
        raise ValueError(f"need 1 <= n <= {MAX_ORDER}, 2 n <= k <= "
                         f"{MAX_DEGREE}, N >= 1 and a finite c_cap > 0, got "
                         f"n={n}, k={k}, N={N}, c_cap={c_cap}")
    if not 16.0 * c_cap < np.inf:
        raise BeyondFloatRange(f"the completion coefficient 16 c_cap = 16 * "
                               f"{c_cap} is beyond the float range")
    return _estimate(
        lambda rows, start: [_projection_rows(rows, n, k, cfg, start, c_cap)],
        (n,), k, N, cfg)[0]


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
                       cfg: SearchConfig = _DEFAULT_CFG) -> dict:
    """Paired comparison experiments on a shared seed and sample budget; the
    two orders of "order" classify the shared samples in one pass.

    Reports both estimates, the expected inequality direction, whether the
    observed point estimates follow it, and whether the z = 3 confidence
    intervals separate. A direction is never reported as confirmed while
    the intervals overlap.
    """
    if kind not in _PARAM_KEYS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    unread = sorted(set(params) - _PARAM_KEYS[kind])
    if unread:
        raise ValueError(f"{kind} reads only {sorted(_PARAM_KEYS[kind])}, "
                         f"not {unread}")
    missing = sorted(_PARAM_KEYS[kind] - set(params))
    if missing:
        raise ValueError(f"{kind} needs {sorted(_PARAM_KEYS[kind])}, "
                         f"missing {missing}")
    if kind == "trend":
        n = _whole(params["n"])
        if not isinstance(params["ks"], (list, tuple)):
            raise ValueError("trend needs ks as a list of degrees, got "
                             f"{params['ks']!r}")
        ks = [_whole(k) for k in params["ks"]]
        if len(ks) < 2 or any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError("trend needs at least two strictly increasing "
                             f"degrees, got {ks}")
        _check_sizes((n,), ks, N)
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
        a, b = _cone_estimates((n_a, n_b), k, N, cfg)
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
        _check_sizes((n,), (k_a, k_b), N)
        a = estimate_cone_fraction(n, k_a, N, cfg)
        b = estimate_cone_fraction(n, k_b, N, cfg)
        expected = "fraction decreases as the degree grows"
    holds = b.fraction < a.fraction    # each pair expects a above b
    sep = _separated(a, b)
    return {"kind": kind, "params": params, "n_samples": N,
            "estimates": [a.to_json_dict(), b.to_json_dict()],
            "expected": expected, "observed_direction_holds": holds,
            "ci_separated": sep, "confirmed": bool(holds and sep)}
