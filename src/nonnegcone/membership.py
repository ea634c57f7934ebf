"""One-sided membership testing for the matrix-entrywise cone.

For n = 1 the exact half-line oracle decides membership. For n >= 2 the cone
has no known decision procedure here, so this module searches for refutations
only: a polynomial leaves the cone exactly when some positive matrix A has a
negative entry in p(A), and it suffices to scan A = rho * S with S positive
row-stochastic and rho > 0. A refutation is only ever reported after the
candidate entry has been re-evaluated in exact rational arithmetic, so every
Refuted verdict is sound; NoRefutationFound is a budget report, not a
membership certificate.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Union

import numpy as np

from .core import Polynomial, eval_matrix, min_entry
from .exact import RationalPolynomial, refute_halfline

if TYPE_CHECKING:
    from .families import FamilySpec


def __getattr__(name: str):
    # only for bench/spans.py, which looks up optimize.minimize on this
    # module; importing scipy on first access keeps it out of every command
    # line call. Delete once the benchmark wraps _lockstep instead.
    if name == "optimize":
        from scipy import optimize
        return optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class NoUpperRefutation(RuntimeError):
    """Raised when the upper end of a bisection is never refuted."""


class BadBracket(RuntimeError):
    """Raised when a boundary bracket has no refuted upper end."""


class NoFloatWitness(ValueError):
    """Raised when p is proved negative on (0, inf) but the float point tried
    gives no witness that confirms: the negative values lie beyond the float
    range, or are no deeper than confirm_tol."""


@dataclass(frozen=True, eq=False)
class Witness:
    """A positive matrix rho * s whose polynomial image has a negative entry."""

    s: np.ndarray
    rho: float
    i: int
    j: int
    value: float

    def to_json_dict(self) -> dict:
        return {
            "s": [[float(v) for v in row] for row in self.s],
            "rho": self.rho,
            "i": self.i,
            "j": self.j,
            "value": self.value,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Witness":
        return Witness(np.array(d["s"], dtype=float), float(d["rho"]),
                       int(d["i"]), int(d["j"]), float(d["value"]))


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 50
    max_iters: int = 200
    rho_log_range: tuple[float, float] = (-10.0, 10.0)
    concentrations: tuple[float, ...] = (0.05, 0.3, 1.0)
    confirm_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        assert self.restarts >= 1
        lo, hi = self.rho_log_range
        assert np.isfinite(lo) and np.isfinite(hi) and lo < hi

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "rho_log_range": list(self.rho_log_range),
            "concentrations": list(self.concentrations),
            "confirm_tol": self.confirm_tol,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SearchConfig":
        return SearchConfig(
            restarts=int(d["restarts"]),
            max_iters=int(d["max_iters"]),
            rho_log_range=tuple(d["rho_log_range"]),
            concentrations=tuple(d["concentrations"]),
            confirm_tol=float(d["confirm_tol"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class Refuted:
    witness: Witness


@dataclass(frozen=True)
class NoRefutationFound:
    restarts_used: int
    best: float


@dataclass(frozen=True)
class ExactMember:
    """Membership certified by the exact half-line oracle; n = 1 only."""


Verdict = Union[Refuted, NoRefutationFound, ExactMember]


def verdict_to_json(v: Verdict, cfg: SearchConfig) -> str:
    if isinstance(v, Refuted):
        d = {"kind": "refuted", "witness": v.witness.to_json_dict()}
    elif isinstance(v, NoRefutationFound):
        d = {"kind": "no_refutation_found",
             "restarts_used": v.restarts_used, "best": v.best}
    else:
        d = {"kind": "exact_member"}
    d["config"] = cfg.to_json_dict()
    return json.dumps(d)


# ---------------------------------------------------------------------------
# exact confirmation


def _exact_entry(p: Polynomial, s: np.ndarray, rho: float, i: int, j: int) -> Fraction:
    """Entry (i, j) of p(rho * s) in exact rational arithmetic.

    Binary floats are exact rationals, so this is a zero-error evaluation of
    the floating-point matrix the search actually produced.
    """
    n = s.shape[0]
    a = [[Fraction(rho) * Fraction(float(s[r][c])) for c in range(n)]
         for r in range(n)]
    acc = [[Fraction(0)] * n for _ in range(n)]
    for coef in reversed(p.coeffs):
        nxt = [[sum(acc[r][k] * a[k][c] for k in range(n)) for c in range(n)]
               for r in range(n)]
        cf = Fraction(coef)
        for r in range(n):
            nxt[r][r] += cf
        acc = nxt
    return acc[i][j]


def confirm_witness(p: Polynomial, w: Witness, tol: float) -> bool:
    """Fresh exact re-evaluation of the claimed negative entry.

    The claimed value must be finite and below -tol, and rho finite and
    positive; the exact entry may exceed the claim by at most
    1e-12 * max(1, |claim|). Checks the stochastic normalization as well;
    soundness of the refutation itself only needs rho * s to be a positive
    matrix and the exact entry to be below -tol.
    """
    if not (0.0 < w.rho < np.inf and -np.inf < w.value < -tol):
        return False
    s = np.asarray(w.s, dtype=float)
    n = s.shape[0]
    if s.shape != (n, n) or not (0 <= w.i < n and 0 <= w.j < n):
        return False
    if not np.all(s > 0.0):
        return False
    if np.max(np.abs(s.sum(axis=1) - 1.0)) > 1e-12:
        return False
    entry = _exact_entry(p, s, w.rho, w.i, w.j)
    value = Fraction(w.value)
    if entry > value + Fraction(1, 10**12) * max(1, abs(value)):
        return False
    return entry < -Fraction(tol)


# ---------------------------------------------------------------------------
# search parametrization: stochastic rows as softmax of free logits, the last
# logit of each row pinned to zero; rho = e^tau with tau clipped to the range


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _unpack(x: np.ndarray, n: int,
            rho_log_range: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(s, rho) at a search point x, or at each point of a (..., n(n-1) + 1)
    stack."""
    lead = x.shape[:-1]
    free = x[..., : n * (n - 1)].reshape(lead + (n, n - 1))
    logits = np.concatenate([free, np.zeros(lead + (n, 1))], axis=-1)
    logits = np.clip(logits, -40.0, 40.0)
    tau = np.clip(x[..., -1], *rho_log_range)
    return _softmax_rows(logits), np.exp(tau)


def _witness(p: Polynomial, s: np.ndarray, rho: np.ndarray,
             cfg: SearchConfig) -> tuple[np.ndarray, Optional[Witness]]:
    """Smallest entry of each p(rho_k s_k) over a stack, with the first
    witness in stack order that confirms exactly."""
    vals, i, j = min_entry(eval_matrix(p, rho[:, None, None] * s))
    for k in np.flatnonzero(vals < -cfg.confirm_tol):
        w = Witness(s[k], rho[k], int(i[k]), int(j[k]), float(vals[k]))
        if confirm_witness(p, w, cfg.confirm_tol):
            return vals, w
    return vals, None


# ---------------------------------------------------------------------------
# deterministic candidates, tried before any optimization: smoothed
# permutations at rho near 1, then one exact xI + cJ matrix


def _probe_candidates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe matrices as one stack (s, rho), in the order they are
    tried: each permutation and peak at 41 values of rho."""
    taus = np.linspace(-2.5, 2.5, 41)   # includes tau = 0, rho = 1 exactly
    perms = list(itertools.permutations(range(n))) if n <= 4 else []
    if not perms:
        rng = np.random.default_rng(0)
        perms = [tuple(rng.permutation(n)) for _ in range(48)]
    peaks = (3.0, 5.0, 8.0)
    logits = np.zeros((len(perms), len(peaks), n, n))
    for a, sigma in enumerate(perms):
        for b, peak in enumerate(peaks):
            logits[a, b, range(n), sigma] = peak
    s = _softmax_rows(logits).reshape(-1, n, n)
    return np.repeat(s, len(taus), axis=0), np.tile(np.exp(taus), len(s))


def _deepest_step(f: Callable[[Fraction], Fraction],
                  scale: Fraction) -> Fraction:
    """The step h = scale / 2^k, 0 <= k < 64, with the smallest f(h); the
    largest such step on ties."""
    return min((scale / 2 ** k for k in range(64)), key=f)


def _monotone_witness(p: Polynomial, n: int,
                      cfg: SearchConfig) -> Optional[Witness]:
    """Witness at xI + cJ, J the all-ones matrix, when p(0) < 0 or p
    decreases somewhere on [0, infinity).

    p(xI + cJ) = p(x) I + ((p(x + nc) - p(x)) / n) J, so no member of an
    order n >= 2 cone does either. x is 0 when p(0) < 0, else a point where
    the exact oracle finds p' < 0; c is the ladder step with the smallest
    exact entry. The float matrix built from x and c is confirmed exactly.
    """
    q = RationalPolynomial.from_polynomial(p)
    x = Fraction(0) if q.coeffs[0] < 0 else refute_halfline(q.derivative())
    if x is None:
        return None
    px = q(x)

    def smaller_entry(c: Fraction) -> Fraction:
        off = (q(x + n * c) - px) / n
        return min(off, px + off)

    c = _deepest_step(smaller_entry, max(x, Fraction(1)))
    rho = x + n * c
    if rho > sys.float_info.max:
        return None
    s = np.full((1, n, n), float(c / rho))
    np.fill_diagonal(s[0], float((x + c) / rho))
    return _witness(p, s, np.array([float(rho)]), cfg)[1]


# ---------------------------------------------------------------------------
# Nelder-Mead multistart over (row logits, log rho)


def _restart_start(n: int, cfg: SearchConfig, r: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, r])
    modes = len(cfg.concentrations) + 1
    mode = r % modes
    if mode < len(cfg.concentrations):
        conc = cfg.concentrations[mode]
        rows = rng.dirichlet(np.full(n, conc), size=n)
        rows = np.clip(rows, 1e-12, None)
        logits = np.log(rows)
    else:
        sigma = rng.permutation(n)
        peak = float(rng.uniform(2.0, 8.0))
        logits = rng.normal(scale=0.3, size=(n, n))
        for row, col in enumerate(sigma):
            logits[row, col] += peak
    logits = logits - logits[:, -1:]
    free = logits[:, :-1].reshape(-1)
    tau = float(rng.uniform(-2.5, 2.5))
    return np.concatenate([free, [tau]])


def _sort_simplices(sim: np.ndarray,
                    fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = np.arange(len(fsim))[:, None]
    order = np.argsort(fsim, axis=1)
    return sim[rows, order], fsim[rows, order]


def _lockstep(p: Polynomial, n: int,
              cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead from every restart's seeded start, all advanced together;
    per restart, the lowest value evaluated and the first point reaching it.

    A port of scipy 1.17's adaptive Nelder-Mead (Gao and Han, Comput. Optim.
    Appl. 51 (2012) 259-277), with xatol 1e-7, fatol 1e-13 and
    cfg.max_iters iterations, batched over restarts: each stage of a step
    evaluates one stack with a point for every restart that needs one, and
    a restart stops once its simplex has converged. Each restart takes the
    steps scipy takes from its start and sees the same values, NaN as inf.
    """
    x0 = np.array([_restart_start(n, cfg, r) for r in range(cfg.restarts)])
    k, dim = x0.shape
    chi, psi, sigma = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    best_val, best_x = np.full(k, np.inf), x0.copy()

    def f(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Objective at x[m, v] for restart rows[m]; each restart's lowest
        point is tracked in evaluation order, v ascending."""
        s, rho = _unpack(x, n, cfg.rho_log_range)
        val = min_entry(eval_matrix(p, rho[..., None, None] * s))[0]
        for v in range(x.shape[1]):
            lower = val[:, v] < best_val[rows]
            best_val[rows[lower]] = val[lower, v]
            best_x[rows[lower]] = x[lower, v]
        return np.where(np.isnan(val), np.inf, val)

    # scipy's initial simplex: each coordinate in turn scaled by 1.05, or
    # set to 0.00025 where it is zero; then sorted twice
    sim = np.repeat(x0[:, None], dim + 1, axis=1)
    for v in range(dim):
        y = sim[:, v + 1, v]
        sim[:, v + 1, v] = np.where(y != 0, (1 + 0.05) * y, 0.00025)
    fsim = f(np.arange(k), sim)
    for _ in range(2):
        sim, fsim = _sort_simplices(sim, fsim)

    rows = np.arange(k)
    for _ in range(1, cfg.max_iters):
        going = ~((np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= 1e-7)
                  & (np.abs(fsim[:, :1] - fsim[:, 1:]).max(axis=1) <= 1e-13))
        rows, sim, fsim = rows[going], sim[going], fsim[going]
        if not len(rows):
            break
        xbar = np.add.reduce(sim[:, :-1], 1) / dim
        worst = sim[:, -1]
        xr = 2 * xbar - worst
        fxr = f(rows, xr[:, None])[:, 0]
        expand = fxr < fsim[:, 0]
        reflect = ~expand & (fxr < fsim[:, -2])
        outside = ~expand & ~reflect & (fxr < fsim[:, -1])
        inside = ~(expand | reflect | outside)
        x2 = np.where(expand[:, None], (1 + chi) * xbar - chi * worst,
                      np.where(outside[:, None], (1 + psi) * xbar - psi * worst,
                               (1 - psi) * xbar + psi * worst))
        f2 = np.full(len(rows), np.inf)
        f2[~reflect] = f(rows[~reflect], x2[~reflect, None])[:, 0]
        take2 = ((expand & (f2 < fxr)) | (outside & (f2 <= fxr))
                 | (inside & (f2 < fsim[:, -1])))
        take_r = reflect | (expand & ~take2)
        shrink = ~(take2 | take_r)
        sim[take_r, -1], fsim[take_r, -1] = xr[take_r], fxr[take_r]
        sim[take2, -1], fsim[take2, -1] = x2[take2], f2[take2]
        if shrink.any():
            low = sim[shrink, :1]
            sim[shrink, 1:] = low + sigma * (sim[shrink, 1:] - low)
            fsim[shrink, 1:] = f(rows[shrink], sim[shrink, 1:])
        sim, fsim = _sort_simplices(sim, fsim)
    return best_val, best_x


def refute(p: Polynomial, n: int, cfg: SearchConfig) -> Verdict:
    """Search for a positive matrix showing p outside the order-n cone.

    n = 1 delegates to the exact oracle. For n >= 2 the order of attack is:
    the deterministic probe matrices, the exact xI + cJ certificate, then
    Nelder-Mead multistart over (row logits, log rho), all restarts in
    lockstep. Restarts use independent seeded streams and the first
    confirmed witness (lowest restart index) wins, so results do not depend
    on how the restarts are batched.
    """
    assert n >= 1
    if n == 1:
        return _refute_scalar(p, cfg)
    probe_vals, w = _witness(p, *_probe_candidates(n), cfg)
    if w is None:
        w = _monotone_witness(p, n, cfg)
    if w is not None:
        return Refuted(w)
    _, xs = _lockstep(p, n, cfg)
    vals, w = _witness(p, *_unpack(xs, n, cfg.rho_log_range), cfg)
    if w is not None:
        return Refuted(w)
    # the lowest value seen, ignoring NaN
    best = min([np.inf, *probe_vals.tolist(), *vals.tolist()])
    return NoRefutationFound(cfg.restarts, best)


def _refute_scalar(p: Polynomial, cfg: SearchConfig) -> Verdict:
    q = RationalPolynomial.from_polynomial(p)
    x0 = refute_halfline(q)
    if x0 is None:
        return ExactMember()
    if not (x0 > 0 and q(x0) < -2 * Fraction(cfg.confirm_tol)):
        # x0 may be 0, which is no positive matrix, or barely negative next
        # to a root on either side: take the deepest positive point x0 +- h,
        # h = max(x0, 1) / 2^k, k < 64; the larger step up on ties
        steps = [max(x0, Fraction(1)) / 2 ** k for k in range(64)]
        x0 = min([x0 + h for h in steps] + [x0 - h for h in steps if h < x0],
                 key=q)
    try:
        rho = float(x0)
        w = Witness(np.array([[1.0]]), rho, 0, 0, float(q(Fraction(rho))))
    except OverflowError:
        w = None
    if w is None or not confirm_witness(p, w, cfg.confirm_tol):
        raise NoFloatWitness(
            "p is negative on (0, inf), but no float x tried has p(x) below "
            "-confirm_tol: its negative values are beyond the float range or "
            "too small")
    return Refuted(w)


def _refuted(p: Polynomial, n: int, cfg: SearchConfig) -> bool:
    """Whether p is proved outside the order-n cone: by a confirmed witness,
    or for n = 1 by the exact oracle alone where no float witness exists."""
    try:
        return isinstance(refute(p, n, cfg), Refuted)
    except NoFloatWitness:
        return True


FamilyLike = Union[Callable[[float], Polynomial], "FamilySpec"]


def _family_fn(family: FamilyLike) -> Callable[[float], Polynomial]:
    if callable(family):
        return family
    from .families import family_with_t
    return lambda t: family_with_t(family, t)


def max_t(family: FamilyLike, n: int, cfg: SearchConfig,
          t_hi: float, width: float,
          probe_log: Optional[list] = None) -> tuple[float, float]:
    """Bisect the largest t whose family member is not refuted.

    Well-posed because the families are (fixed nonnegative part) - t x^m:
    any witness at t transfers to every larger t. Returns (lo, hi) with hi
    refuted, lo not refuted under the configured budget, hi - lo <= width
    (see _bisect). probe_log, when given, collects (t, refuted) pairs in
    probe order.
    """
    fn = _family_fn(family)
    base = fn(0.0)
    if any(c < 0.0 for c in base.coeffs):
        raise ValueError("family at t = 0 must have nonnegative coefficients")

    def probe(t: float) -> bool:
        hit = _refuted(fn(t), n, cfg)
        if probe_log is not None:
            probe_log.append((t, hit))
        return hit

    if not probe(t_hi):
        raise NoUpperRefutation(f"no witness at t = {t_hi} within budget")
    return _bisect(probe, float(t_hi), width)


def _bisect(refuted: Callable[[float], bool], hi: float,
            width: float) -> tuple[float, float]:
    """Shrink (0, hi], hi refuted, to (lo, hi) with hi - lo <= width.

    Stops early only when lo and hi are adjacent floats, so no midpoint
    exists; raises ValueError unless width and hi are positive.
    """
    if not (width > 0.0 and hi > 0.0):
        raise ValueError(f"need width > 0 and hi > 0, got {width}, {hi}")
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


def boundary_offset(g: Polynomial, u: Polynomial, n: int, cfg: SearchConfig,
                    mu_hi: float, width: Optional[float] = None) -> float:
    """Largest mu with g + mu u not refuted, located by bisection.

    mu_hi is doubled a few times if it is not already refuted; BadBracket
    when no refuted upper end exists (the whole ray may lie in the cone) or
    when g itself is refuted. Bracket width defaults to 1e-3 * mu_hi.
    """
    if _refuted(g, n, cfg):
        raise BadBracket("base polynomial is already refuted")
    hi = float(mu_hi)
    for _ in range(5):
        if _refuted(g + u.scale(hi), n, cfg):
            break
        hi *= 2.0
    else:
        raise BadBracket(f"direction never refuted up to mu = {hi / 2.0}")
    target = width if width is not None else 1e-3 * hi
    return _bisect(lambda mu: _refuted(g + u.scale(mu), n, cfg), hi,
                   target)[0]


@dataclass(frozen=True)
class TraceResult:
    points: tuple[tuple[float, float], ...]
    missing: tuple[float, ...]
    residual: float


def trace_slice(p: Polynomial, q: Polynomial, u: Polynomial, n: int,
                grid: int, cfg: SearchConfig) -> TraceResult:
    """Boundary offsets along u for the segment (1 - t) p + t q, t in (0, 1).

    Residual is the max deviation of the points from their least-squares
    line; a straight boundary face gives ~0, a curved one does not.
    """
    assert grid >= 1
    if _refuted(p, n, cfg) or _refuted(q, n, cfg):
        raise BadBracket("segment endpoints must not be refuted")
    pts: list[tuple[float, float]] = []
    missing: list[float] = []
    for i in range(1, grid + 1):
        t = i / (grid + 1)
        g = p.scale(1.0 - t) + q.scale(t)
        try:
            mu = boundary_offset(g, u, n, cfg, mu_hi=1.0, width=5e-4)
        except BadBracket:
            missing.append(t)
            continue
        pts.append((t, mu))
    if len(pts) < 3:
        return TraceResult(tuple(pts), tuple(missing), 0.0)
    ts = np.array([a for a, _ in pts])
    mus = np.array([b for _, b in pts])
    slope, intercept = np.polyfit(ts, mus, 1)
    residual = float(np.max(np.abs(mus - (slope * ts + intercept))))
    return TraceResult(tuple(pts), tuple(missing), residual)
