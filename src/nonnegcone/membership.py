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
from scipy import optimize

from .core import Polynomial, eval_matrix, min_entry
from .exact import RationalPolynomial, refute_halfline

if TYPE_CHECKING:
    from .families import FamilySpec


class NoUpperRefutation(RuntimeError):
    """Raised when the upper end of a bisection is never refuted."""


class BadBracket(RuntimeError):
    """Raised when a boundary bracket has no refuted upper end."""


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
    positive. Checks the stochastic normalization as well; soundness of the
    refutation itself only needs rho * s to be a positive matrix.
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
    if entry > Fraction(w.value) + Fraction(1, 10**12):
        return False
    return entry < -Fraction(tol)


# ---------------------------------------------------------------------------
# search parametrization: stochastic rows as softmax of free logits, the last
# logit of each row pinned to zero; rho = e^tau with tau clipped to the range


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _unpack(x: np.ndarray, n: int,
            rho_log_range: tuple[float, float]) -> tuple[np.ndarray, float]:
    free = x[: n * (n - 1)].reshape(n, n - 1)
    logits = np.concatenate([free, np.zeros((n, 1))], axis=1)
    logits = np.clip(logits, -40.0, 40.0)
    tau = float(np.clip(x[-1], *rho_log_range))
    return _softmax_rows(logits), np.exp(tau)


def _witness(p: Polynomial, s: np.ndarray, rho: float,
             cfg: SearchConfig) -> tuple[float, Optional[Witness]]:
    """Smallest entry of p(rho * s), with the witness at it once confirmed."""
    val, i, j = min_entry(eval_matrix(p, rho * s))
    if not val < -cfg.confirm_tol:
        return val, None
    w = Witness(s, rho, i, j, val)
    return val, (w if confirm_witness(p, w, cfg.confirm_tol) else None)


# ---------------------------------------------------------------------------
# deterministic candidates, tried before any optimization: smoothed
# permutations at rho near 1, then one exact xI + cJ matrix


def _probe_candidates(n: int):
    taus = np.linspace(-2.5, 2.5, 41)   # includes tau = 0, rho = 1 exactly
    perms = list(itertools.permutations(range(n))) if n <= 4 else []
    if not perms:
        rng = np.random.default_rng(0)
        perms = [tuple(rng.permutation(n)) for _ in range(48)]
    for sigma in perms:
        for peak in (3.0, 5.0, 8.0):
            logits = np.zeros((n, n))
            for r, c in enumerate(sigma):
                logits[r, c] = peak
            s = _softmax_rows(logits)
            for tau in taus:
                yield s, float(np.exp(tau))


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
    s = np.full((n, n), float(c / rho))
    np.fill_diagonal(s, float((x + c) / rho))
    return _witness(p, s, float(rho), cfg)[1]


def _restart_start(p: Polynomial, n: int, cfg: SearchConfig,
                   r: int) -> np.ndarray:
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


def _restart(p: Polynomial, n: int, cfg: SearchConfig,
             r: int) -> tuple[float, np.ndarray]:
    """One Nelder-Mead run; returns the lowest point it evaluated."""
    x0 = _restart_start(p, n, cfg, r)
    best_val, best_x = np.inf, x0

    def f(x: np.ndarray) -> float:
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


def refute(p: Polynomial, n: int, cfg: SearchConfig) -> Verdict:
    """Search for a positive matrix showing p outside the order-n cone.

    n = 1 delegates to the exact oracle. For n >= 2 the order of attack is:
    deterministic probe matrices, the exact xI + cJ certificate, then
    Nelder-Mead multistart over (row logits, log rho). Restarts use
    independent seeded streams and the first confirmed witness (lowest
    restart index) wins, so results do not depend on scheduling.
    """
    assert n >= 1
    if n == 1:
        return _refute_scalar(p, cfg)
    best = np.inf
    for s, rho in _probe_candidates(n):
        val, w = _witness(p, s, rho, cfg)
        best = min(best, val)
        if w is not None:
            return Refuted(w)
    w = _monotone_witness(p, n, cfg)
    if w is not None:
        return Refuted(w)
    for r in range(cfg.restarts):
        val, x = _restart(p, n, cfg, r)
        best = min(best, val)
        if val < -cfg.confirm_tol:
            _, w = _witness(p, *_unpack(x, n, cfg.rho_log_range), cfg)
            if w is not None:
                return Refuted(w)
    return NoRefutationFound(cfg.restarts, float(best))


def _refute_scalar(p: Polynomial, cfg: SearchConfig) -> Verdict:
    q = RationalPolynomial.from_polynomial(p)
    x0 = refute_halfline(q)
    if x0 is None:
        return ExactMember()
    if not (x0 > 0 and q(x0) < -2 * Fraction(cfg.confirm_tol)):
        # x0 may be 0, which is no positive matrix, or barely negative
        x0 += _deepest_step(lambda h: q(x0 + h), max(x0, Fraction(1)))
    return Refuted(Witness(np.array([[1.0]]), float(x0), 0, 0, float(q(x0))))


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
        hit = isinstance(refute(fn(t), n, cfg), Refuted)
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
    if isinstance(refute(g, n, cfg), Refuted):
        raise BadBracket("base polynomial is already refuted")
    hi = float(mu_hi)
    for _ in range(5):
        if isinstance(refute(g + u.scale(hi), n, cfg), Refuted):
            break
        hi *= 2.0
    else:
        raise BadBracket(f"direction never refuted up to mu = {hi / 2.0}")
    target = width if width is not None else 1e-3 * hi
    return _bisect(lambda mu: isinstance(refute(g + u.scale(mu), n, cfg),
                                         Refuted), hi, target)[0]


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
    if isinstance(refute(p, n, cfg), Refuted) or \
       isinstance(refute(q, n, cfg), Refuted):
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
