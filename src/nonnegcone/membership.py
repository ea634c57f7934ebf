"""Membership in the matrix-entrywise cone: exact stages, then a refutation
search.

decide() orders the stages for every command that decides a batch of
polynomials (volume samples and the rounds of max_t, boundary_offset and
trace_slice); its docstring lists them. The search refutes only: p leaves
the order-n cone exactly when some positive matrix A has a negative entry
in p(A), it suffices to scan A = rho * S with S positive row-stochastic
and rho > 0, and a refutation is reported only after its entry has been
re-evaluated exactly and found below -1e-9 (_CONFIRM_TOL). So every Refuted
verdict is sound; NoRefutationFound is a budget report, not a certificate.

_search runs that search on a batch, as decide's last stage; refute runs it
on one polynomial and, with check, keeps the search contract at every
n >= 2: the release checks assert NoRefutationFound for the n = 2 member
loewy_general(2, 2, 0, 2), and the benchmark's checker accepts an exit-0
check only with a no_refutation_found verdict.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import (TYPE_CHECKING, Any, Callable, Generator, Optional,
                    Sequence, Union)

import numpy as np

from .core import BeyondFloatRange, Polynomial, eval_matrix, min_entry
from .exact import (RationalPolynomial, is_nonneg_on_halfline,
                    is_order2_member, loewy_certificate, refute_halfline)

if TYPE_CHECKING:
    from .families import FamilySpec


def __getattr__(name: str):
    # kept, like boundary_offset, because bench/spans.py looks both up when
    # it installs its wraps; importing scipy on first access keeps it out of
    # every command line call. Both go once the benchmark wraps decide.
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
    range, or are no deeper than _CONFIRM_TOL."""


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


# the range of log rho that the search clips to, and the Dirichlet
# concentrations of the restart start modes before the permutation mode
_RHO_LOG_RANGE = (-10.0, 10.0)
_CONCENTRATIONS = (0.05, 0.3, 1.0)
# the margin below which a witness's exact entry must lie
_CONFIRM_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 50
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.restarts >= 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SearchConfig":
        """Ignores the confirm_tol key that older artifacts hold."""
        return SearchConfig(
            restarts=int(d["restarts"]),
            max_iters=int(d["max_iters"]),
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
    """Membership proved exactly, by the half-line oracle: refute returns it
    for n = 1 only. decide proves n >= 2 polynomials inside too, and names
    the stage instead of building a verdict."""


Verdict = Union[Refuted, NoRefutationFound, ExactMember]


def verdict_to_json_dict(v: Verdict, cfg: SearchConfig) -> dict:
    if isinstance(v, Refuted):
        d = {"kind": "refuted", "witness": v.witness.to_json_dict()}
    elif isinstance(v, NoRefutationFound):
        d = {"kind": "no_refutation_found",
             "restarts_used": v.restarts_used, "best": v.best}
    else:
        d = {"kind": "exact_member"}
    d["config"] = cfg.to_json_dict()
    return d


# ---------------------------------------------------------------------------
# exact confirmation


def _exact_entry(p: Polynomial, s: np.ndarray, rho: float, i: int, j: int) -> Fraction:
    """Entry (i, j) of p(rho * s) in exact rational arithmetic.

    Binary floats are exact rationals, so this is a zero-error evaluation of
    the floating-point matrix the search actually produced. Every entry of
    rho * s is m / 2^e, so the matrix is M / 2^E for one integer matrix M,
    and every coefficient is C_d / L for one power of two L; Horner on the
    row vector e_i^T then stays in integers, scaling by 2^E at each step.
    """
    n = s.shape[0]
    r_num, r_den = float(rho).as_integer_ratio()
    ratios = [[float(v).as_integer_ratio() for v in row] for row in s]
    big = max(den for row in ratios for _, den in row) * r_den
    cols = [[r_num * num * (big // (den * r_den)) for num, den in col]
            for col in zip(*ratios)]
    coef = [float(c).as_integer_ratio() for c in p.coeffs]
    lcd = max(den for _, den in coef)
    acc, step = [0] * n, 1
    for num, den in reversed(coef):
        acc = [sum(map(mul, acc, col)) for col in cols]
        acc[i] += num * (lcd // den) * step
        step *= big
    return Fraction(acc[j], lcd * step // big)


def confirm_witness(p: Polynomial, w: Witness) -> bool:
    """Fresh exact re-evaluation of the claimed negative entry.

    The claimed value must be finite and below -_CONFIRM_TOL, and rho
    finite and positive; the exact entry may exceed the claim by at most
    1e-12 * max(1, |claim|). Checks the stochastic normalization as well;
    soundness of the refutation itself only needs rho * s to be a positive
    matrix and the exact entry to be below -_CONFIRM_TOL.
    """
    if not (0.0 < w.rho < np.inf and -np.inf < w.value < -_CONFIRM_TOL):
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
    return entry < -Fraction(_CONFIRM_TOL)


# ---------------------------------------------------------------------------
# search parametrization: stochastic rows as softmax of free logits, the last
# logit of each row pinned to zero; rho = e^tau with tau clipped to the range


def _fold(op: np.ufunc, m: np.ndarray) -> np.ndarray:
    """np.minimum or np.maximum over the last axis, NaN if any entry is NaN,
    one column at a time: on these short axes that costs less than
    op.reduce, and gives the same value."""
    out = m[..., 0]
    for j in range(1, m.shape[-1]):
        out = op(out, m[..., j])
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - _fold(np.maximum, logits)[..., None]
    e = np.exp(z)
    return e / np.add.reduce(e, -1, keepdims=True)


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(s, rho) at a search point x, or at each point of a (..., n(n-1) + 1)
    stack."""
    lead = x.shape[:-1]
    logits = np.zeros(lead + (n, n))
    logits[..., :-1] = x[..., : n * (n - 1)].reshape(lead + (n, n - 1))
    logits = np.minimum(np.maximum(logits, -40.0), 40.0)
    tau = np.minimum(np.maximum(x[..., -1], _RHO_LOG_RANGE[0]),
                     _RHO_LOG_RANGE[1])
    return _softmax_rows(logits), np.exp(tau)


def _witness(p: Polynomial, s: np.ndarray,
             rho: np.ndarray) -> tuple[np.ndarray, Optional[Witness]]:
    """Smallest entry of each p(rho_k s_k) over a stack, with the first
    witness in stack order that confirms exactly. Overflow to inf or NaN is
    expected here and harmless: NaN is never below -_CONFIRM_TOL, and
    confirm_witness rejects -inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals, i, j = min_entry(eval_matrix(p, rho[:, None, None] * s))
    for k in np.flatnonzero(vals < -_CONFIRM_TOL):
        w = Witness(s[k], rho[k], int(i[k]), int(j[k]), float(vals[k]))
        if confirm_witness(p, w):
            return vals, w
    return vals, None


# ---------------------------------------------------------------------------
# deterministic candidates, tried before any optimization: smoothed
# permutations at rho near 1, then one exact xI + cJ matrix


@lru_cache(maxsize=None)
def _probe_candidates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe matrices as one stack (s, rho), in the order they are
    tried: each permutation and peak at 41 values of rho. Built once per
    order and read-only, like core._eye."""
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
    stack = np.repeat(s, len(taus), axis=0), np.tile(np.exp(taus), len(s))
    for arr in stack:
        arr.flags.writeable = False
    return stack


def _deepest_step(f: Callable[[Fraction], Fraction],
                  scale: Fraction) -> Fraction:
    """The step h = scale / 2^k, 0 <= k < 64, with the smallest f(h); the
    largest such step on ties."""
    return min((scale / 2 ** k for k in range(64)), key=f)


def _monotone_witness(p: Polynomial, n: int) -> Optional[Witness]:
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
    return _witness(p, s, np.array([float(rho)]))[1]


# ---------------------------------------------------------------------------
# Nelder-Mead multistart over (row logits, log rho)


def _restart_start(n: int, cfg: SearchConfig, r: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, r])
    mode = r % (len(_CONCENTRATIONS) + 1)
    if mode < len(_CONCENTRATIONS):
        conc = _CONCENTRATIONS[mode]
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


@np.errstate(over="ignore", invalid="ignore")   # the objective overflows
def _lockstep(coeffs: np.ndarray, n: int, cfgs: Sequence[SearchConfig]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Nelder-Mead from every restart's seeded start for each of a stack of
    polynomials, all advanced together; per polynomial and restart, the
    lowest value evaluated and the first point reaching it.

    coeffs holds one coefficient row per polynomial, zero-padded at the top,
    and cfgs the search config of each; the configs differ at most in seed.
    A port of scipy 1.17's adaptive Nelder-Mead (Gao and Han, Comput. Optim.
    Appl. 51 (2012) 259-277), with xatol 1e-7, fatol 1e-13 and max_iters
    iterations, batched over polynomials and restarts: each step evaluates
    one stack holding the reflection, the expansion and both contractions of
    every running simplex, each under its own polynomial. At n = 2 the same
    stack also holds the shrink points of every simplex, which are read back
    only where it shrinks (a simplex that shrinks was not changed earlier in
    the step, so they are the floats scipy evaluates); at n >= 3 the shrink
    points of the simplices that shrink are a second stack. A restart stops
    once its simplex has converged. Each restart takes the steps scipy takes
    from its start and sees the same values, NaN as inf, whatever else
    shares the stack; its lowest point is kept over the points scipy
    evaluates only. A step is about a hundred small numpy calls, half of
    them the objective's, whose dispatch outweighs their arithmetic in small
    stacks: its cost grows slowly with the stack (ROADMAP aim 1).
    """
    cfg = cfgs[0]
    assert len(cfgs) == len(coeffs)
    assert all(replace(c, seed=cfg.seed) == cfg for c in cfgs)
    x0 = np.array([_restart_start(n, c, r)
                   for c in cfgs for r in range(cfg.restarts)])
    coef = np.asarray(coeffs, dtype=float)
    k, dim = x0.shape
    chi, psi, sigma = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    # the candidates of a step are a * xbar - b * worst: the reflection, the
    # expansion, the outside and the inside contraction, each as scipy
    # computes it (x - (-psi) w is the same float as x + psi w); the shrink
    # points follow them in a step's points
    cand_a = np.array([2.0, 1 + chi, 1 + psi, 1 - psi])[:, None]
    cand_b = np.array([1.0, chi, psi, -psi])[:, None]
    # by how many vertex values xr reaches, none, fewer than dim, dim or all,
    # scipy expands, reflects, or contracts outside or inside: the candidate
    # it evaluates after xr (xr itself where it reflects)
    picks = np.array([1] + [0] * (dim - 1) + [2, 3])
    # n >= 3 steps never fold: their 3 x 3 shrink points cost more than the
    # second stack they save (single locksteps took x1.09 to x1.42 of the
    # time with the fold on a 2-core x86-64 VM, 4 to 18 restarts)
    fold = n == 2
    best_val, best_x = np.full(k, np.inf), x0.copy()
    # each running restart's coefficient row; a lone polynomial is one row
    # for the whole stack
    lone = len(coef) == 1
    poly = coef[0] if lone else coef[np.arange(k) // cfg.restarts, None]

    def f(poly: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Objective at each x[m, v] under poly's row m, NaN as inf."""
        s, rho = _unpack(x, n)
        pa = eval_matrix(poly, rho[..., None, None] * s)
        val = _fold(np.minimum, _fold(np.minimum, pa))
        val[np.isnan(val)] = np.inf
        return val

    def track(rows: np.ndarray, x: np.ndarray, val: np.ndarray,
              v: Optional[np.ndarray] = None) -> None:
        """Keep each restart's point x[m, v[m]] where it is lower than the
        lowest so far; by default v[m] is the first lowest of val[m]."""
        if v is None:
            v = val.argmin(axis=1)
        low = val[np.arange(len(v)), v]
        lower = low < best_val[rows]
        best_val[rows[lower]] = low[lower]
        best_x[rows[lower]] = x[lower, v[lower]]

    # scipy's initial simplex: each coordinate in turn scaled by 1.05, or
    # set to 0.00025 where it is zero
    sim = np.repeat(x0[:, None], dim + 1, axis=1)
    for v in range(dim):
        y = sim[:, v + 1, v]
        sim[:, v + 1, v] = np.where(y != 0, (1 + 0.05) * y, 0.00025)
    rows = m = np.arange(k)
    fsim = f(poly, sim)
    track(rows, sim, fsim)
    order = fsim.argsort(1)     # the first of scipy's two initial sorts
    sim, fsim = sim[m[:, None], order], fsim[m[:, None], order]

    for _ in range(1, cfg.max_iters):
        order = fsim.argsort(1)
        sim, fsim = sim[m[:, None], order], fsim[m[:, None], order]
        # fsim is sorted and holds no NaN: its spread is last minus first
        stop = fsim[:, -1] - fsim[:, 0] <= 1e-13
        if stop.any():
            stop &= np.abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= 1e-7
        if stop.any():
            going = ~stop
            rows, sim, fsim = rows[going], sim[going], fsim[going]
            if not len(rows):
                break
            if not lone:
                poly = poly[going]
            m = m[: len(rows)]
        xbar = np.add.reduce(sim[:, :-1], 1) / dim
        pts = cand_a * xbar[:, None] - cand_b * sim[:, -1:]
        low = sim[:, :1]
        if fold:
            pts = np.concatenate([pts, low + sigma * (sim[:, 1:] - low)], 1)
        fpts = f(poly, pts)
        fxr = fpts[:, 0]
        reached = np.add.reduce(fsim <= fxr[:, None], 1)
        pick = picks[reached]
        f2 = fpts[m, pick]
        # scipy takes x2 below xr where it expands, at most xr where it
        # contracts outside, and below the worst vertex where it contracts
        # inside; min(xr, worst) is xr except where it contracts inside
        thr = np.minimum(fxr, fsim[:, -1])
        take2 = (f2 < thr) | ((f2 == thr) & (reached == dim))
        shrink = (reached >= dim) & ~take2
        shrinks = shrink.any()
        # the lower of xr and x2, xr on ties
        track(rows, pts, fpts, pick * (f2 < fxr))
        if shrinks and fold:
            spts, fs = pts[shrink, 4:], fpts[shrink, 4:]
        elif shrinks:
            low = low[shrink]
            spts = low + sigma * (sim[shrink, 1:] - low)
            fs = f(poly if lone else poly[shrink], spts)
        # the worst vertex takes the accepted candidate, xr or x2; where the
        # simplex shrinks, every vertex but the best takes its shrink point
        keep = pick * take2
        sim[:, -1], fsim[:, -1] = pts[m, keep], fpts[m, keep]
        if shrinks:
            track(rows[shrink], spts, fs)
            sim[shrink, 1:], fsim[shrink, 1:] = spts, fs
    return best_val.reshape(len(cfgs), -1), best_x.reshape(len(cfgs), -1, dim)


def _search(polys: Sequence[Polynomial], n: int,
            cfgs: Sequence[SearchConfig]) -> list[Verdict]:
    """The verdict refute gives each of a batch of polynomials alone at
    n >= 2, each with its own config; the configs may differ only in seed.

    Each polynomial gets its probes and then its xI + cJ certificate; one
    lockstep then runs the restarts of every polynomial those leave open,
    and each of those is Refuted at the first restart low that confirms,
    else NoRefutationFound with the lowest value it saw.
    """
    candidates = _probe_candidates(n)
    probes: list[np.ndarray] = []
    out: list[Optional[Verdict]] = []
    for p in polys:
        vals, w = _witness(p, *candidates)
        if w is None:
            w = _monotone_witness(p, n)
        probes.append(vals)
        out.append(None if w is None else Refuted(w))
    open_ = [t for t, v in enumerate(out) if v is None]
    if not open_:
        return out
    rows = np.zeros((len(open_), max(len(polys[t].coeffs) for t in open_)))
    for r, t in enumerate(open_):
        rows[r, : len(polys[t].coeffs)] = polys[t].coeffs
    lows = _lockstep(rows, n, [cfgs[t] for t in open_])[1]
    for t, x in zip(open_, lows):
        vals, w = _witness(polys[t], *_unpack(x, n))
        # the lowest value seen, ignoring NaN
        best = min([np.inf, *probes[t].tolist(), *vals.tolist()])
        out[t] = Refuted(w) if w is not None else \
            NoRefutationFound(cfgs[t].restarts, best)
    return out


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
    return _refute_scalar(p) if n == 1 else _search([p], n, [cfg])[0]


def _refute_scalar(p: Polynomial) -> Verdict:
    q = RationalPolynomial.from_polynomial(p)
    x0 = refute_halfline(q)
    if x0 is None:
        return ExactMember()
    if not (x0 > 0 and q(x0) < -2 * Fraction(_CONFIRM_TOL)):
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
    if w is None or not confirm_witness(p, w):
        raise NoFloatWitness(
            "p is negative on (0, inf), but no float x tried has p(x) below "
            "-1e-9: its negative values are beyond the float range or "
            "too small")
    return Refuted(w)


# decide's stages, in the order volume counts them, and those that count p
# inside the cone: every one a proof but "search_exhausted", a budget report
DECISION_STAGES = ("oracle_rejected", "oracle_inside", "coeffs_nonneg",
                   "loewy_cone", "order2_rejected", "order2_inside",
                   "search_refuted", "search_exhausted")
INSIDE_STAGES = ("oracle_inside", "coeffs_nonneg", "loewy_cone",
                 "order2_inside", "search_exhausted")


def _exact_stage(p: Polynomial, n: int) -> Optional[str]:
    """The exact stage of decide that settles p, or None."""
    if min(p.coeffs) >= 0.0:
        return "coeffs_nonneg"
    if n == 1:
        return "oracle_inside" if is_nonneg_on_halfline(p) \
            else "oracle_rejected"
    if n >= 3:
        return "loewy_cone" if loewy_certificate(p, n) is not None else None
    member = is_order2_member(p)
    if member is None:
        return None
    return "order2_inside" if member else "order2_rejected"


def decide(polys: Sequence[Polynomial], n: int, cfgs: Sequence[SearchConfig]
           ) -> list[tuple[str, Optional[Verdict]]]:
    """The stage of DECISION_STAGES that decides each polynomial of a batch,
    with the verdict of its search where one ran; cfgs holds each one's
    search config, and they may differ only in seed.

    The first stage that settles p decides it:
    - every coefficient >= 0 proves p inside at every order
      ("coeffs_nonneg"), since sum c_k A^k >= 0 for every nonnegative A
      (floats are rationals, so the sign test is exact);
    - n = 1: the exact half-line oracle ("oracle_rejected",
      "oracle_inside");
    - n >= 3: exact.loewy_certificate proves p inside ("loewy_cone"), given
      the paper's theorem that L_n = loewy_general(n, n, 0, 2) is in the
      order-n cone, which this package does not check;
    - n = 2: exact.is_order2_member decides p ("order2_rejected",
      "order2_inside") unless H has a repeated factor in u;
    - the rest are one _search batch, in batch order ("search_refuted"
      with a confirmed witness, else "search_exhausted").
    """
    out: list[tuple[str, Optional[Verdict]]] = \
        [(_exact_stage(p, n), None) for p in polys]
    open_ = [t for t, (stage, _) in enumerate(out) if stage is None]
    if open_:
        verdicts = _search([polys[t] for t in open_], n,
                           [cfgs[t] for t in open_])
        for t, verdict in zip(open_, verdicts):
            out[t] = ("search_refuted" if isinstance(verdict, Refuted)
                      else "search_exhausted", verdict)
    return out


Search = Generator[Any, Any, Any]


def _run(searches: Sequence[Search], n: int, cfg: SearchConfig) -> list:
    """Run searches in shared rounds; what each search returns, in order.

    A search is a generator that yields the next polynomial it needs decided
    and is sent whether decide() puts it outside the order-n cone, a proof
    at every stage. Each round decides the pending polynomials of all
    searches, in search order, as one decide() batch. A search's
    polynomials depend only on its own verdicts, so it makes the decisions
    it makes when run alone. Raises BeyondFloatRange for a polynomial with
    a coefficient that is not finite, as a doubling ladder or a large t can
    give.
    """
    results: list = [None] * len(searches)
    pending: list = []

    def advance(i: int, outside: Optional[bool]) -> None:
        try:
            pending.append((i, searches[i].send(outside)))
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        batch, pending = pending, []
        polys = [p for _, p in batch]
        for p in polys:
            if not all(map(math.isfinite, p.coeffs)):
                raise BeyondFloatRange(
                    "a polynomial to decide has a coefficient beyond the "
                    f"float range: {list(p.coeffs)}")
        for (i, _), (stage, _) in zip(
                batch, decide(polys, n, [cfg] * len(polys))):
            advance(i, stage not in INSIDE_STAGES)
    return results


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
    any witness at t transfers to every larger t. Returns (lo, hi) with
    hi - lo <= width (see _bisect), each end decided by decide(): hi
    outside the cone, and lo inside it unless decide() left lo to an
    exhausted search budget, as only n >= 2 can. probe_log, when given,
    collects (t, refuted) pairs in probe order. BeyondFloatRange when a
    family member has a coefficient beyond the float range.
    """
    fn = _family_fn(family)
    base = fn(0.0)
    if any(c < 0.0 for c in base.coeffs):
        raise ValueError("family at t = 0 must have nonnegative coefficients")

    def refuted_at(t: float) -> Search:
        hit = yield fn(t)
        if probe_log is not None:
            probe_log.append((t, hit))
        return hit

    def search() -> Search:
        if not (yield from refuted_at(t_hi)):
            raise NoUpperRefutation(f"no witness at t = {t_hi} within budget")
        return (yield from _bisect(refuted_at, float(t_hi), width))

    return _run([search()], n, cfg)[0]


def _bisect(refuted_at: Callable[[float], Search], hi: float,
            width: float) -> Search:
    """Shrink (0, hi], hi refuted, to (lo, hi) with hi - lo <= width; a
    search that asks refuted_at(mid), itself a search, at each midpoint.

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
        if (yield from refuted_at(mid)):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _offset_search(g: Polynomial, u: Polynomial, mu_hi: float,
                   width: Optional[float]) -> Search:
    """The search of boundary_offset: g itself, the doubling ladder from
    mu_hi, then the bisection."""
    def refuted_at(mu: float) -> Search:
        return (yield g + u.scale(mu))

    if (yield g):
        raise BadBracket("base polynomial is already refuted")
    hi = float(mu_hi)
    for _ in range(5):
        if (yield from refuted_at(hi)):
            break
        hi *= 2.0
    else:
        raise BadBracket(f"direction never refuted up to mu = {hi / 2.0}")
    target = width if width is not None else 1e-3 * hi
    return (yield from _bisect(refuted_at, hi, target))[0]


# no command calls it, but bench/spans.py wraps it (ROADMAP item 4)
def boundary_offset(g: Polynomial, u: Polynomial, n: int, cfg: SearchConfig,
                    mu_hi: float, width: Optional[float] = None) -> float:
    """Largest mu with g + mu u not refuted, located by bisection.

    Refuted means decided outside the cone by decide(), as in max_t. mu_hi
    is doubled a few times if it is not already refuted; BadBracket when no
    refuted upper end exists (the whole ray may lie in the cone) or when g
    itself is refuted, BeyondFloatRange when the doubling leaves the float
    range. Bracket width defaults to 1e-3 * mu_hi.
    """
    return _run([_offset_search(g, u, mu_hi, width)], n, cfg)[0]


@dataclass(frozen=True)
class TraceResult:
    points: tuple[tuple[float, float], ...]
    missing: tuple[float, ...]
    residual: float


def trace_slice(p: Polynomial, q: Polynomial, u: Polynomial, n: int,
                grid: int, cfg: SearchConfig) -> TraceResult:
    """Boundary offsets along u for the segment (1 - t) p + t q, t in (0, 1).

    Both endpoints and the boundary_offset search of every grid point run in
    shared rounds, one decide() batch each, so the grid points cost about
    as many searches as one of them, and where no search runs (n <= 2 in
    practice) the offsets do not depend on the seed. Residual is the max
    deviation of the points from their least-squares line; a straight
    boundary face gives ~0, a curved one does not.
    """
    if not grid >= 1:
        raise ValueError(f"grid must be >= 1, got {grid}")

    def endpoint(e: Polynomial) -> Search:
        if (yield e):
            raise BadBracket("segment endpoints must not be refuted")

    def offset(g: Polynomial) -> Search:
        try:
            return (yield from _offset_search(g, u, 1.0, 5e-4))
        except BadBracket:
            return None

    ts = [i / (grid + 1) for i in range(1, grid + 1)]
    mus = _run([endpoint(p), endpoint(q)]
               + [offset(p.scale(1.0 - t) + q.scale(t)) for t in ts],
               n, cfg)[2:]
    pts = [(t, mu) for t, mu in zip(ts, mus) if mu is not None]
    missing = [t for t, mu in zip(ts, mus) if mu is None]
    if len(pts) < 3:
        return TraceResult(tuple(pts), tuple(missing), 0.0)
    ts_arr = np.array([a for a, _ in pts])
    mus_arr = np.array([b for _, b in pts])
    slope, intercept = np.polyfit(ts_arr, mus_arr, 1)
    residual = float(np.max(np.abs(mus_arr - (slope * ts_arr + intercept))))
    return TraceResult(tuple(pts), tuple(missing), residual)
