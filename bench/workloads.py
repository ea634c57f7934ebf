"""Seeded operation lists for the benchmark workloads.

Every operation is one call of the ``nonnegcone`` command line, given as the
argument list a user would type. The polynomials are built here, from the
family formulas, so the program under test sees only coefficient JSON and
flags. The same workload seed always gives the same list.

Family members are drawn per fixed slot (family, matrix order, degrees) with
the weight t taken from a range well away from the sharp threshold t = 2, so
the mix of refuted and budget-exhausted checks, which sets the cost of a
pass, barely moves from one seed to the next.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("families", "volume-search", "volume-exact")
DEFAULT_SEED = 1

CHECK_RESTARTS = 10
# restarts per volume sample that reaches the search, against the command
# line default of 20, so that a pass holds enough such samples for their
# number to vary little between seeds; three restarts take the three
# Dirichlet start modes, and the deterministic probes already try the
# permutation-shaped matrices of the fourth
SEARCH_RESTARTS = 3
SLICE_GRID = 3
# volume passes are split into calls of about a second, so that the speed
# reference timed between calls follows the host's drift (see run.py)
SEARCH_CALLS, SEARCH_SAMPLES = 20, 250
EXACT_CALLS, EXACT_SAMPLES = 10, 2000
MAXT_WIDTH = 0.02
SLICE_SEGMENT = ([1, 1, -1, 1, 1], [1, 1, -1.5, 1, 1], [0, 0, -1])
ORDER_PARAMS = {"n_a": 1, "n_b": 2, "k": 4}
DEGREE_PARAMS = {"n": 1, "k_a": 2, "k_b": 6}
PROJECTION_PARAMS = {"n": 1, "k": 2}


@dataclass(frozen=True)
class Op:
    """One command line call; ``meta`` holds what the output checks need."""

    kind: str
    tag: str
    argv: tuple
    meta: dict = field(default_factory=dict)


def loewy(n: int, m: int, s: int, t: float) -> list:
    """Unit blocks at degrees s..s+n-1 and 2m-s-n+1..2m-s, -t at degree m."""
    c = [0.0] * (2 * m - s + 1)
    for k in range(n):
        c[s + k] += 1.0
        c[2 * m - s - k] += 1.0
    c[m] -= t
    return c


def conjecture(n: int, m: int, s: int, t: float) -> list:
    """Unit blocks at degrees 0..n-1 and s..s+n-1, -t at degree m."""
    c = [0.0] * (s + n)
    for k in range(n):
        c[k] += 1.0
        c[s + k] += 1.0
    c[m] -= t
    return c


def alpha(n: int, a: float) -> list:
    """All-ones coefficients except -a at the center degree n*ceil(a/2)."""
    m = n * int(math.ceil(a / 2.0))
    c = [1.0] * (2 * m + 1)
    c[m] = -a
    return c


def _loewy_slots(n: int) -> list:
    return [(n, m, s) for m in range(n, 6) for s in range(0, m - n + 1)]


_CONJECTURE_SLOTS = [(2, 2, 4), (2, 3, 5), (3, 3, 5)]
# (family, slot, members per pass); refuted checks are cheap, so every slot
# gets several, while an exhausted check costs a whole search budget
_REFUTED = ([("loewy", slot, 6) for slot in _loewy_slots(2) + _loewy_slots(3)]
            + [("conjecture", slot, 6) for slot in _CONJECTURE_SLOTS])
_EXHAUSTED = ([("loewy", slot, 1) for slot in _loewy_slots(2)[::2]]
              + [("loewy", slot, 1) for slot in _loewy_slots(3)[::3]]
              + [("conjecture", slot, 1) for slot in _CONJECTURE_SLOTS[::2]]
              + [("alpha", (2,), 1), ("alpha", (3,), 1)])
_MAXT = [("loewy", (2, 2, 0)), ("loewy", (2, 3, 1)), ("loewy", (3, 3, 0)),
         ("loewy", (3, 4, 1)), ("conjecture", (2, 2, 4))]
_SMOKE_REFUTED = [("loewy", (2, 2, 0), 2), ("conjecture", (2, 2, 4), 2)]
_SMOKE_EXHAUSTED = [("loewy", (2, 2, 0), 1), ("alpha", (2,), 1)]


def _op_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31)))


def _check(rng, family: str, slot: tuple, t_range: tuple, restarts: int) -> Op:
    t = round(float(rng.uniform(*t_range)), 4)
    n = slot[0]
    if family == "loewy":
        coeffs = loewy(*slot, t)
    elif family == "conjecture":
        coeffs = conjecture(*slot, t)
    else:
        t = round(2.0 * t + 1.0, 4)       # alpha members lie inside for every alpha
        coeffs = alpha(n, t)
    argv = ("check", json.dumps(coeffs), "--n", str(n),
            "--restarts", str(restarts), "--seed", _op_seed(rng))
    return Op("check", family, argv,
              {"coeffs": coeffs, "n": n, "restarts": restarts})


def _maxt(rng, family: str, slot: tuple, width: float, restarts: int) -> Op:
    n, m, s = slot
    argv = ("maxt", family, "--n", str(n), "--m", str(m), "--s", str(s),
            "--width", repr(width), "--restarts", str(restarts),
            "--seed", _op_seed(rng))
    return Op("maxt", family, argv, {"width": width})


def _slice(rng, grid: int, restarts: int) -> Op:
    p, q, u = (json.dumps(c) for c in SLICE_SEGMENT)
    argv = ("slice", p, q, u, "--n", "2", "--grid", str(grid),
            "--restarts", str(restarts), "--seed", _op_seed(rng))
    return Op("slice", "loewy", argv, {"grid": grid})


def _compare(rng, kind: str, params: dict, samples: int,
             restarts=None) -> Op:
    argv = ("compare", kind, json.dumps(params, separators=(",", ":")),
            "--samples", str(samples), "--seed", _op_seed(rng))
    if restarts is not None:
        argv += ("--restarts", str(restarts))
    return Op("compare", kind, argv, {"samples": samples})


def _families(rng, smoke: bool) -> list:
    refuted, exhausted = ((_SMOKE_REFUTED, _SMOKE_EXHAUSTED) if smoke
                          else (_REFUTED, _EXHAUSTED))
    ops = []
    for family, slot, count in refuted:
        ops += [_check(rng, family, slot, (2.3, 3.2), CHECK_RESTARTS)
                for _ in range(count)]
    for family, slot, count in exhausted:
        ops += [_check(rng, family, slot, (0.5, 1.4), CHECK_RESTARTS)
                for _ in range(count)]
    if smoke:
        ops += [_maxt(rng, "loewy", (2, 2, 0), 0.5, 3), _slice(rng, 1, 3)]
    else:
        ops += [_maxt(rng, family, slot, MAXT_WIDTH, CHECK_RESTARTS)
                for family, slot in _MAXT]
        ops += [_slice(rng, SLICE_GRID, CHECK_RESTARTS)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def build_ops(workload: str, seed: int, smoke: bool = False) -> list:
    """The operations of one pass of ``workload``, derived from ``seed``."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, WORKLOADS.index(workload)])
    if workload == "families":
        return _families(rng, smoke)
    if workload == "volume-search":
        calls, samples = (1, 100) if smoke else (SEARCH_CALLS, SEARCH_SAMPLES)
        return [_compare(rng, "order", ORDER_PARAMS, samples, SEARCH_RESTARTS)
                for _ in range(calls)]
    if workload == "volume-exact":
        calls, samples = (2, 500) if smoke else (EXACT_CALLS, EXACT_SAMPLES)
        return [op for _ in range(calls // 2) for op in (
            _compare(rng, "degree", DEGREE_PARAMS, samples),
            _compare(rng, "projection", PROJECTION_PARAMS, samples))]
    raise ValueError(f"unknown workload {workload!r}")
