"""Spans around the public functions of each layer, recorded from outside.

The package modules import each other's functions by name, so a wrapper is
installed where the caller looks the name up (``membership.eval_matrix``, not
``core.eval_matrix``). Each span records its name, start, end and parent;
self time is a span's duration minus that of its children. Spans stay in
memory for one pass and are folded into per-layer totals when it ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from nonnegcone import cli, families, membership, volume
from workloads import CHECK_RESTARTS

MODULES = ("core", "exact", "membership", "families", "volume", "cli")

# (module, attribute) -> span name; several call sites of one function
# share the span name of the layer that defines it
WRAP_SITES = {
    (membership, "eval_matrix"): "core.eval_matrix",
    (membership, "min_entry"): "core.min_entry",
    (membership, "confirm_witness"): "membership.confirm_witness",
    (membership, "refute_halfline"): "exact.refute_halfline",
    (membership, "refute"): "membership.refute",
    (membership, "boundary_offset"): "membership.boundary_offset",
    (membership.optimize, "minimize"): "membership.restart",
    (volume, "is_nonneg_on_halfline"): "exact.is_nonneg_on_halfline",
    (volume, "refute"): "membership.refute",
    (volume, "estimate_cone_fraction"): "volume.estimate_cone_fraction",
    (volume, "estimate_projection_fraction"):
        "volume.estimate_projection_fraction",
    (families, "is_nonneg_on_halfline"): "exact.is_nonneg_on_halfline",
    (cli, "refute"): "membership.refute",
    (cli, "max_t"): "membership.max_t",
    (cli, "trace_slice"): "membership.trace_slice",
    (cli, "necessary_conditions"): "families.necessary_conditions",
    (cli, "compare_experiment"): "volume.compare_experiment",
}

# what a span keeps of its call: (args, result) -> note
NOTES = {
    "membership.restart": lambda a, r: int(r.nfev),
    "membership.refute": lambda a, r: isinstance(r, membership.Refuted),
    "membership.confirm_witness": lambda a, r: bool(r),
    "exact.is_nonneg_on_halfline": lambda a, r: (a[0].degree(), bool(r)),
    "volume.estimate_cone_fraction": lambda a, r: (a[0], a[2]),
    "volume.estimate_projection_fraction": lambda a, r: (a[0], a[2]),
}


class Tracer:
    """Span recorder; ``installed()`` wraps the sites for its duration."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.totals: Counter = Counter()
        self.passes = 0
        self._reset()

    def _reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict = {}
        self.stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, note):
        """The span of one command line call, tagged with ``note``."""
        idx = self.open(self._id("cli.main"))
        try:
            yield
        finally:
            self.close(idx)
            self.notes[idx] = note

    def _wrap(self, fn, name: str):
        tracer, name_id, note = self, self._id(name), NOTES.get(name)

        def wrapper(*args, **kwargs):
            idx = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if note is not None:
                tracer.notes[idx] = note(args, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        saved = {site: getattr(*site) for site in WRAP_SITES}
        try:
            for (mod, attr), name in WRAP_SITES.items():
                setattr(mod, attr, self._wrap(saved[(mod, attr)], name))
            yield self
        finally:
            for (mod, attr), fn in saved.items():
                setattr(mod, attr, fn)

    def end_pass(self) -> None:
        """Fold this pass's spans into the running totals and drop them."""
        self.passes += 1
        self.totals.update(_fold(self))
        self._reset()

    def metrics(self) -> dict:
        """Per-layer metrics, per pass (all passes run the same operations)."""
        per = {k: v / max(self.passes, 1) for k, v in self.totals.items()}
        return _derive(per)


def _fold(tr: Tracer) -> Counter:
    """Raw per-pass sums: calls, self and inclusive time, and outcome counts."""
    names = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    dur = np.frombuffer(tr.end) - np.frombuffer(tr.start)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_time = dur - child
    k = len(tr.names)
    out = Counter()
    calls = np.bincount(names, minlength=k)
    selfs = np.bincount(names, weights=self_time, minlength=k)
    incl = np.bincount(names, weights=dur, minlength=k)
    for nid, name in enumerate(tr.names):
        out[f"{name}.calls"] += int(calls[nid])
        out[f"{name}.self_s"] += float(selfs[nid])
        out[f"{name}.incl_s"] += float(incl[nid])

    def name_of(idx):
        return tr.names[names[idx]] if idx >= 0 else None

    # direct children of refute spans; spans open in call order and refute
    # spans do not nest, so the children of one refute are adjacent here
    ids = tr._ids
    idxs = np.nonzero(has_parent)[0]
    kid = idxs[names[parent[idxs]] == ids.get("membership.refute", -1)]
    up, nm = parent[kid], names[kid]
    is_restart = nm == ids.get("membership.restart", -1)
    restarts_in = Counter(up[is_restart].tolist())
    # probe evaluations: those before the refute's first restart, less the
    # lift of a half-line witness (right after refute_halfline) and the
    # re-evaluation of a candidate witness (right before confirm_witness)
    first_restart = np.full(len(dur), len(dur))
    np.minimum.at(first_restart, up[is_restart], kid[is_restart])
    same_prev = np.r_[False, up[1:] == up[:-1]]
    prev_nm = np.where(same_prev, np.r_[-1, nm[:-1]], -1)
    next_nm = np.where(np.r_[same_prev[1:], False], np.r_[nm[1:], -1], -1)
    probe = ((nm == ids.get("core.eval_matrix", -1))
             & (kid < first_restart[up])
             & (prev_nm != ids.get("exact.refute_halfline", -1))
             & (next_nm != ids.get("membership.confirm_witness", -1)))
    out["probe_evals"] += int(probe.sum())
    for idx, note in tr.notes.items():
        name = name_of(idx)
        up = name_of(int(parent[idx]))
        if name == "membership.restart":
            out["restart.nfev"] += note
        elif name == "membership.confirm_witness":
            out["confirm.confirmed"] += note
        elif name == "exact.is_nonneg_on_halfline":
            deg, nonneg = note
            band = "deg_le2" if deg <= 2 else "deg_gt2"
            out[f"oracle.calls.{band}"] += 1
            out[f"oracle.incl_s.{band}"] += float(dur[idx])
            if up is not None and up.startswith("volume.estimate_"):
                n = tr.notes[int(parent[idx])][0]
                if not nonneg:
                    out["volume.stage.oracle_rejected"] += 1
                elif n == 1:
                    out["volume.stage.inside_exact"] += 1
        elif name == "membership.refute":
            out["refute.refuted" if note else "refute.exhausted"] += 1
            if up is not None and up.startswith("volume.estimate_"):
                key = "search_refuted" if note else "inside_exhausted"
                out[f"volume.stage.{key}"] += 1
            if up in ("membership.max_t", "membership.boundary_offset"):
                out[f"{up}.refute_calls"] += 1
            root = tr.notes.get(int(parent[idx]))
            if note and up == "cli.main" and root == ("check", "loewy"):
                r = restarts_in[idx]
                stage = "before_restarts" if r == 0 else f"r{r - 1}"
                out[f"witness_stage.{stage}"] += 1
        elif name.startswith("volume.estimate_"):
            out["volume.samples"] += note[1]
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if ".us_per_call" in name:
        return "us"
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".src_lines"):
        return "lines"
    return "count"


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _derive(t: dict) -> dict:
    def g(key):
        return t.get(key, 0.0)

    m = {
        "core.eval_matrix.calls": g("core.eval_matrix.calls"),
        "core.eval_matrix.self_s": g("core.eval_matrix.self_s"),
        "core.eval_matrix.us_per_call":
            1e6 * _ratio(g("core.eval_matrix.incl_s"), g("core.eval_matrix.calls")),
        "core.min_entry.self_s": g("core.min_entry.self_s"),
        "exact.is_nonneg_on_halfline.calls": g("exact.is_nonneg_on_halfline.calls"),
        "exact.is_nonneg_on_halfline.self_s":
            g("exact.is_nonneg_on_halfline.self_s"),
    }
    for band in ("deg_le2", "deg_gt2"):
        m[f"exact.is_nonneg_on_halfline.us_per_call.{band}"] = 1e6 * _ratio(
            g(f"oracle.incl_s.{band}"), g(f"oracle.calls.{band}"))
    m.update({
        "exact.refute_halfline.calls": g("exact.refute_halfline.calls"),
        "exact.refute_halfline.self_s": g("exact.refute_halfline.self_s"),
        "membership.refute.calls": g("membership.refute.calls"),
        "membership.refute.refuted": g("refute.refuted"),
        "membership.refute.exhausted": g("refute.exhausted"),
        "membership.refute.self_s": g("membership.refute.self_s"),
        "membership.probe.evals_per_refute":
            _ratio(g("probe_evals"), g("membership.refute.calls")),
        "membership.restart.calls": g("membership.restart.calls"),
        "membership.restart.nfev": g("restart.nfev"),
        "membership.restart.self_s": g("membership.restart.self_s"),
        "membership.restart.ms_per_call":
            1e3 * _ratio(g("membership.restart.incl_s"),
                         g("membership.restart.calls")),
        "membership.witness_stage.before_restarts":
            g("witness_stage.before_restarts"),
    })
    for r in range(CHECK_RESTARTS):
        m[f"membership.witness_stage.r{r}"] = g(f"witness_stage.r{r}")
    m.update({
        "membership.confirm_witness.calls": g("membership.confirm_witness.calls"),
        "membership.confirm_witness.confirmed_ratio":
            _ratio(g("confirm.confirmed"), g("membership.confirm_witness.calls")),
        "membership.confirm_witness.us_per_call":
            1e6 * _ratio(g("membership.confirm_witness.incl_s"),
                         g("membership.confirm_witness.calls")),
        "membership.max_t.refute_calls_per_call":
            _ratio(g("membership.max_t.refute_calls"),
                   g("membership.max_t.calls")),
        "membership.boundary_offset.refute_calls_per_call":
            _ratio(g("membership.boundary_offset.refute_calls"),
                   g("membership.boundary_offset.calls")),
        "families.necessary_conditions.calls":
            g("families.necessary_conditions.calls"),
        "families.necessary_conditions.self_s":
            g("families.necessary_conditions.self_s"),
        "volume.samples": g("volume.samples"),
    })
    volume_oracle = (g("volume.stage.oracle_rejected")
                     + g("volume.stage.inside_exact")
                     + g("volume.stage.search_refuted")
                     + g("volume.stage.inside_exhausted"))
    m["volume.stage.sign_grid_rejected"] = g("volume.samples") - volume_oracle
    for key in ("oracle_rejected", "search_refuted", "inside_exact",
                "inside_exhausted"):
        m[f"volume.stage.{key}"] = g(f"volume.stage.{key}")
    m["volume.inside_exhausted_ratio"] = _ratio(
        g("volume.stage.inside_exhausted"),
        g("volume.stage.inside_exhausted") + g("volume.stage.search_refuted"))
    m["volume.self_s"] = sum(g(f"volume.{f}.self_s") for f in (
        "compare_experiment", "estimate_cone_fraction",
        "estimate_projection_fraction"))
    m["cli.main.self_s"] = g("cli.main.self_s")
    return m
