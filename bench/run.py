#!/usr/bin/env python3
"""Benchmark of the ``nonnegcone`` command line, run from the repository root.

    python3 bench/run.py --workload families --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop with a single client: each
command line call (``nonnegcone.cli.main`` in process, stdout captured in
memory) starts when the previous one has returned. The seeded operation list
(see ``workloads.py``) is one pass; passes repeat, at least twice, until
``--seconds`` is used up, and every pass must reproduce the first pass's
result fingerprint.
Every output is checked independently (``verify.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time from spawn to ready
  (interpreter, imports, input generation, witness self-test), two before
  each pass;
* ``item_ms``: median over passes of the pass's command time per work item.
  The item is one command line call for ``families`` and one sample of a
  ``compare`` call (each sample is classified by both of its estimates) for
  the volume workloads;
* ``peak_rss_mb``: peak resident memory of the process.

The speed of a shared host drifts by up to a third within a minute, which
would hide any change smaller than that. So each timed interval (a command,
a setup probe) is divided by the time of a fixed reference computation
(``reference``) taken just before and just after it, and multiplied by
``REFERENCE_S``: both times read as seconds at the speed where the
reference takes ``REFERENCE_S``. The reference does the same kinds of work
as the program without calling it, so the ratio stays put while the host's
speed moves. The plain times are printed as ``setup_wall_s`` and
``item_wall_ms``.

Lines before the last one give the per-command latencies by outcome, the
fingerprint and whether it matches the one recorded for the seed in
``baseline.json``, and any failed check. ``--trace 1`` runs one plain pass,
then traced passes, and reports the per-layer metrics of ``spans.py`` per
pass.
The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# one thread for BLAS, as for the interpreter: the matrices are at most
# 3x3; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
# bound here, before a traced run wraps the name in scipy.optimize
from scipy.optimize import minimize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# reference() seconds on the 2-core x86-64 virtual machine the baseline was
# measured on, at its usual speed
REFERENCE_S = 0.008
# fresh processes timed before each pass, so that the setup time is
# sampled over the whole run like the command time
SETUP_PROBES_PER_PASS = 2
# a genuine refutation whose witness the tamper self-test alters
SELFTEST_CHECK = ("check", "[1, 1, -3, 1, 1]", "--n", "2",
                  "--restarts", "10", "--seed", "0")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["families", "volume-search", "volume-exact"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: workloads.DEFAULT_SEED)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time; whole passes, at least two")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny operation lists, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def reference() -> float:
    """Seconds taken by a fixed computation of the kinds the program does:
    Nelder-Mead over a function of small numpy matrices, and rational
    Horner evaluation. It does not call the program."""
    m = np.array([[0.3, 0.7], [0.6, 0.4]])

    def f(x):
        acc = np.eye(2)
        for _ in range(4):
            acc = acc @ x.reshape(2, 2) + m
        return float(np.min(acc)) + float(x @ x)

    t0 = time.perf_counter()
    minimize(f, np.array([0.1, 0.2, 0.3, 0.4]), method="Nelder-Mead",
             options={"maxiter": 120, "xatol": 1e-12, "fatol": 1e-14,
                      "adaptive": True})
    x, acc = Fraction(1, 3), Fraction(0)
    for k in range(1, 200):
        acc = acc * x + Fraction(k, k + 1)
    return time.perf_counter() - t0


def call_cli(cli, argv):
    """Run one command in process; (seconds, exit code or None, doc, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as e:  # argparse and seed errors exit directly
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # a crash is a failed op, reported with the rest
        return time.perf_counter() - t0, None, None, repr(e)
    dt = time.perf_counter() - t0
    try:
        doc = json.loads(out.getvalue()) if out.getvalue().strip() else None
    except json.JSONDecodeError as e:
        return dt, code, None, f"output is not JSON: {e}"
    return dt, code, doc, err.getvalue().strip()


def selftest(cli, verify):
    """Witness check accepts a real witness and rejects tampered copies."""
    _, code, doc, err = call_cli(cli, SELFTEST_CHECK)
    if code != 1 or doc is None:
        return [f"self-test check did not refute: exit {code} {err}"]
    coeffs = json.loads(SELFTEST_CHECK[1])
    return verify.tamper_selftest(coeffs, 2, doc["verdict"]["witness"])


def run_pass(cli, verify, ops, tracer=None):
    """One pass over ``ops``: per-op records, and the pass's command time in
    plain seconds (``s``) and scaled to the reference speed (``scaled_s``)."""
    records, ref = [], [reference()]
    for op in ops:
        if tracer is None:
            dt, code, doc, err = call_cli(cli, op.argv)
        else:
            with tracer.root((op.kind, op.tag)):
                dt, code, doc, err = call_cli(cli, op.argv)
        ref.append(reference())
        errors = verify.check_output(op, code, doc) if code is not None \
            else [f"exception {err}"]
        records.append({"op": op, "s": dt,
                        "scaled_s": dt * 2 * REFERENCE_S / sum(ref[-2:]),
                        "code": code, "doc": doc, "errors": errors,
                        "summary": verify.summary(op, code, doc)})
    if tracer is not None:
        tracer.end_pass()
    return {"records": records, "s": sum(r["s"] for r in records),
            "scaled_s": sum(r["scaled_s"] for r in records),
            "ref_s": statistics.median(ref)}


def run_passes(cli, verify, ops, seconds, tracer=None, before_pass=None):
    """Whole passes, at least two so that their results can be compared;
    another pass starts only if it is expected to end within a fifth past
    ``seconds``. ``before_pass`` is called, untimed, before each pass."""
    passes, t0 = [], time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(cli, verify, ops, tracer))
        elapsed = time.perf_counter() - t0
        if len(passes) >= 2 and elapsed + passes[-1]["s"] > 1.2 * seconds:
            return passes


def items(workload, records) -> int:
    """Work items of a pass: fixed by the operation list, not by results."""
    if workload == "families":
        return len(records)
    return sum(r["op"].meta["samples"] for r in records)


def pct(values, q):
    """Linear-interpolated percentile q in [0, 100] of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def report_lines(workload, passes, fail_ratio, setup):
    """Human-readable wall-clock figures, one 'metric name value unit' each."""
    recs = [r for p in passes for r in p["records"]]
    wall = sum(p["s"] for p in passes)
    per_item = items(workload, passes[0]["records"])
    lines = [("setup_wall_s", statistics.median(raw for raw, _ in setup),
              "s", len(setup)),
             ("wall_s", wall, "s", len(passes)),
             ("item_wall_ms", statistics.median(p["s"] for p in passes)
              / per_item * 1e3, "ms", len(passes)),
             ("reference_ms", statistics.median(p["ref_s"] for p in passes)
              * 1e3, "ms", len(passes)),
             ("fail_ratio", fail_ratio, "failed/attempted", len(recs))]

    def latency(name, rows, qs, scale, unit):
        if rows:
            for q in qs:
                lines.append((f"{name}_p{q}_{unit}",
                              scale * pct([r["s"] for r in rows], q), unit,
                              len(rows)))

    if workload == "families":
        checks = [r for r in recs if r["op"].kind == "check"]
        latency("check_refuted", [r for r in checks if r["code"] == 1],
                (50, 90), 1e3, "ms")
        latency("check_exhausted", [r for r in checks if r["code"] == 0],
                (50, 75), 1e3, "ms")
        latency("maxt", [r for r in recs if r["op"].kind == "maxt"],
                (50,), 1.0, "s")
        latency("slice", [r for r in recs if r["op"].kind == "slice"],
                (50,), 1.0, "s")
    else:
        samples = sum(e["n_samples"] for r in recs if r["doc"]
                      for e in r["doc"]["report"]["estimates"])
        lines.append(("samples_per_s", samples / wall, "samples/s", len(recs)))
    return [f"metric {workload} {name} {value:.6g} {unit} (n={n})"
            for name, value, unit, n in lines]


def setup_probe_times(workload, seed, smoke, count):
    """Seconds from spawn to 'ready' for ``count`` fresh processes, each as
    (plain, scaled to the reference speed)."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    if smoke:
        cmd.append("--smoke")
    for _ in range(count):
        before = reference()
        t0 = time.monotonic()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.monotonic()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        scale = 2 * REFERENCE_S / (before + reference())
        times.append((t1 - t0, (t1 - t0) * scale))
    return times


def baseline_match(workload, seed, fp, smoke) -> str:
    """'same' or 'differs' against the fingerprint recorded for this seed in
    baseline.json; 'none' where no fingerprint is recorded."""
    recorded = json.loads((HERE / "baseline.json").read_text())
    want = None if smoke else \
        recorded["fingerprints"].get(workload, {}).get(str(seed))
    return "none" if want is None else ("same" if want == fp else "differs")


def src_lines(modules):
    return {f"{m}.src_lines": float(len(
        (SRC / "nonnegcone" / f"{m}.py").read_text().splitlines()))
        for m in modules}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nonnegcone" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from nonnegcone import cli

    import spans
    import verify
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    ops = workloads.build_ops(args.workload, seed, args.smoke)
    problems = selftest(cli, verify)
    if args.setup_probe:
        print("ready" if not problems else "selftest failed", flush=True)
        return 0 if not problems else 1

    if args.trace:
        tracer = spans.Tracer()
        plain = [run_pass(cli, verify, ops)]
        with tracer.installed():
            traced = run_passes(cli, verify, ops,
                                args.seconds - plain[0]["s"], tracer)
        passes = plain + traced
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = statistics.median(
            p["scaled_s"] for p in traced) / plain[0]["scaled_s"]
        metrics.update(src_lines(spans.MODULES))
        units = {}
    else:
        setup = []
        passes = run_passes(
            cli, verify, ops, args.seconds,
            before_pass=lambda: setup.extend(setup_probe_times(
                args.workload, seed, args.smoke, SETUP_PROBES_PER_PASS)))
        metrics = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "item_ms": statistics.median(p["scaled_s"] for p in passes)
            / items(args.workload, passes[0]["records"]) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "item_ms": "ms", "peak_rss_mb": "MB"}

    recs = [r for p in passes for r in p["records"]]
    failed = sum(1 for r in recs if r["errors"])
    prints = {verify.fingerprint([r["summary"] for r in p["records"]])
              for p in passes}
    if len(prints) != 1:
        problems.append(f"passes disagree: fingerprints {sorted(prints)}")
    for r in recs:
        for e in r["errors"]:
            print(f"FAILED {' '.join(r['op'].argv)}: {e}", file=sys.stderr)
    for msg in problems:
        print(f"FAILED self-test: {msg}", file=sys.stderr)
    if not args.trace:
        for line in report_lines(args.workload, passes, failed / len(recs),
                                 setup):
            print(line)
    fp = min(prints)
    print(f"fingerprint {args.workload} seed={seed} {fp} passes={len(passes)} "
          f"ops/pass={len(ops)} baseline="
          f"{baseline_match(args.workload, seed, fp, args.smoke)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or spans.unit_of(k)}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
