"""Independent checks of command outputs, and the result fingerprint.

Nothing here calls into ``nonnegcone``: a refutation witness is re-evaluated
with this file's own rational row-vector Horner scheme, and volume reports
are checked against identities that hold for any correct estimator.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# independent quadrature value of the n = 1, degree-2 cone fraction
QUADRATURE_N1_K2 = 0.2128721
# the program reports 3-sigma intervals, which miss the true value for
# 0.27% of seeds; the benchmark recomputes a 4.5-sigma interval from the
# reported counts so that a correct estimator fails about once in 1e5 seeds
QUADRATURE_Z = 4.5


def exact_entry(coeffs, s, rho, i: int, j: int) -> Fraction:
    """Entry (i, j) of p(rho * s) in rational arithmetic: e_i^T p(A) by Horner."""
    n = len(s)
    a = [[Fraction(rho) * Fraction(v) for v in row] for row in s]
    row = [Fraction(0)] * n
    for c in reversed(coeffs):
        row = [sum((row[k] * a[k][col] for k in range(n)), Fraction(0))
               for col in range(n)]
        row[i] += Fraction(c)
    return row[j]


def witness_errors(coeffs, n: int, w: dict) -> list:
    """Reasons a claimed witness fails to prove p outside the order-n cone."""
    s, rho, i, j, value = w["s"], w["rho"], w["i"], w["j"], w["value"]
    if len(s) != n or any(len(r) != n for r in s):
        return [f"witness matrix is not {n}x{n}"]
    if not (0 <= i < n and 0 <= j < n):
        return [f"entry ({i}, {j}) out of range"]
    if not (rho > 0 and all(v > 0 for r in s for v in r)):
        return ["rho * s is not entrywise positive"]
    entry = exact_entry(coeffs, s, rho, i, j)
    errors = []
    if entry >= 0:
        errors.append(f"entry ({i}, {j}) is {float(entry)!r}, not negative")
    if not value < 0 or abs(float(entry) - value) > 1e-6 * max(1.0, abs(value)):
        errors.append(f"reported value {value!r} does not match {float(entry)!r}")
    return errors


def _wilson(inside: int, total: int, z: float) -> tuple:
    p = inside / total
    zz = z * z
    center = (p + zz / (2 * total)) / (1 + zz / total)
    half = z * math.sqrt(p * (1 - p) / total + zz / (4 * total * total)) \
        / (1 + zz / total)
    return center - half, center + half


def _estimate_errors(e: dict) -> list:
    errors = []
    if e["n_inside"] + e["n_refuted"] != e["n_samples"]:
        errors.append(f"inside + refuted != samples in {e['n']},{e['k']}")
    if not e["ci_low"] <= e["fraction"] <= e["ci_high"]:
        errors.append(f"fraction outside its interval in {e['n']},{e['k']}")
    if e["fraction"] != e["n_inside"] / e["n_samples"]:
        errors.append(f"fraction != inside / samples in {e['n']},{e['k']}")
    return errors


def _quadrature_errors(e: dict) -> list:
    lo, hi = _wilson(e["n_inside"], e["n_samples"], QUADRATURE_Z)
    if lo <= QUADRATURE_N1_K2 <= hi:
        return []
    return [f"n=1 k=2 fraction {e['fraction']} excludes {QUADRATURE_N1_K2}"]


def check_output(op, code: int, doc) -> list:
    """Every reason the output of ``op`` is wrong; empty when it is right.

    Exit 1 is a mathematical outcome (refuted, no bracket), not a failure.
    """
    if code not in (0, 1) or doc is None:
        return [f"exit code {code}"]
    if op.kind == "check":
        v = doc["verdict"]
        if code == 1:
            if v["kind"] != "refuted":
                return [f"exit 1 with verdict {v['kind']}"]
            return witness_errors(op.meta["coeffs"], op.meta["n"], v["witness"])
        if v["kind"] != "no_refutation_found" or \
                v["restarts_used"] != op.meta["restarts"]:
            return [f"exit 0 with verdict {v['kind']}"]
        return []
    if op.kind == "maxt":
        if code == 1:
            return [] if doc.get("error") == "no_upper_refutation" \
                else ["exit 1 without no_upper_refutation"]
        lo, hi = doc["interval"]
        return [] if lo < hi and hi - lo <= op.meta["width"] \
            else [f"bad interval {lo}, {hi}"]
    if op.kind == "slice":
        if code == 1:
            return [] if doc.get("error") == "bad_bracket" \
                else ["exit 1 without bad_bracket"]
        ts = [t for t, _ in doc["points"]] + list(doc["missing"])
        if len(ts) != op.meta["grid"] or not all(0 < t < 1 for t in ts):
            return ["slice points do not cover the grid"]
        return [] if all(mu >= 0 for _, mu in doc["points"]) \
            else ["negative boundary offset"]
    if op.kind == "compare":
        if code != 0:
            return [f"compare exit {code}"]
        ests = doc["report"]["estimates"]
        errors = [msg for e in ests for msg in _estimate_errors(e)]
        if any(e["n_samples"] != op.meta["samples"] for e in ests):
            errors.append("sample count differs from --samples")
        if op.tag == "order" and ests[1]["n_inside"] > ests[0]["n_inside"]:
            errors.append("larger matrix order has more inside samples")
        # the plain n = 1, k = 2 cone estimate: first of degree, second of
        # projection (the first of projection is the projected cone)
        plain = {"degree": ests[0], "projection": ests[1]}.get(op.tag)
        if plain is not None and (plain["n"], plain["k"]) == (1, 2):
            errors += _quadrature_errors(plain)
        return errors
    return [f"unknown op kind {op.kind}"]


def summary(op, code: int, doc):
    """The part of an output that a correct, deterministic program repeats:
    verdicts, witness positions, intervals, slice points and volume counts.
    Never ``run_config``, which records the machine's thread count."""
    if doc is None:
        return [op.kind, code]
    if op.kind == "check":
        v = doc["verdict"]
        w = v.get("witness")
        return [op.kind, code, v["kind"], [w["i"], w["j"]] if w else None]
    if op.kind == "maxt":
        return [op.kind, code, doc.get("interval")]
    if op.kind == "slice":
        return [op.kind, code, doc.get("points"), doc.get("missing")]
    if op.kind == "compare":
        return [op.kind, code, [[e["n"], e["k"], e["n_samples"], e["n_inside"],
                                 e["n_refuted"]]
                                for e in doc["report"]["estimates"]]]
    return [op.kind, code]


def fingerprint(summaries: list) -> str:
    text = json.dumps(summaries, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tamper_selftest(coeffs, n: int, w: dict) -> list:
    """Show the witness check rejects altered witnesses; return the failures.

    ``w`` must be a genuine witness for ``coeffs``. Each tampered copy must
    be rejected: value sign flipped, entry moved to a nonnegative position,
    matrix entry driven to zero, and rho <= 0.
    """
    problems = [] if not witness_errors(coeffs, n, w) else \
        ["genuine witness rejected"]
    flipped = dict(w, value=-w["value"])
    zero_s = dict(w, s=[[0.0] + list(w["s"][0][1:])] + [list(r) for r in w["s"][1:]])
    moved = None
    for i in range(n):
        for j in range(n):
            if exact_entry(coeffs, w["s"], w["rho"], i, j) >= 0:
                moved = dict(w, i=i, j=j)
    tampered = {"flipped value": flipped, "zero matrix entry": zero_s,
                "rho = 0": dict(w, rho=0.0), "rho < 0": dict(w, rho=-w["rho"])}
    if moved is not None:
        tampered["moved entry"] = moved
    else:
        problems.append("no nonnegative entry to move the witness to")
    for name, bad in tampered.items():
        if not witness_errors(coeffs, n, bad):
            problems.append(f"tampered witness accepted: {name}")
    return problems
