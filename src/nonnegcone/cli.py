"""Command line front end: every operation as a reproducible experiment.

Each subcommand parses its inputs, runs the corresponding library call,
and emits a single JSON document that embeds the full run configuration,
so any artifact can be replayed exactly. Output files are written
atomically (temp file then rename); a failing command leaves no partial
artifact behind.

Exit codes: 0 success / no refutation, 1 negative mathematical outcome
(refuted, not nonnegative, missing bracket), 2 input or usage error, an
output file that cannot be written, or a polynomial proved negative only
beyond the float range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import (BeyondFloatRange, NoConvergence, NonPositiveInput,
                   Polynomial, perron_normalize)
from .exact import (
    IllConditioned,
    NotNonnegative,
    polya_szego_decompose,
)
from .families import (
    Alpha,
    ConjectureGap,
    FamilySpec,
    InvalidSpec,
    LoewyGeneral,
    build,
    necessary_conditions,
    spec_to_json_dict,
)
from .membership import (
    BadBracket,
    NoFloatWitness,
    NoUpperRefutation,
    Refuted,
    SearchConfig,
    max_t,
    refute,
    trace_slice,
    verdict_to_json_dict,
)
from .volume import (
    compare_experiment,
    estimate_cone_fraction,
    estimate_projection_fraction,
    estimates_csv,
)

ENV_SEED = "NONNEG_CONE_SEED"
# the options that subcommands share, in run_config order; each subcommand
# defines only those it reads
_OPTIONS = ("seed", "restarts", "samples", "out")


def _resolve_seed(arg_seed: Optional[int]) -> int:
    if arg_seed is not None:
        return arg_seed
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _InputError(f"{ENV_SEED} is not an integer: {env!r}")
    return 0


def _run_config(args: argparse.Namespace, command: str, params: dict) -> dict:
    """Everything needed to replay a command, echoed into every artifact:
    the command, the shared options it defines, the seed resolved, and
    params."""
    given = vars(args)
    rc = {"command": command,
          **{name: given[name] for name in _OPTIONS if name in given},
          "params": params}
    if "seed" in rc:
        rc["seed"] = _resolve_seed(rc["seed"])
    return rc


def _search_config(rc: dict, max_iters: int = 200) -> SearchConfig:
    return SearchConfig(restarts=rc["restarts"], max_iters=max_iters,
                        seed=rc["seed"])


def _parse_json_arg(text: str, what: str):
    """JSON literal, or @path to read a file containing one."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r") as fh:
                text = fh.read()
        except OSError as e:
            raise _InputError(f"cannot read {what} file {text[1:]!r}: {e}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _InputError(f"malformed {what} JSON: {e}")


def _is_number(v) -> bool:
    """Whether a parsed JSON value is a number (bool is not)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_poly(text: str) -> Polynomial:
    data = _parse_json_arg(text, "polynomial")
    if not isinstance(data, list) or not data or \
            not all(_is_number(c) and abs(c) <= sys.float_info.max
                    for c in data):
        raise _InputError("polynomial must be a nonempty JSON array of "
                          "finite numbers, constant term first")
    return Polynomial(data)


def _parse_matrix(text: str) -> np.ndarray:
    data = _parse_json_arg(text, "matrix")
    try:
        if not (isinstance(data, list) and
                all(isinstance(row, list) and all(map(_is_number, row))
                    for row in data)):
            raise ValueError
        a = np.array(data, dtype=float)
    except (ValueError, OverflowError):
        raise _InputError("matrix must be a JSON array of equal-length "
                          "numeric rows")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise _InputError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise _InputError("matrix entries must be finite numbers")
    return a


class _InputError(ValueError):
    """Bad user input; maps to exit code 2."""


def _family_spec(args: argparse.Namespace) -> FamilySpec:
    kind = args.kind
    try:
        if kind == "loewy":
            if args.m is None or args.s is None:
                raise _InputError("loewy requires --m and --s")
            return LoewyGeneral(n=args.n, m=args.m, s=args.s, t=args.t)
        if kind == "alpha":
            return Alpha(n=args.n, alpha=args.t)
        if kind == "conjecture":
            if args.m is None or args.s is None:
                raise _InputError("conjecture requires --m and --s")
            return ConjectureGap(n=args.n, m=args.m, s=args.s, t=args.t)
    except InvalidSpec as e:
        raise _InputError(str(e))
    raise _InputError(f"unknown family kind {kind!r}")


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise _InputError(f"cannot write {path!r}: {e.strerror}")


def _emit(payload: dict, rc: dict, extra_files: Optional[dict] = None) -> None:
    """Print the artifact and persist it (plus side files) atomically: the
    side files first and --out last; if one cannot be written, those
    already written are removed."""
    payload = {"run_config": rc, **payload}
    text = json.dumps(payload, indent=2) + "\n"
    files = dict(extra_files or {})
    if rc["out"]:
        files[rc["out"]] = text
    written = []
    try:
        for path, body in files.items():
            _write_atomic(path, body)
            written.append(path)
    except _InputError:
        for path in written:
            os.unlink(path)
        raise
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args: argparse.Namespace) -> int:
    p = _parse_poly(args.poly)
    if p.is_zero():
        raise _InputError("check needs a nonzero polynomial")
    rc = _run_config(args, "check", {"poly": list(p.coeffs), "n": args.n})
    cfg = _search_config(rc)
    flags = [{"kind": kind, "degree": deg}
             for kind, deg in necessary_conditions(p, args.n)]
    verdict = refute(p, args.n, cfg)
    payload = {
        "necessary_condition_failures": flags,
        "verdict": verdict_to_json_dict(verdict, cfg),
    }
    _emit(payload, rc)
    return 1 if isinstance(verdict, Refuted) else 0


def cmd_maxt(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    rc = _run_config(args, "maxt",
                     {"family": spec_to_json_dict(spec), "t_hi": args.t_hi,
                      "width": args.width, "n": spec.n})
    cfg = _search_config(rc)
    probes: list = []
    try:
        lo, hi = max_t(spec, spec.n, cfg, t_hi=args.t_hi, width=args.width,
                       probe_log=probes)
    except NoUpperRefutation as e:
        _emit({"error": "no_upper_refutation", "detail": str(e)}, rc)
        return 1
    trace_rows = "\n".join(["t,refuted"] +
                           [f"{t!r},{int(hit)}" for t, hit in probes]) + "\n"
    extra = {}
    if rc["out"]:
        extra[os.path.splitext(rc["out"])[0] + ".trace.csv"] = trace_rows
    payload = {
        "interval": [lo, hi],
        "width": hi - lo,
        "probes": [{"t": t, "refuted": hit} for t, hit in probes],
    }
    _emit(payload, rc, extra)
    return 0


def cmd_volume(args: argparse.Namespace) -> int:
    rc = _run_config(args, "volume",
                     {"n": args.n, "k": args.k, "projection": args.projection,
                      "c_cap": args.c_cap})
    cfg = _search_config(rc, max_iters=120)
    if args.projection:
        if args.k < 2 * args.n:
            raise _InputError("--projection needs --k >= 2 n")
        est = estimate_projection_fraction(args.n, args.k, rc["samples"], cfg,
                                           c_cap=args.c_cap)
    else:
        est = estimate_cone_fraction(args.n, args.k, rc["samples"], cfg)
    extra = {}
    if rc["out"]:
        extra[os.path.splitext(rc["out"])[0] + ".csv"] = estimates_csv([est])
    _emit({"estimate": est.to_json_dict()}, rc, extra)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    params = _parse_json_arg(args.params, "experiment parameters")
    if not isinstance(params, dict):
        raise _InputError("experiment parameters must be a JSON object")
    rc = _run_config(args, "compare", {"kind": args.kind, **params})
    cfg = _search_config(rc, max_iters=120)
    try:
        report = compare_experiment(args.kind, params, rc["samples"], cfg)
    except (KeyError, ValueError, TypeError) as e:
        raise _InputError(f"bad parameters for {args.kind!r}: {e}")
    _emit({"report": report}, rc)
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    p = _parse_poly(args.p)
    q = _parse_poly(args.q)
    u = _parse_poly(args.u)
    rc = _run_config(args, "slice",
                     {"p": list(p.coeffs), "q": list(q.coeffs),
                      "u": list(u.coeffs), "n": args.n, "grid": args.grid})
    cfg = _search_config(rc)
    try:
        tr = trace_slice(p, q, u, args.n, args.grid, cfg)
    except BadBracket as e:
        _emit({"error": "bad_bracket", "detail": str(e)}, rc)
        return 1
    payload = {
        "points": [[t, mu] for t, mu in tr.points],
        "missing": list(tr.missing),
        "collinearity_residual": tr.residual,
    }
    _emit(payload, rc)
    return 0


def cmd_family(args: argparse.Namespace) -> int:
    spec = _family_spec(args)
    rc = _run_config(args, "family", {"family": spec_to_json_dict(spec)})
    p = build(spec)
    _emit({"coefficients": list(p.coeffs), "degree": p.degree()}, rc)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    p = _parse_poly(args.poly)
    rc = _run_config(args, "decompose", {"poly": list(p.coeffs)})
    try:
        dec = polya_szego_decompose(p)
    except NotNonnegative as e:
        _emit({"error": "not_nonnegative", "detail": str(e)}, rc)
        return 1
    except IllConditioned as e:
        _emit({"error": "ill_conditioned", "detail": str(e)}, rc)
        return 1
    payload = {
        "f1": list(dec.f1.coeffs),
        "f2": list(dec.f2.coeffs),
        "g1": list(dec.g1.coeffs),
        "g2": list(dec.g2.coeffs),
        "residual": dec.residual,
    }
    _emit(payload, rc)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    a = _parse_matrix(args.matrix)
    rc = _run_config(args, "normalize", {"matrix": a.tolist()})
    try:
        dec = perron_normalize(a)
    except (NonPositiveInput, BeyondFloatRange) as e:
        raise _InputError(str(e))
    except NoConvergence as e:
        _emit({"error": "no_convergence", "detail": str(e)}, rc)
        return 1
    err = float(np.max(np.abs(dec.reconstruct() - a)))
    payload = {
        "rho": dec.rho,
        "stochastic": dec.s.tolist(),
        "scaling": dec.d.tolist(),
        "roundtrip_error": err,
    }
    _emit(payload, rc)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _checked(conv: Callable, ok: Callable, what: str) -> Callable:
    """argparse type: conv(text), rejected as a usage error unless ok."""
    def parse(text: str):
        try:
            v = conv(text)
            if ok(v):
                return v
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_POS_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_NONNEG_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POS_FLOAT = _checked(float, lambda v: 0.0 < v < math.inf,
                      "a finite number > 0")


def _add_options(sp: argparse.ArgumentParser, restarts: Optional[int] = None,
                 samples: bool = False) -> None:
    """--out; given a restarts default, the search options --seed and
    --restarts; with samples, --samples."""
    if restarts is not None:
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (fallback: ${ENV_SEED}, then 0)")
        sp.add_argument("--restarts", type=_POS_INT, default=restarts,
                        help="search restarts per membership query "
                             "(default: %(default)s)")
    if samples:
        sp.add_argument("--samples", type=_POS_INT, default=10000,
                        help="Monte Carlo sample count")
    sp.add_argument("--out", type=str, default=None,
                    help="write the JSON artifact here (atomically)")


def _add_family_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("kind", choices=["loewy", "alpha", "conjecture"])
    sp.add_argument("--n", type=_POS_INT, required=True, help="matrix order")
    sp.add_argument("--m", type=int, default=None, help="center degree")
    sp.add_argument("--s", type=int, default=None, help="offset")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nonnegcone",
        description="Numerical laboratory for polynomials that preserve "
                    "entrywise nonnegativity of matrices.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="test one polynomial for membership")
    sp.add_argument("poly", help="JSON coefficient array or @file")
    sp.add_argument("--n", type=_POS_INT, required=True, help="matrix order")
    _add_options(sp, restarts=50)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("maxt", help="bisect the largest safe family weight")
    _add_family_args(sp)
    sp.add_argument("--t-hi", type=_POS_FLOAT, default=4.0,
                    help="upper end of the bisection bracket")
    sp.add_argument("--width", type=_POS_FLOAT, default=0.01,
                    help="target bracket width")
    _add_options(sp, restarts=50)
    # t comes from the bisection; the spec is built at the default weight
    sp.set_defaults(fn=cmd_maxt, t=2.0)

    sp = sub.add_parser("volume", help="Monte Carlo cone fraction of the ball")
    sp.add_argument("--n", type=_POS_INT, required=True, help="matrix order")
    sp.add_argument("--k", type=_NONNEG_INT, required=True,
                    help="degree bound")
    sp.add_argument("--projection", action="store_true",
                    help="measure the one-degree-down projection instead")
    sp.add_argument("--c-cap", type=_POS_FLOAT, default=10.0,
                    help="projection cap: each row is completed with "
                    "16 c_cap x^(k+1), which decides every c <= 16 c_cap")
    _add_options(sp, restarts=20, samples=True)
    sp.set_defaults(fn=cmd_volume)

    sp = sub.add_parser("compare", help="paired fraction experiments")
    sp.add_argument("kind", choices=["order", "projection", "degree", "trend"])
    sp.add_argument("params", help="JSON parameter object, e.g. "
                    '\'{"n_a":1,"n_b":2,"k":4}\'')
    _add_options(sp, restarts=20, samples=True)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("slice", help="trace the boundary along a segment")
    sp.add_argument("p", help="left endpoint polynomial JSON")
    sp.add_argument("q", help="right endpoint polynomial JSON")
    sp.add_argument("u", help="probe direction polynomial JSON")
    sp.add_argument("--n", type=_POS_INT, required=True, help="matrix order")
    sp.add_argument("--grid", type=_POS_INT, default=9,
                    help="number of interior segment points")
    _add_options(sp, restarts=50)
    sp.set_defaults(fn=cmd_slice)

    sp = sub.add_parser("family", help="print family coefficients")
    _add_family_args(sp)
    sp.add_argument("--t", type=float, default=2.0, help="center weight")
    _add_options(sp)
    sp.set_defaults(fn=cmd_family)

    sp = sub.add_parser("decompose",
                        help="two-square certificate for a half-line member")
    sp.add_argument("poly", help="JSON coefficient array or @file")
    _add_options(sp)
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("normalize",
                        help="Perron scaling of a positive matrix")
    sp.add_argument("matrix", help="JSON row-major square matrix or @file")
    _add_options(sp)
    sp.set_defaults(fn=cmd_normalize)

    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing keeps no state in
    the parser, so every main call shares it. The parser binds each
    subcommand's cmd_* function when it is built."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    """Run one command line; its exit code. A usage error returns 2 and
    --help returns 0, like every other outcome, rather than exiting."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        return args.fn(args)
    except (_InputError, InvalidSpec, NoFloatWitness, BeyondFloatRange) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
