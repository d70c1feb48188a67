"""Command-line front end.

Subcommands:

* ``norm`` -- evaluate one norm of a stored field, print a JSON record.
* ``verify`` -- run a randomized verification suite for the two-sided
  smoothing inequality and emit per-instance ratios.
* ``interp`` -- run one of the interpolation/rearrangement check suites.
* ``sharpness`` -- sweep the extremal-family level count and report growth
  curves plus fitted slopes.

Exit codes: 0 on success, 2 for invalid flags or failed preconditions
(``ValueError``), 1 for runtime failures.  Reports are byte-stable for a
fixed configuration and seed: floats are serialized with their shortest
round-trip representation, JSON keys are sorted, and every report embeds the
resolved configuration (CSV reports carry it in a leading ``# config:``
comment line).  The string ``inf`` is accepted for infinite exponents.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from .inequalities import GENERATORS, derive_params, run_suite
from .interpolation import run_interp_suite
from .norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    besov_seminorm,
    lebesgue_norm,
    lorentz_norm,
    triebel_seminorm,
)
from .sharpness import build_atom, build_params, default_level_grid, growth_experiment
from .spectral import decompose, load_field, lowest_scale_for_dc_only, make_cutoff_profile

__all__ = ["main", "emit_report"]

_INF = math.inf


def _jsonable(value):
    """JSON-safe scalar: infinities become the string "inf" (mirrors the flag
    syntax) and float subclasses (numpy scalars) are normalized."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)
    return value


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {
        key: _jsonable(value)
        for key, value in sorted(vars(args).items())
        if key not in skip
    }


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        # Shortest round-trip form; normalizes float subclasses (numpy scalars).
        return repr(float(value))
    return str(value)


def emit_report(records, columns, header, summary=None, fmt: str = "csv", path=None) -> None:
    """Write a deterministic report to ``path`` (or stdout).

    CSV: a ``# config: {...}`` comment line, the column header, then one row
    per record with shortest-round-trip float cells.  JSON: a single object
    ``{"header":…, "records":…, "summary":…}`` with sorted keys.
    """
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_format_cell(rec[col]) for col in columns])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "header": header,
            "records": [{k: _jsonable(v) for k, v in rec.items()} for rec in records],
            "summary": {k: _jsonable(v) for k, v in (summary or {}).items()},
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise RuntimeError(f"cannot write report to {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_norm(args: argparse.Namespace) -> int:
    field = load_field(args.input)
    if args.space == "lebesgue":
        if args.p is None:
            raise ValueError("--p is required for the lebesgue space")
        value = lebesgue_norm(MeasuredValues.from_field(field), args.p)
    elif args.space == "lorentz":
        if args.p is None or args.r is None:
            raise ValueError("--p and --r are required for the lorentz space")
        value = lorentz_norm(MeasuredValues.from_field(field), LorentzParams(args.p, args.r))
    else:
        if args.s is None or args.p is None or args.q is None:
            raise ValueError("--s, --p and --q are required for block-based spaces")
        j_min = args.jmin if args.jmin is not None else lowest_scale_for_dc_only(field.grid)
        if args.jmax is not None:
            j_max = args.jmax
        else:
            j_max = math.floor(math.log2(field.grid.nyquist * (1.0 + 1e-12))) - 1
        d = decompose(field, make_cutoff_profile(1.0), j_min, j_max)
        space = BesovParams(args.s, args.p, args.q)
        value = besov_seminorm(d, space) if args.space == "besov" else triebel_seminorm(d, space)
    record = {"norm": value, "params": _config_echo(args)}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


def _emit_suite(args: argparse.Namespace, records: list[dict]) -> int:
    """Report suite records, one column per record key, with the ``max_ratio``
    of the first worst record; ``verify`` records, which carry a descriptor,
    also name that instance."""
    worst = max(records, key=lambda rec: rec["ratio"])
    summary = {"max_ratio": worst["ratio"]}
    if "generator_descriptor" in worst:
        summary["argmax_id"] = worst["instance_id"]
        summary["argmax_descriptor"] = worst["generator_descriptor"]
    emit_report(records, list(worst), _config_echo(args), summary=summary, fmt=args.format, path=args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    case = derive_params(
        args.alpha,
        args.beta,
        args.q0,
        args.q1,
        args.r0,
        args.r1,
        r=None if args.auto_r_star else args.r,
    )
    return _emit_suite(args, run_suite(case, args.generator, args.count, args.seed, grid_points=args.grid))


def _cmd_interp(args: argparse.Namespace) -> int:
    records = run_interp_suite(
        args.check,
        p=args.p,
        r=args.r,
        q0=args.q0,
        q1=args.q1,
        theta=args.theta,
        suite_size=args.suite_size,
        seed=args.seed,
    )
    return _emit_suite(args, records)


def _cmd_sharpness(args: argparse.Namespace) -> int:
    params = build_params(
        args.n, args.alpha, args.beta, args.q0, args.q1, args.r0, args.r1, r=args.r
    )
    atom = build_atom(args.moments)
    levels = default_level_grid(args.Lmin, args.Lmax)
    result = growth_experiment(params, atom, levels)
    header = _config_echo(args)
    emit_report(result.records, list(result.records[0]), header, summary=result.slopes, fmt="csv", path=args.out)
    slopes_payload = {
        "header": header,
        "slopes": result.slopes,
        "expected": {k: _jsonable(v) for k, v in result.expected.items()},
    }
    text = json.dumps(slopes_payload, sort_keys=True, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).with_suffix(".slopes.json").write_text(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lplorentz",
        description="Dyadic-decomposition norms, interpolation checks, and inequality suites.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    norm = subparsers.add_parser("norm", help="evaluate one norm of a stored field")
    norm.add_argument("--space", choices=("lebesgue", "lorentz", "besov", "triebel"), required=True)
    norm.add_argument("--input", required=True, help="field file (JSON, optional .bin sidecar)")
    norm.add_argument("--s", type=float, default=None, help="regularity exponent")
    norm.add_argument("--p", type=float, default=None, help="integrability exponent ('inf' allowed)")
    norm.add_argument("--q", type=float, default=None, help="inner/summation exponent")
    norm.add_argument("--r", type=float, default=None, help="secondary Lorentz exponent")
    norm.add_argument("--jmin", type=int, default=None, help="lowest dyadic scale (default: DC-only)")
    norm.add_argument("--jmax", type=int, default=None, help="highest dyadic scale (default: grid limit)")
    norm.set_defaults(func=_cmd_norm)

    verify = subparsers.add_parser("verify", help="randomized inequality suite")
    verify.add_argument("--alpha", type=float, required=True)
    verify.add_argument("--beta", type=float, required=True)
    verify.add_argument("--q0", type=float, required=True)
    verify.add_argument("--q1", type=float, required=True)
    verify.add_argument("--r0", type=float, required=True)
    verify.add_argument("--r1", type=float, required=True)
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, default=None)
    group.add_argument(
        "--auto-r-star",
        action="store_true",
        help="use the composed exponent (1-theta)/r0 + theta/r1",
    )
    verify.add_argument("--generator", choices=GENERATORS, default="multi-block-random")
    verify.add_argument("--count", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--grid", type=int, default=4096, help="points per axis")
    _add_output_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    interp = subparsers.add_parser("interp", help="interpolation and rearrangement check suites")
    interp.add_argument(
        "--check",
        choices=("k-equivalence", "layer-cake", "partition", "duality", "reiteration"),
        required=True,
    )
    interp.add_argument("--p", type=float, default=2.0)
    interp.add_argument("--r", type=float, default=2.0)
    interp.add_argument("--q0", type=float, default=1.0)
    interp.add_argument("--q1", type=float, default=_INF)
    interp.add_argument("--theta", type=float, default=0.5)
    interp.add_argument("--suite-size", type=int, default=100)
    interp.add_argument("--seed", type=int, default=0)
    _add_output_flags(interp)
    interp.set_defaults(func=_cmd_interp)

    sharp = subparsers.add_parser("sharpness", help="extremal-family growth sweep")
    sharp.add_argument("--n", type=int, default=1)
    sharp.add_argument("--alpha", type=float, required=True)
    sharp.add_argument("--beta", type=float, required=True)
    sharp.add_argument("--q0", type=float, required=True)
    sharp.add_argument("--q1", type=float, required=True)
    sharp.add_argument("--r0", type=float, required=True)
    sharp.add_argument("--r1", type=float, required=True)
    sharp.add_argument("--r", type=float, default=None, help="default: composed exponent")
    sharp.add_argument("--Lmin", type=int, default=8)
    sharp.add_argument("--Lmax", type=int, default=64)
    sharp.add_argument("--moments", type=int, default=2, help="vanishing-moment order of the atom")
    sharp.add_argument("--out", default=None, help="CSV path; slopes go to a .slopes.json companion")
    sharp.set_defaults(func=_cmd_sharpness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures: assertion-style and I/O errors
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
