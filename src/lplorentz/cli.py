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
comment line).  JSON reports and the ``.slopes.json`` companion are the bytes
of ``json.dumps`` with sorted keys and a two-space indent, written by the C
encoder (see :func:`_json_text`).  The string ``inf`` is accepted for
infinite exponents.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

from .inequalities import GENERATORS, CaseParams, run_suite
from .interpolation import CHECKS, run_interp_suite
from .norms import (
    BesovParams,
    LorentzParams,
    MeasuredValues,
    besov_seminorm,
    lebesgue_norm,
    lorentz_norm,
    triebel_seminorm,
)
from .sharpness import Atom, build_atom, build_params, default_level_grid, growth_experiment
from .spectral import _is_power_of_two, decompose, load_field, lowest_scale_for_dc_only

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


# One level of indentation of a JSON report: ``json.dumps`` with an indent of two spaces.
_INDENT = "  "


def _scalar_dict(value) -> bool:
    """Whether ``value`` is a nonempty dict of string keys and scalar values."""
    return isinstance(value, dict) and bool(value) and all(
        isinstance(key, str) and (item is None or isinstance(item, (str, int, float)))
        for key, item in value.items()
    )


def _c_encoded(value, item_separator: str) -> str:
    """``value`` in one call of the C encoder, which ``json`` uses only
    without an indent; the line breaks and indents go in the separator."""
    return json.JSONEncoder(sort_keys=True, separators=("," + item_separator, ": ")).encode(value)


def _json_text(value, outer: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=_INDENT)``, byte for byte,
    nested where the closing bracket follows ``outer``, a line break and
    indent.

    A dict of scalars, and a list of them, is one :func:`_c_encoded` call
    whose separator carries the line break and indent of the dict items;
    between list items it is rewritten to the list's own indent.  An encoded
    string never holds a raw line break, so ``},`` + that separator + ``{``
    occurs only between list items.  A dict of other values is written key
    by key, and any other shape by ``json.dumps``, re-indented.
    """
    inner = outer + _INDENT
    if _scalar_dict(value):
        return "{" + inner + _c_encoded(value, inner)[1:-1] + outer + "}"
    if isinstance(value, list) and value and all(map(_scalar_dict, value)):
        item = inner + _INDENT
        body = _c_encoded(value, item)[2:-2].replace("}," + item + "{", inner + "}," + inner + "{" + item)
        return "[" + inner + "{" + item + body + inner + "}" + outer + "]"
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (f"{json.dumps(key)}: {_json_text(value[key], inner)}" for key in sorted(value))
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    return json.dumps(value, sort_keys=True, indent=_INDENT).replace("\n", outer)


def emit_report(records, columns, header, summary=None, fmt: str = "csv", path=None) -> None:
    """Write a deterministic report to ``path`` (or stdout).

    CSV: a ``# config: {...}`` comment line, the column header, then one row
    per record of ``str(_jsonable(value))`` cells.  JSON: a single object
    ``{"header":…, "records":…, "summary":…}`` with sorted keys.
    """
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([str(_jsonable(rec[col])) for col in columns])
        text = buf.getvalue()
    elif fmt == "json":
        payload = {
            "header": header,
            "records": [{k: _jsonable(v) for k, v in rec.items()} for rec in records],
            "summary": {k: _jsonable(v) for k, v in (summary or {}).items()},
        }
        text = _json_text(payload) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    _write(text, path)


def _write(text: str, path) -> None:
    """Write ``text`` to the file ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write report to {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_norm(args: argparse.Namespace) -> int:
    try:
        field = load_field(args.input)
    except Exception as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise RuntimeError(f"cannot read field from --input {args.input!r}: {reason}") from exc
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
        top = math.floor(math.log2(field.grid.nyquist * (1.0 + 1e-12))) - 1
        low = lowest_scale_for_dc_only(field.grid)
        j_min = args.jmin if args.jmin is not None else low
        j_max = args.jmax if args.jmax is not None else top
        if j_min < low:
            # each block below ``low`` is zero, yet costs a full-grid multiplier and FFT row
            raise ValueError(
                f"--jmin must be at least {low}: the block frequencies up to 2**{j_min + 1} do not exceed "
                f"the lowest grid frequency {2.0 * math.pi / field.grid.period:g}"
            )
        if j_min >= j_max:
            raise ValueError(f"--jmin must be strictly below --jmax, got {j_min} and {j_max}")
        if j_max > top:
            raise ValueError(
                f"--jmax must be at most {top}: the top block frequency 2**{j_max + 1} exceeds "
                f"the grid Nyquist frequency {field.grid.nyquist:g}"
            )
        d = decompose(field, j_min, j_max)
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


# the case-exponent flags of ``verify`` and ``sharpness``; the parameter
# checks name alpha, beta, q0 and q1 by the first four
_EXPONENT_FLAGS = ("--alpha", "--beta", "--q0", "--q1", "--r0", "--r1")
_CASE_FLAGS = _EXPONENT_FLAGS[:4]


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _cmd_verify(args: argparse.Namespace) -> int:
    case = CaseParams(
        args.alpha, args.beta, args.q0, args.q1, args.r0, args.r1, None if args.auto_r_star else args.r, _CASE_FLAGS
    )
    if not (_is_power_of_two(args.grid) and args.grid >= 8):
        raise ValueError(f"--grid must be a power of two >= 8, got {args.grid}")
    _check_seed(args.seed)
    return _emit_suite(args, run_suite(case, args.generator, args.count, args.seed, grid_points=args.grid))


def _cmd_interp(args: argparse.Namespace) -> int:
    if not 0.0 < args.theta < 1.0:
        raise ValueError(f"--theta must lie in (0, 1), got {args.theta!r}")
    _check_seed(args.seed)
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


@lru_cache(maxsize=8)
def _atom(moments: int) -> Atom:
    """The sweep atom of ``moments`` vanishing moments, built once per process
    (``build_atom`` itself returns a fresh atom per call)."""
    return build_atom(moments)


def _cmd_sharpness(args: argparse.Namespace) -> int:
    params = build_params(
        args.n, args.alpha, args.beta, args.q0, args.q1, args.r0, args.r1, r=args.r, names=_CASE_FLAGS
    )
    # no fit resolves an expected slope 1/r below 1e-14: at --Lmax 64, 1/r0 = 1e-15 fits at 1.04e-15
    for flag, value in (("--r0", params.r0), ("--r1", params.r1), ("--r", args.r and params.r)):
        if value and 0.0 < 1.0 / value < 1e-14:
            raise ValueError(f"{flag}={value!r} gives the expected slope {1.0 / value!r}, "
                             "below the 1e-14 that the sweep's slope fit resolves")
    if not 1 <= args.Lmin < args.Lmax:
        raise ValueError(f"need 1 <= --Lmin < --Lmax, got {args.Lmin} and {args.Lmax}")
    # the level grid then has >= 4 levels spanning a factor of 8, as the slope fits need
    if args.Lmax < 8 * args.Lmin:
        raise ValueError(
            f"need --Lmax >= 8 * --Lmin for a sweep over three octaves, got {args.Lmin} and {args.Lmax}"
        )
    atom = _atom(args.moments)
    levels = default_level_grid(args.Lmin, args.Lmax)
    result = growth_experiment(params, atom, levels)
    header = _config_echo(args)
    emit_report(result.records, list(result.records[0]), header, fmt="csv", path=args.out)
    slopes_payload = {
        "header": header,
        "slopes": result.slopes,
        "expected": {k: _jsonable(v) for k, v in result.expected.items()},
    }
    text = _json_text(slopes_payload) + "\n"
    try:
        _write(text, None if args.out is None else str(Path(args.out).with_suffix(".slopes.json")))
    except RuntimeError:
        # only a file write raises: leave no report without its slopes
        Path(args.out).unlink()
        raise
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="report path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace per call and leaves the parser unchanged."""
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
    norm.add_argument("--jmin", type=int, default=None, help="lowest dyadic scale (default and minimum: DC-only)")
    norm.add_argument("--jmax", type=int, default=None, help="highest dyadic scale (default: grid limit)")
    norm.set_defaults(func=_cmd_norm)

    verify = subparsers.add_parser("verify", help="randomized inequality suite")
    for flag in _EXPONENT_FLAGS:
        verify.add_argument(flag, type=float, required=True)
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
    interp.add_argument("--check", choices=CHECKS, required=True)
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
    for flag in _EXPONENT_FLAGS:
        sharp.add_argument(flag, type=float, required=True)
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
