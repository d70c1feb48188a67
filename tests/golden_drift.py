"""Golden drift report: how far the CLI's reports have moved from the recorded
ones under ``tests/golden/``, cell by cell.

Every command of ``tests/test_cli_golden.py`` (its ``REPORTS`` and ``NORMS``)
is run again in this process.  The new report and the recorded one are both
parsed into cells: a ``# config:`` line and any JSON document by their JSON
values, CSV lines by row and column.  The two must have the same exit code
(0), the same cells in the same order and the same non-numeric cells; a
numeric cell may move, and each one that does is printed with its relative
drift ``|new - old| / |old|`` and its absolute drift ``|new - old|``, which
reads sensibly where the recorded value is 0; the largest relative drift of
every file follows.

The script exits 1 on a structural change or on any drift above
``MAX_DRIFT``, and 0 otherwise.  Run it from the repository root::

    PYTHONPATH=src python3 tests/golden_drift.py

A change that moves last digits re-records the goldens with
``PYTHONPATH=src python3 tests/test_cli_golden.py`` and lists this report.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

from test_cli_golden import GOLDEN, NORMS, REPORTS, _write_cosine_field

from lplorentz.cli import main

MAX_DRIFT = 1e-13


def _run(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _json_cells(value, path: str):
    """``(path, leaf)`` of every leaf of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_cells(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_cells(item, f"{path}[{i}]")
    else:
        yield path, value


def cells(text: str) -> list[tuple[str, object]]:
    """The report ``text`` as ``(location, cell)`` pairs: a ``# name: {json}``
    line and a JSON document (from a line that opens with ``{`` to its end)
    by their JSON leaves, every other line as CSV, by data row and the
    column names of the first CSV line after the last JSON or comment line."""
    out = []
    lines = text.splitlines(keepends=True)
    columns, row, i = None, 0, 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("#"):
            name, _, value = line[1:].partition(":")
            out += _json_cells(json.loads(value), name.strip())
            columns, i = None, i + 1
        elif line.startswith("{"):
            rest = "".join(lines[i:])
            value, end = json.JSONDecoder().raw_decode(rest)
            out += _json_cells(value, "json")
            columns, i = None, i + rest[:end].count("\n") + 1
        else:
            fields = next(csv.reader([line]))
            if columns is None:
                columns, row = fields, 0
                out += [(f"columns[{k}]", name) for k, name in enumerate(fields)]
            else:
                out += [(f"row {row}, {name}", cell) for name, cell in zip(columns, fields)]
                out += [(f"row {row}, extra[{k}]", cell) for k, cell in enumerate(fields[len(columns):])]
                row += 1
            i += 1
    return out


def _number(cell) -> float | None:
    """A finite numeric cell as a float; None for any other cell."""
    if isinstance(cell, bool):
        return None
    try:
        x = float(cell)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def drift(old: float, new: float) -> float:
    """``|new - old| / |old|``; 0 when equal, inf when only ``old`` is 0."""
    if new == old:
        return 0.0
    return math.inf if old == 0.0 else abs(new - old) / abs(old)


def compare(name: str, recorded: str, code: int, text: str) -> tuple[list[str], float, int]:
    """Structural problems, largest drift and moved-cell count of the new
    report ``text`` (exit ``code``) against the ``recorded`` one; prints each
    moved numeric cell."""
    if code != 0:
        return [f"exit code {code}, recorded 0"], 0.0, 0
    old, new = cells(recorded), cells(text)
    if [loc for loc, _ in old] != [loc for loc, _ in new]:
        return ["cells differ in number or layout"], 0.0, 0
    problems, worst, moved = [], 0.0, 0
    for (loc, a), (_, b) in zip(old, new):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                problems.append(f"{loc}: {a!r} -> {b!r}")
            continue
        d = drift(x, y)
        if d:
            moved += 1
            worst = max(worst, d)
            print(f"  {name}, {loc}: {a} -> {b}  drift {d:.2e}, |new - old| {abs(y - x):.2e}")
    if text != recorded and not (problems or moved):
        problems.append("bytes differ, cells equal")
    return problems, worst, moved


def reports() -> dict[str, tuple[int, str]]:
    """Exit code and stdout of every golden command, by golden file stem."""
    runs = {name: _run(argv) for name, argv in REPORTS.items()}
    with tempfile.TemporaryDirectory() as tmp:
        field = str(_write_cosine_field(Path(tmp)))
        for name, flags in NORMS.items():
            code, text = _run(["norm", "--input", field, *flags])
            runs[name] = (code, json.dumps({"norm": json.loads(text)["norm"]}) + "\n" if code == 0 else text)
    return runs


def main_report() -> int:
    failed = False
    summary = []
    for name, (code, text) in sorted(reports().items()):
        problems, worst, moved = compare(name, (GOLDEN / f"{name}.txt").read_text(), code, text)
        for problem in problems:
            print(f"  {name}: STRUCTURE {problem}")
        failed |= bool(problems) or worst > MAX_DRIFT
        state = "structural change" if problems else f"{moved} cells moved, largest drift {worst:.2e}"
        summary.append(f"{name}: {state}")
    print("\n".join(summary))
    print(f"{'FAIL' if failed else 'ok'}: no structural change and drift <= {MAX_DRIFT:g} required")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_report())
