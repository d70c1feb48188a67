"""The README's *Library example* runs against the current API."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    besov, lorentz, worst = out.getvalue().splitlines()
    assert float(besov) == pytest.approx(2.0 ** (4 * 0.5) * math.sqrt(math.pi))
    assert float(lorentz) > 0.0
    ratio, descriptor = worst.split(" ", 1)
    assert 0.0 < float(ratio) < math.inf
    assert descriptor.startswith("multi-block-random[instance=")
