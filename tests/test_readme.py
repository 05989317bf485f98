"""The README's library example runs and prints what it shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_results():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == [
        "[(1000, 0.364), (5000, 0.958), (10000, 1.0)]",
        "DriftVerification(all_discover=True, max_latency=7600, "
        "mean_latency=1803.9365384615385, exhaustive=True, drifts_checked=1552200)",
    ]
