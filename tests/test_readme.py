"""The README's code examples run as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first ```python block under the given '## ' heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_block("Library example"), str(README), "exec"), {})
    residual, report = out.getvalue().split("\n", 1)
    assert float(residual) < 1e-6  # A psi = alpha psi on the grid
    assert report.startswith("model: generalized_morse(s=1.0, x_e=0.5)\nalpha: 0.1+0.0i\n")
