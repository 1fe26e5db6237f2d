"""The code in README.md runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    code = _python_block("Library example")
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = [float(x) for x in capsys.readouterr().out.split()]
    assert len(printed) == 4
    assert all(x > 0.0 for x in printed)
