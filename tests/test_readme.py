"""The README's library quick start runs as written and its routes agree."""

import os
import re

from cepdist import RunConfig

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_quick_start_routes_agree(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    series, closed, data = (float(v) for v in lines[0].split())
    tol = RunConfig().tol_model
    assert abs(series - closed) <= tol * closed
    assert abs(data - closed) <= tol * closed
    assert lines[1] == "MinimumPhaseStable"
