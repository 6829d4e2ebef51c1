"""The Python examples in README.md run as written, and its table of numerical settings matches the code."""

import contextlib
import importlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {})


def test_numerical_settings_table_matches_the_constants():
    """Each numeric value in the "numerical settings" table equals every module constant its row names."""
    table = README.read_text().split("| setting | value | where |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:4] for line in table.splitlines()]
    checked = 0
    for _, value, where in rows:
        value = value.strip().strip("`")
        if not re.fullmatch(r"[0-9e.*+-]+", value):
            continue  # a schedule, not one number
        names = re.findall(r"`(\w+)\.([A-Z_]+)`", where)
        assert names, where
        for module, name in names:
            assert getattr(importlib.import_module(f"qmaxlik.{module}"), name) == eval(value), (module, name)
            checked += 1
    assert checked == 9
