"""The README's Python examples run as written, and its CLI examples print what it shows."""

import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from minscale import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TEXT = README.read_text(encoding="utf-8")


def test_readme_python_blocks_run_in_order_and_plan_succeeds():
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].beta == 3.0
    assert namespace["report"].success


def _examples():
    """``(subcommand, argv, shown output lines)`` of each eval, grad and plan example."""
    found = {}
    for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S):
        match = re.match(r"\$ minscale ((?:[^\n]*\\\n)*[^\n]*)\n(.*)", block, re.S)
        if match and match.group(1).split()[0] in ("eval", "grad", "plan"):
            argv = shlex.split(match.group(1).replace("\\\n", " "))
            found[argv[0]] = (argv, match.group(2).splitlines())
    return found


EXAMPLES = _examples()


def _shown(shown, actual):
    """Whether the README's text of a value is the printed one, or a prefix cut by ``...``."""
    if shown.endswith("..."):
        return actual.startswith(shown[:-3])
    return actual == shown


@pytest.mark.parametrize("command", ["eval", "grad", "plan"])
def test_readme_cli_examples_print_the_values_shown(command, tmp_path, monkeypatch):
    argv, shown = EXAMPLES[command]
    # scenes come from the checkout; written files land in tmp_path
    argv = [str(ROOT / arg) if arg.startswith("scenes/") else arg for arg in argv]
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    if command == "plan":
        report = json.loads(out.getvalue())
        checked = 0
        for line in shown:
            field = re.match(r'\s*"(\w+)": (.*?),?$', line)
            if field:
                key, value = field.groups()
                assert _shown(value, json.dumps(report[key])), (key, value, report[key])
                checked += 1
        assert checked == 9
        return
    header, *rows = list(csv.reader(io.StringIO(out.getvalue())))
    shown_header, *shown_rows = list(csv.reader(shown))
    assert shown_header == header
    assert len(shown_rows) == len(rows)
    for shown_row, row in zip(shown_rows, rows):
        for name, value, actual in zip(header, shown_row, row):
            if value == "...":
                break  # the rest of the row is elided
            assert name == "time_ns" or value == actual, (name, value, actual)
