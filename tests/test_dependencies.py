"""numpy is the package's one runtime dependency.

The guard runs the package in a fresh interpreter whose import system
refuses ``scipy`` and every ``scipy.*``: it imports every module, plans
``scenes/blocking_box.json`` and runs each CLI command on the shipped
scenes.  scipy stays a test dependency, where qhull is the independent
reference for the planar hull.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minscale"

SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not a runtime dependency")
        return None

sys.meta_path.insert(0, NoScipy())

import minscale
from minscale import cli

for info in pkgutil.iter_modules(minscale.__path__):
    importlib.import_module(f"minscale.{info.name}")

blocking, square, out_dir = sys.argv[1:4]
_, report = minscale.plan(cli._scene_scenario(cli.load_scene(blocking)), [0.0, 0.0], [9.0, 0.0])
commands = [
    ["eval", square, "--check-oracle"],
    ["grad", square, "--fd-check"],
    ["bench", "--m-list", "50", "--trials", "2"],
    ["plan", blocking, "--start", "0,0", "--goal", "9,0",
     "--out", f"{out_dir}/traj.json", "--svg", f"{out_dir}/plan.svg"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"success": report.success, "codes": codes,
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_the_package_runs_on_numpy_alone(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "scenes" / "blocking_box.json"),
         str(ROOT / "scenes" / "square_point.json"), str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"success": True, "codes": [0, 0, 0, 0], "scipy": []}
    assert (tmp_path / "traj.json").is_file() and (tmp_path / "plan.svg").is_file()


def _imported_top_level_modules():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"minscale"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
                for req in project["dependencies"]}
    assert _imported_top_level_modules() == declared
