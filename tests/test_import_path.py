"""The runtime path loads no scipy.spatial: the package hulls planar sets itself.

A fresh interpreter imports minscale, plans ``scenes/blocking_box.json`` and
runs the CLI's ``eval`` on ``scenes/square_point.json``; only then does the
oracle's ``point_strictly_inside_hull`` import qhull, on its first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
import minscale
from minscale import cli, oracle

def spatial():
    return sorted(m for m in sys.modules if m == "scipy.spatial" or m.startswith("scipy.spatial."))

scene = cli._scene_scenario(cli.load_scene(sys.argv[1]))
_, report = minscale.plan(scene, [0.0, 0.0], [9.0, 0.0])
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["eval", sys.argv[2]])
loaded = spatial()
square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
inside = oracle.point_strictly_inside_hull([0.5, 0.5], square)
on_edge = oracle.point_strictly_inside_hull([1.0, 0.5], square)
print(json.dumps({"success": report.success, "code": code, "rows": out.getvalue().count("\\n"),
                  "loaded": loaded, "inside": inside, "on_edge": on_edge,
                  "after": "scipy.spatial" in spatial()}))
"""


def test_import_plan_and_eval_load_no_scipy_spatial():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "scenes" / "blocking_box.json"),
         str(ROOT / "scenes" / "square_point.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["success"] and result["code"] == 0 and result["rows"] == 2
    assert result["loaded"] == []
    # the oracle still answers, through its own import of qhull
    assert result["inside"] and not result["on_edge"] and result["after"]
