import os
import pathlib
import subprocess
import sys

import iadt

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def test_classical_baselines_demo(tmp_path):
    """Demo 03 runs from a clean directory, reports all five methods and
    writes nothing."""
    env = dict(os.environ)
    src = str(pathlib.Path(iadt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(DEMOS / "03_classical_baselines.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert rows == ["logistic", "tca", "gfk", "sa", "coral"]
    assert list(tmp_path.iterdir()) == []
