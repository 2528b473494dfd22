import os
import pathlib
import subprocess
import sys

import iadt

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, cwd):
    """Run a demo from `cwd` against this checkout's package."""
    env = dict(os.environ)
    src = str(pathlib.Path(iadt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_classical_baselines_demo(tmp_path):
    """Demo 03 runs from a clean directory, reports all five methods and
    writes nothing."""
    result = run_demo("03_classical_baselines.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert rows == ["logistic", "tca", "gfk", "sa", "coral"]
    assert list(tmp_path.iterdir()) == []


def test_attention_roi_ranking_demo(tmp_path):
    """Demo 04 runs from a clean directory, ranks the planted regions from
    one scoring pass and writes nothing."""
    result = run_demo("04_attention_roi_ranking.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "top ten regions by mean attention weight" in result.stdout
    assert "concentration factor" in result.stdout
    assert list(tmp_path.iterdir()) == []


def test_synthetic_domain_shift_demo(tmp_path):
    """Demo 01 runs from a clean directory, tabulates the MMD of each shift,
    round-trips its CSV bit-exactly and writes nothing."""
    result = run_demo("01_synthetic_domain_shift.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "squared MMD between raw source/target features" in result.stdout
    assert "bit-exact features" in result.stdout
    assert list(tmp_path.iterdir()) == []


def test_train_and_evaluate_demo(tmp_path):
    """Demo 02 runs from a clean directory, reports the logistic and adapted
    target metrics and writes nothing."""
    result = run_demo("02_train_and_evaluate.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = [line.split()[0] for line in result.stdout.splitlines()
            if line.startswith(("logistic", "adapted"))]
    assert rows == ["logistic", "adapted"]
    assert "balanced-accuracy gain from adaptation" in result.stdout
    assert list(tmp_path.iterdir()) == []


def test_hyperparameter_sweeps_demo(tmp_path):
    """Demo 05 runs from a clean directory, fills both sweep tables and
    writes nothing."""
    result = run_demo("05_hyperparameter_sweeps.py", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "latent width sweep" in result.stdout
    assert "loss-weight grid (balanced accuracy)" in result.stdout
    assert list(tmp_path.iterdir()) == []
