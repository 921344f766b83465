"""Self-checks of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

import shutil
import subprocess
import sys

import run


def test_smoke_emits_every_declared_metric():
    assert run.smoke(seed=0) == 0


def test_calls_repeat_for_a_seed():
    first, _ = run.run("kary-counter", 3, 0.2, trace=True, tiny=True)
    second, _ = run.run("kary-counter", 3, 0.2, trace=True, tiny=True)
    assert first["calls"]["successor.pcr3_alt"] > 0
    assert first["calls"] == second["calls"]
    assert first["params"] == second["params"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(f"{run.ROOT}/BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binary-counter",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
