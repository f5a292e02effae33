"""Each script under scripts/ runs end to end with its smallest arguments."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv, rows", [
    (["run_synthetic.py", "--restarts", "1"], 1),
    (["run_sweep.py", "--restarts", "1", "--lambda1-grid", "1", "--lambda2-grid", "1"], 1),
    (["run_ablation.py", "--seeds", "1"], 3),
], ids=["run_synthetic", "run_sweep", "run_ablation"])
def test_script_writes_the_table_it_names(argv, rows, tmp_path):
    script, *args = argv
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", "out"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    assert last.startswith("wrote out/"), done.stdout
    with open(tmp_path / last.removeprefix("wrote "), newline="") as fh:
        assert len(list(csv.DictReader(fh))) == rows
