"""Smoke runs of the experiment scripts in scripts/, each in a new
interpreter, at the smallest sizes that exercise every stage."""

from pathlib import Path

import pytest

from conftest import run_fresh

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# runs the script named by the first argument as __main__, with the rest as its argv
RUN_SCRIPT = ("import runpy, sys; sys.argv = sys.argv[1:]; "
              "runpy.run_path(sys.argv[0], run_name='__main__')")


@pytest.mark.parametrize("script, args, output", [
    ("run_pipeline.py", [], "metrics.json"),
    ("run_data_size_sweep.py", ["--platoons", "8", "--data-sizes", "40", "--seeds", "0"],
     "sweep/summary_long.csv"),
], ids=["pipeline", "data-size-sweep"])
def test_script_runs(tmp_path, script, args, output):
    run_fresh(RUN_SCRIPT, str(SCRIPTS / script), "--workdir", str(tmp_path), *args)
    assert (tmp_path / output).exists()
