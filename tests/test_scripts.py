"""Smoke runs of the scripts in scripts/, each in a new interpreter, at the
smallest sizes that exercise every stage."""

import contextlib
import importlib.util
import io
import shutil
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


def _byte_identity():
    spec = importlib.util.spec_from_file_location("byte_identity", SCRIPTS / "byte_identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMOKE_MATRIX = ["--only", "synth-*", "--only", "extract-idm", "--only", "calibrate-newell-*"]


@pytest.fixture(scope="module")
def identity_run(tmp_path_factory):
    """byte_identity.py's quick matrix, this tree against a copy of its sources."""
    root = tmp_path_factory.mktemp("identity")
    shutil.copytree(SCRIPTS.parent / "src", root / "copy" / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _byte_identity().main(["--parent", str(root / "copy"), "--work",
                                      str(root / "work"), *SMOKE_MATRIX])
    return code, out.getvalue().splitlines(), root / "work"


def test_byte_identity_of_a_tree_and_its_copy(identity_run):
    code, lines, work = identity_run
    assert code == 0
    assert lines == ["13 of 13 files identical from 6 commands; 0 allowed to differ"]
    assert (work / "change" / "cal-newell-s3" / "report.json").is_file()


def test_byte_identity_names_exactly_the_changed_file(identity_run):
    _, _, work = identity_run
    bi = _byte_identity()
    changed = work / "change" / "cal-newell-s21" / "report.json"
    data = bytearray(changed.read_bytes())
    data[len(data) // 2] ^= 1
    changed.write_bytes(bytes(data))
    assert bi.compare(work / "parent", work / "change") == (
        ["differs: cal-newell-s21/report.json"], [], 13)
    assert bi.compare(work / "parent", work / "change", ["cal-*/report.json"]) == (
        [], ["differs: cal-newell-s21/report.json"], 13)
