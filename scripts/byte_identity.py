#!/usr/bin/env python3
"""Run one fixed phyres command matrix on two source trees and compare every file.

    python scripts/byte_identity.py --parent REV|DIR [--allow GLOB]... [--only GLOB]...

``--parent`` is a git revision of this checkout, unpacked with ``git
archive``, or a directory that holds a tree; the change is the checkout this
script belongs to, as its files stand.  Each side runs the same commands, in
order, in its own working folder, through ``phyres.cli.main`` in one fresh
interpreter whose ``PYTHONPATH`` is that tree's ``src``:

* synth with both generators, and extract of both corpora;
* calibrate newell, idm and fvd at seeds 3, 11 and 21;
* train, predict (``--subset all``) and evaluate for nn, pinn and perl with
  lstm and with gru (pinn and perl on the seed-3 newell calibration);
* sweep at data size 300 for each physics model.

Every file the commands write is compared byte for byte; a ``manifest.json``
is compared without its ``wall_clock_s`` and with each side's working folder
written the same.  One line is printed per file that differs or exists on
one side only, then a summary.  ``--allow GLOB`` (repeatable; matched against
the path in the working folder) names files that are meant to change: they
are listed as allowed and do not fail the run.  ``--only GLOB`` (repeatable)
runs only the commands whose names match, for a quick check.

Exit status: 0 when every file not allowed is identical, 1 when one differs,
2 when a command exits non-zero on either side.
"""

from __future__ import annotations

import argparse
import fnmatch
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
CORPUS = ["--seed", "5", "--platoons", "10", "--noise-sigma", "0.05"]
EPOCHS = ["--max-epochs", "6"]
NEWELL_PARAMS = "cal-newell-s3/report.json"


def matrix() -> list[tuple[str, list[str]]]:
    """The commands, as (name, argv), in the order they run."""
    steps = [
        ("synth-idm", ["synth", "--out", "corpus-idm/corpus.csv", *CORPUS]),
        ("synth-newell_shift", ["synth", "--out", "corpus-newell_shift/corpus.csv", *CORPUS,
                                "--generator", "newell_shift"]),
        ("extract-idm", ["extract", "--input", "corpus-idm/corpus.csv",
                         "--out", "samples-idm/samples.jsonl"]),
        ("extract-newell_shift", ["extract", "--input", "corpus-newell_shift/corpus.csv",
                                  "--out", "samples-newell_shift/samples.jsonl"]),
    ]
    samples = "samples-idm/samples.jsonl"
    for model in ("newell", "idm", "fvd"):
        for seed in (3, 11, 21):
            steps.append((f"calibrate-{model}-s{seed}", [
                "calibrate", "--samples", samples, "--out", f"cal-{model}-s{seed}/report.json",
                "--model", model, "--seed", str(seed)]))
    for variant in ("nn", "pinn", "perl"):
        params = [] if variant == "nn" else ["--params-file", NEWELL_PARAMS]
        for cell in ("lstm", "gru"):
            run = f"{variant}-{cell}"
            steps += [
                (f"train-{run}", ["train", "--samples", samples, "--out", f"train-{run}",
                                  "--variant", variant, "--cell", cell, "--seed", "1",
                                  *EPOCHS, *params]),
                (f"predict-{run}", ["predict", "--samples", samples, "--variant", variant,
                                    "--weights", f"train-{run}/weights.json", *params,
                                    "--subset", "all", "--out", f"predict-{run}/preds.jsonl"]),
                (f"evaluate-{run}", ["evaluate", "--samples", samples,
                                     "--records", f"predict-{run}/preds.jsonl",
                                     "--out", f"evaluate-{run}/metrics.json"]),
            ]
    for model in ("newell", "idm", "fvd"):
        steps.append((f"sweep-{model}", ["sweep", "--samples", samples, "--out", f"sweep-{model}",
                                         "--seed", "0", "--model", model, "--data-sizes", "300",
                                         *EPOCHS]))
    return steps


# runs the argv lists read from stdin through phyres.cli.main; prints each exit code
RUNNER = """
import contextlib, json, sys
from phyres.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(sys.stderr):
        code = main(argv)
    print(json.dumps(code), flush=True)
"""


def unpack(revision: str, into: Path) -> Path:
    """The tree of ``revision`` of this checkout, unpacked under ``into``."""
    data = subprocess.run(["git", "-C", str(CHECKOUT), "archive", "--format=tar", revision],
                          check=True, capture_output=True).stdout
    tree = into / "parent-tree"
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run_side(tree: Path, work: Path, steps) -> list[int]:
    """Each step's exit code, run by ``tree``'s phyres in the folder ``work``."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(work.parent / f"{work.name}.log", "w") as log:
        out = subprocess.run([sys.executable, "-c", RUNNER], cwd=work, env=env, text=True,
                             input=json.dumps([argv for _, argv in steps]),
                             stdout=subprocess.PIPE, stderr=log)
    codes = [json.loads(line) for line in out.stdout.splitlines()]
    return codes + [out.returncode or -1] * (len(steps) - len(codes))  # the runner died


def _content(path: Path, work: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    manifest.pop("wall_clock_s", None)
    return json.dumps(manifest, sort_keys=True).replace(str(work), "<work>").encode()


def compare(parent: Path, change: Path, allow=()) -> tuple[list[str], list[str], int]:
    """(lines for differing files that no ``allow`` glob names, lines for those
    that one does, the number of files compared) of two working folders."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    a, b = files(parent), files(change)
    failing, allowed = [], []
    for rel in sorted(a | b):
        if rel not in b:
            line = f"only in parent: {rel}"
        elif rel not in a:
            line = f"only in change: {rel}"
        elif _content(parent / rel, parent) != _content(change / rel, change):
            line = f"differs: {rel}"
        else:
            continue
        (allowed if any(fnmatch.fnmatch(rel, g) for g in allow) else failing).append(line)
    return failing, allowed, len(a | b)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="a git revision or a tree's directory")
    ap.add_argument("--allow", action="append", default=[], metavar="GLOB",
                    help="a file path (glob) that is meant to change")
    ap.add_argument("--only", action="append", default=[], metavar="GLOB",
                    help="run only the commands whose names match")
    ap.add_argument("--work", default=None,
                    help="keep each side's outputs in this new folder (default: a "
                         "temporary one, removed at the end)")
    args = ap.parse_args(argv)

    steps = [s for s in matrix() if not args.only or any(fnmatch.fnmatch(s[0], g)
                                                         for g in args.only)]
    root = Path(args.work or tempfile.mkdtemp(prefix="byte-identity-")).resolve()
    root.mkdir(parents=True, exist_ok=args.work is None)
    try:
        parent = Path(args.parent)
        parent = parent.resolve() if parent.is_dir() else unpack(args.parent, root)
        codes = {side: run_side(tree, root / side, steps)
                 for side, tree in (("parent", parent), ("change", CHECKOUT))}
        failed = [f"command {name} exits {p} in parent, {c} in change (logs: {root}/*.log)"
                  for (name, _), p, c in zip(steps, codes["parent"], codes["change"]) if p or c]
        failing, allowed, total = compare(root / "parent", root / "change", args.allow)
        for line in failed + failing + [f"{line} (allowed)" for line in allowed]:
            print(line)
        print(f"{total - len(failing) - len(allowed)} of {total} files identical "
              f"from {len(steps)} commands; {len(allowed)} allowed to differ")
        return 2 if failed else 1 if failing else 0
    finally:
        if args.work is None:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
