#!/usr/bin/env python3
"""Training-data-size experiment on a noisy synthetic corpus.

Generates the corpus, extracts samples, and sweeps all four predictor
variants over a grid of training-set sizes and seeds.  Outputs land in
<workdir>/sweep: per-cell reports, aggregate tables, and the long-format
CSVs for plotting (mse vs data size, per-epoch convergence).
"""

import argparse
import sys

from phyres.cli import main as cli


def run(argv):
    print("+ phyres " + " ".join(argv))
    code = cli(argv)
    if code not in (0, 4):
        sys.exit(code)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--platoons", type=int, default=60)
    ap.add_argument("--noise-sigma", type=float, default=0.1)
    ap.add_argument("--model", choices=["newell", "idm", "fvd"],
                    default="idm")
    ap.add_argument("--data-sizes", default="300,500,1000,2000")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    args = ap.parse_args()

    w = args.workdir.rstrip("/")
    corpus = f"{w}/corpus.csv"
    samples = f"{w}/samples.jsonl"

    run(["synth", "--out", corpus, "--seed", "42",
         "--platoons", str(args.platoons),
         "--noise-sigma", str(args.noise_sigma)])
    run(["extract", "--input", corpus, "--out", samples])
    code = run(["sweep", "--samples", samples, "--out", f"{w}/sweep",
                "--seed", "0", "--seeds", args.seeds,
                "--data-sizes", args.data_sizes, "--model", args.model])
    print(f"sweep finished with exit code {code}; "
          f"plot data in {w}/sweep/summary_long.csv")
    sys.exit(code)


if __name__ == "__main__":
    main()
