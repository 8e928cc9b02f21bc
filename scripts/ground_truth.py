#!/usr/bin/env python3
"""Known-truth check of the pipeline, run through the anomgen CLI.

Recovery table: for each weighting preset and each --sizes entry, simulates
binary choices from that oracle and fits (delta, gamma) to them with
``fit-cpt``; prints one JSON line with the true pair, the estimate and the
absolute errors.

Learned predictor: simulates --n choice-rate rows from the default oracle at
--seed, and as many held-out rows at --seed + 1, trains the MLP on the first
set, prints its held-out fit, and runs the desk-scale pipeline on it.
"""

import argparse
import json
import os

from anomgen.config import build_predictor, load_config
from anomgen.cpt import PRESETS
from anomgen.data import load_dataset
from anomgen.predictor import evaluate

import run_desk_scale as desk

# The network the learned predictor trains, and its epochs.
HIDDEN = "32,32"
EPOCHS = 300


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="runs/ground_truth")
    ap.add_argument("--sizes", default="1000,5000,25000", help="rows of each recovery fit")
    ap.add_argument("--n", type=int, default=5000, help="training rows of the MLP")
    ap.add_argument("--runs", type=int, default=300, help="desk runs per procedure on the MLP")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)

    def path(name):
        return os.path.join(args.outdir, name)

    seed = ["--seed", str(args.seed)]
    for preset, (delta, gamma) in PRESETS.items():
        cfg = write_json(path(f"{preset}.json"), {"predictor": {"preset": preset}})
        for n in map(int, args.sizes.split(",")):
            desk.sh(["simulate", "--config", cfg, "--n", str(n), *seed,
                     "--out", path("recovery.csv")])
            desk.sh(["fit-cpt", "--config", cfg, "--in", path("recovery.csv"),
                     "--out", path("fit.json")])
            with open(path("fit.json"), encoding="utf-8") as fh:
                fit = json.load(fh)
            print(json.dumps({"preset": preset, "n": n, "true": [delta, gamma],
                              "estimate": [fit["delta"], fit["gamma"]],
                              "abs_error": [abs(fit["delta"] - delta),
                                            abs(fit["gamma"] - gamma)]}))

    for name, at in (("train.csv", args.seed), ("held_out.csv", args.seed + 1)):
        desk.sh(["simulate", "--kind", "rate", "--count", "1000", "--n", str(args.n),
                 "--seed", str(at), "--out", path(name)])
    desk.sh(["train-mlp", "--in", path("train.csv"), "--hidden", HIDDEN,
             "--epochs", str(EPOCHS), *seed, "--out", path("model.json")])
    mlp = write_json(path("mlp.json"),
                     {"predictor": {"kind": "mlp", "model_path": path("model.json")}})
    held_out = evaluate(build_predictor(load_config(mlp).predictor),
                        load_dataset(path("held_out.csv")))
    print(json.dumps({"held_out": held_out}))
    desk.main(["--config", mlp, "--inits", str(args.runs),
               "--baseline-pairs", str(10 * args.runs), *seed, "--outdir", path("desk")])


if __name__ == "__main__":
    main()
