#!/usr/bin/env python3
"""Train the feedforward choice model on simulated rates, then generate from it.

Mirrors the estimated-predictor workflow: simulate choice rates from a
weighting-function oracle, train the network, report held-out fit, and run a
small batch of both anomaly searches against the fitted model.
"""

import argparse
import itertools

import numpy as np

from anomgen.adversarial import run_adversarial_indices
from anomgen.basis import basis_from_config
from anomgen.categorize import categorize
from anomgen.config import build_predictor, parse_config
from anomgen.data import simulate_choices, split_dataset
from anomgen.lotteries import draw_menus
from anomgen.morphing import run_morph_indices
from anomgen.predictor import MlpPredictor, MlpTrainConfig, evaluate, train_mlp
from anomgen.records import record_to_collection
from anomgen.verifier import verify_collection, verify_parametrized


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=5000)
    ap.add_argument("--hidden", default="32,32")
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--runs", type=int, default=50, help="search runs per procedure")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = parse_config({"seed": args.seed})
    oracle = build_predictor(cfg.predictor)
    rng = np.random.default_rng(args.seed)
    ds = simulate_choices(rng, oracle, *draw_menus(rng, args.n, cfg.n_payoffs,
                                                   *cfg.theory_basis["domain"]),
                          kind="rate", count=1000)
    train, test = split_dataset(ds, 0.2, seed=args.seed)

    hidden = tuple(int(w) for w in args.hidden.split(","))
    model = train_mlp(train, hidden=hidden,
                      config=MlpTrainConfig(epochs=args.epochs, seed=args.seed))
    pred = MlpPredictor(model)
    print("held-out:", evaluate(pred, test))

    basis = basis_from_config(cfg.theory_basis)
    par = full = 0
    cats = {}
    for rec in itertools.chain(run_adversarial_indices(pred, cfg, range(args.runs)),
                               run_morph_indices(pred, cfg, range(args.runs))):
        cand = record_to_collection(rec)
        par += verify_parametrized(basis, cand, cfg.kl_threshold).inconsistent
        if not verify_collection(cand, cfg.margin_threshold).consistent:
            full += 1
            tag = categorize(cand).tag
            cats[tag] = cats.get(tag, 0) + 1
    total = 2 * args.runs
    print(f"runs: {total}  parametrized-inconsistent: {par} ({par / total:.1%})  "
          f"fully verified: {full}  categories: {cats}")


if __name__ == "__main__":
    main()
