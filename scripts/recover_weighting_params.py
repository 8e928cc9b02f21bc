#!/usr/bin/env python3
"""Probability-weighting recovery table.

Simulates binary choice data at each calibrated (delta, gamma) preset over a
range of sample sizes and reports the maximum-likelihood estimates.
"""

import argparse

import numpy as np

from anomgen.cpt import PRESETS, CptParams, CptPredictor
from anomgen.data import simulate_choices
from anomgen.lotteries import draw_menus
from anomgen.predictor import fit_cpt_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="1000,5000,25000")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'preset':<10} {'n':>7} {'delta':>8} {'gamma':>8} "
          f"{'d-hat':>8} {'g-hat':>8} {'|d err|':>8} {'|g err|':>8}")
    for name, (delta, gamma) in PRESETS.items():
        oracle = CptPredictor(CptParams(delta, gamma))
        for n in sizes:
            rng = np.random.default_rng((args.seed, n, sum(map(ord, name))))
            ds = simulate_choices(rng, oracle, *draw_menus(rng, n, 2, 0, 10), kind="binary")
            fit = fit_cpt_params(ds)
            print(f"{name:<10} {n:>7} {delta:>8.3f} {gamma:>8.3f} "
                  f"{fit.params.delta:>8.3f} {fit.params.gamma:>8.3f} "
                  f"{abs(fit.params.delta - delta):>8.3f} "
                  f"{abs(fit.params.gamma - gamma):>8.3f}")


if __name__ == "__main__":
    main()
