"""anomgen command line: simulate -> train/fit -> generate -> verify ->
categorize -> cluster -> report.

Every subcommand writes outputs atomically and prints a single machine-
readable JSON summary line to stdout.  Generation and verification cut their
runs into consecutive blocks and fan them over a worker pool; records stream
to disk block by block, in index order.  Verification runs a block as
stacks, one per record shape: one stacked fit and one stacked LP solve per
grid size, each acting on every record on its own.  Records depend only on
(master seed, run index), so outputs are byte-identical for any worker
count or block size; bit-reproducibility matters more than speed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, repeat

import numpy as np

from . import analysis, records
from .adversarial import run_adversarial_indices
from .basis import basis_from_config
from .categorize import CATEGORY_TAGS, categorize
from .config import ConfigError, PipelineConfig, build_predictor, load_config, parse_config
from .cpt import simulate_choices
from .data import load_dataset, save_dataset
from .lotteries import Collection, draw_menus, implied_choices, run_rng
from .morphing import run_morph_indices
from .predictor import (MlpPredictor, MlpTrainConfig, evaluate, fit_cpt_params,
                        train_mlp)
from .verifier import minimal_anomaly, parametrized_verdicts, utility_verdicts


def _summary(**kwargs) -> int:
    print(json.dumps(kwargs, sort_keys=True))
    return 0


def _throughput(start: float, count: int, unit: str) -> dict:
    """Stage wall time since ``start`` and ``count`` items per second, for
    the summary line only: records never carry timings."""
    elapsed = time.perf_counter() - start
    return {"elapsed_s": round(elapsed, 3),
            f"{unit}_per_s": round(count / elapsed, 1) if elapsed > 0 else None}


def _config_from_args(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else parse_config({})
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "workers", None) is not None:
        cfg.workers = args.workers
    elif value := os.environ.get("ANOMGEN_WORKERS"):
        try:
            cfg.workers = int(value)
        except ValueError:
            raise ConfigError(f"ANOMGEN_WORKERS: invalid value {value!r}") from None
    if cfg.workers < 1:
        raise ConfigError(f"workers: invalid value {cfg.workers!r}")
    return cfg


# -- worker chunks (module level for pickling) and their fan-out -------------

# Runs (or records) a chunk takes at a time: the only cut of a batch, and
# the runs a search advances together.  The size moves no byte; it trades
# the loop's per-iteration overhead against memory, since a block's stacks,
# per-step arrays and records live until the block is written.  One worker
# at 50 adversarial iterations, through ``anomgen adversarial`` (seed 5,
# 2-core Xeon VM): 25,000 runs took 84 s and peaked at 41 MB in blocks of
# 256; 6,000 runs took 26 s at 40 MB in blocks of 64, 18 s at 41 MB in
# blocks of 256, 18 s at 47 MB in blocks of 1,024 and 18 s at 79 MB as one
# stack.  A morph step factors, projects and maps a block's runs as one
# stack, but draws their samples one run at a time into work buffers of at
# most ``morphing._DRAW_BLOCK`` draws that every run reuses, so a block holds
# no per-sample array per run: 256 morph runs at 200,000 samples and one
# step peaked at 41.7 MB in one block, and 29 runs at 40.4 MB.
_RUN_BLOCK = 256


def _fan_out(chunk_fn, args: tuple, items, workers: int):
    """The records of ``chunk_fn(*args, block)`` over consecutive blocks of
    ``items`` (fewer than ``_RUN_BLOCK`` when that keeps every worker busy),
    yielded in order as each block is done, in a pool if ``workers > 1``."""
    size = min(_RUN_BLOCK, (len(items) + workers - 1) // workers) or 1
    calls = (chunk_fn, *map(repeat, args),
             (items[i:i + size] for i in range(0, len(items), size)))
    if workers == 1:
        yield from chain.from_iterable(map(*calls))
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from chain.from_iterable(pool.map(*calls))


def _generate_chunk(predictor, cfg: PipelineConfig, procedure: str, indices) -> list:
    """The records of runs ``indices``; the baseline has no config section."""
    generate = {"adversarial": run_adversarial_indices, "morph": run_morph_indices,
                "baseline": analysis.run_baseline_indices}[procedure]
    return generate(predictor, getattr(cfg, procedure, cfg), cfg.seed, indices)


def _run_generation(args, procedure: str) -> int:
    start = time.perf_counter()
    cfg = _config_from_args(args)
    inits = args.inits if args.inits is not None else getattr(cfg, procedure).inits
    if inits < 1:
        raise ConfigError("need at least one initialization (--inits >= 1)")
    predictor = build_predictor(cfg.predictor)
    records.write_jsonl(args.out, _fan_out(_generate_chunk, (predictor, cfg, procedure),
                                           range(inits), cfg.workers), kind="candidates")
    return _summary(command=procedure, runs=inits, seed=cfg.seed, out=args.out,
                    workers=cfg.workers, **_throughput(start, inits, "runs"))


# -- verification / categorization ------------------------------------------

def _verify_chunk(cfg: PipelineConfig, recs) -> list:
    """Verify a block of records, one stack per shape (``records.stack_records``):
    one fit and one stacked LP solve per grid size and shape.  An
    inconsistent record's row of the stack goes to ``minimal_anomaly``."""
    basis = basis_from_config(cfg.theory_basis)
    out = [dict(rec) for rec in recs]
    for stack in records.stack_records(recs):
        pvs = parametrized_verdicts(basis, stack.Z, stack.P, stack.q, cfg.kl_threshold)
        avs = utility_verdicts(stack.Z, stack.P, implied_choices(stack.q), cfg.margin_threshold)
        for i, pv, av, *row in zip(stack.rows, pvs, avs, stack.Z, stack.P, stack.q):
            minimal = None if av.consistent else minimal_anomaly(Collection(*row),
                                                                 cfg.margin_threshold)
            out[i].update(
                min_kl=pv.min_kl, parametrized_inconsistent=pv.inconsistent,
                fit_converged=pv.converged, fit_on_bound=pv.on_norm_bound,
                any_utility_inconsistent=not av.consistent, margin=av.margin,
                witness=None if av.witness_utility is None else av.witness_utility.tolist(),
                anomaly_minimal_indices=list(minimal[0]) if minimal else None)
    return out


def cmd_verify(args) -> int:
    start = time.perf_counter()
    cfg = _config_from_args(args)
    _, recs = records.read_jsonl(args.inp)
    counts = dict.fromkeys(("records", "parametrized_inconsistent", "any_utility_inconsistent",
                            "fit_on_bound", "fit_unconverged"), 0)

    def counted(verified):
        for rec in verified:
            counts["records"] += 1
            counts["parametrized_inconsistent"] += rec["parametrized_inconsistent"]
            counts["any_utility_inconsistent"] += rec["any_utility_inconsistent"]
            counts["fit_on_bound"] += rec["fit_on_bound"]
            counts["fit_unconverged"] += not rec["fit_converged"]
            yield rec

    records.write_jsonl(args.out, counted(_fan_out(_verify_chunk, (cfg,), recs, cfg.workers)),
                        kind="verified")
    return _summary(command="verify", out=args.out, **counts,
                    **_throughput(start, counts["records"], "records"))


def cmd_categorize(args) -> int:
    start = time.perf_counter()
    _, recs = records.read_jsonl(args.inp, expected_kind="verified")
    counts: dict = {}

    def categorized():
        for rec in recs:
            rec = dict(rec)
            if rec.get("any_utility_inconsistent"):
                coll = records.record_to_collection(rec)
                cat = categorize(coll)
                rec["category"] = {"tag": cat.tag, "certificate": cat.certificate}
                counts[cat.tag] = counts.get(cat.tag, 0) + 1
                if len(coll.q) == 2:
                    rec["features"] = [float(v) for v in analysis.anomaly_features(coll)]
            yield rec

    records.write_jsonl(args.out, categorized(), kind="categorized")
    return _summary(command="categorize", records=len(recs),
                    category_counts=counts, out=args.out,
                    **_throughput(start, len(recs), "records"))


def cluster_rows(recs) -> list:
    """The categorized records ``cluster`` groups: non-FOSD anomalies with
    features."""
    return [r for r in recs
            if r.get("any_utility_inconsistent") and r.get("features")
            and (r.get("category") or {}).get("tag") != "fosd"]


def cmd_cluster(args) -> int:
    _, recs = records.read_jsonl(args.inp, expected_kind="categorized")
    rows = cluster_rows(recs)
    if len(rows) < args.k:
        raise ValueError(f"{len(rows)} non-FOSD anomalies with features, "
                         f"fewer than the {args.k} clusters asked for")
    X = np.array([r["features"] for r in rows])
    Z = analysis.standardize(X)
    km = analysis.kmeans(Z, args.k, seed=args.seed or 0)
    pc = analysis.pca(X)
    out_rows = [(r["id"], int(km.assignments[i]),
                 repr(float(pc.scores[i, 0])), repr(float(pc.scores[i, 1])))
                for i, r in enumerate(rows)]
    records.write_csv(args.out, ("id", "cluster", "pc1", "pc2"), out_rows)
    loadings = [[(analysis.FEATURE_NAMES[j], round(v, 6)) for j, v in comp]
                for comp in pc.top_loadings[:2]]
    return _summary(command="cluster", anomalies=len(rows), k=args.k,
                    inertia=km.inertia,
                    explained_variance=[round(float(v), 6)
                                        for v in pc.explained_variance[:2]],
                    top_loadings=loadings, out=args.out)


def cmd_report(args) -> int:
    _, recs = records.read_jsonl(args.inp)
    predictors = sorted({str(r.get("predictor")) for r in recs})
    counts = {(t, p): 0 for t in CATEGORY_TAGS for p in predictors}
    totals = dict.fromkeys(predictors, 0)
    for r in recs:
        if not r.get("any_utility_inconsistent"):
            continue
        p = str(r.get("predictor"))
        category = r.get("category") or {}
        tag = category.get("tag", "other") if isinstance(category, dict) else None
        if tag not in CATEGORY_TAGS:
            raise ValueError(f"record {r.get('id')!r}: category {r.get('category')!r} "
                             f"has no tag of {CATEGORY_TAGS}")
        counts[(tag, p)] += 1
        totals[p] += 1
    rows = [[tag] + [counts[(tag, p)] for p in predictors] for tag in CATEGORY_TAGS]
    rows.append(["total"] + [totals[p] for p in predictors])
    records.write_csv(args.out, ["category"] + predictors, rows)
    return _summary(command="report", records=len(recs),
                    anomalies=sum(totals.values()), out=args.out)


# -- data / model commands ---------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _config_from_args(args)
    params, _ = cfg.predictor.cpt_params()
    if args.n < 1:
        raise ValueError("empty dataset")
    rng = run_rng(cfg.seed, 0)
    Z, P = draw_menus(rng, args.n, cfg.n_payoffs, *cfg.theory_basis["domain"])
    ds = simulate_choices(rng, Z, P, params, kind=args.kind, count=args.count,
                          scale=cfg.predictor.scale)
    save_dataset(ds, args.out)
    return _summary(command="simulate", rows=len(ds), kind=args.kind,
                    delta=params.delta, gamma=params.gamma, out=args.out)


def cmd_train_mlp(args) -> int:
    ds = load_dataset(args.inp)
    hidden = tuple(int(w) for w in args.hidden.split(",") if w)
    model = train_mlp(ds, hidden=hidden,
                      config=MlpTrainConfig(batch_size=args.batch_size,
                                            epochs=args.epochs,
                                            step_size=args.step_size,
                                            seed=args.seed or 0))
    model.save(args.out)
    metrics = evaluate(MlpPredictor(model), ds)
    return _summary(command="train-mlp", rows=len(ds), hidden=list(hidden),
                    train_mse=round(metrics["mse"], 6),
                    train_cross_entropy=round(metrics["cross_entropy"], 6),
                    out=args.out)


def cmd_fit_cpt(args) -> int:
    ds = load_dataset(args.inp)
    fit = fit_cpt_params(ds)
    if args.out:
        records.atomic_write_lines(args.out, [json.dumps(
            {"delta": fit.params.delta, "gamma": fit.params.gamma}, sort_keys=True)])
    return _summary(command="fit-cpt", rows=len(ds), delta=fit.params.delta,
                    gamma=fit.params.gamma,
                    cross_entropy=round(fit.cross_entropy, 6),
                    converged=fit.converged, iterations=fit.iterations, out=args.out)


def cmd_epsilon(args) -> int:
    with open(args.freqs) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    expected = ["pattern_00", "pattern_01", "pattern_10", "pattern_11"]
    if len(lines) < 2 or lines[0].split(",")[:4] != expected:
        raise ConfigError(f"{args.freqs}: expected columns {expected} and a row of counts")
    counts = tuple(float(v) for v in lines[1].split(",")[:4])
    freqs = analysis.PatternFrequencies(counts)
    with open(args.menus) as fh:
        data = json.load(fh)
    try:
        (Z,), (P,), faults = records.read_menus(records.parse_menus(data)[None])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.menus}: expected a list of menus ({exc!r})") from None
    for why, bad in faults:
        if bad[0]:
            raise ConfigError(f"{args.menus}: {why}")
    fit = analysis.estimate_epsilon(freqs, menus=(Z, P))
    return _summary(command="epsilon", epsilon=fit.epsilon,
                    weights={"".join(map(str, k)): round(v, 6)
                             for k, v in fit.weights.items()},
                    fit_distance=fit.fit_distance)


# -- argument parsing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process at its first use."""
    parser = argparse.ArgumentParser(prog="anomgen",
                                     description="Anomaly generation for "
                                                 "expected utility theory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, inp=False, out=True, config=True):
        if config:
            p.add_argument("--config", default=None, help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        if inp:
            p.add_argument("--in", dest="inp", required=True)
        if out:
            p.add_argument("--out", required=True)

    for name in ("adversarial", "morph", "baseline"):
        p = sub.add_parser(name, help=f"run the {name} generator")
        common(p)
        # The searches default to their config section's inits; the baseline
        # has no section.
        p.add_argument("--inits", type=int, default=None,
                       required=name == "baseline")

    p = sub.add_parser("verify", help="verify candidate collections")
    common(p, inp=True)

    p = sub.add_parser("categorize", help="categorize verified anomalies")
    common(p, inp=True, config=False)

    p = sub.add_parser("cluster", help="k-means + PCA over anomaly features")
    common(p, inp=True, config=False)
    p.add_argument("--k", type=int, default=4)

    p = sub.add_parser("report", help="category-count CSV")
    common(p, inp=True, config=False)

    p = sub.add_parser("simulate", help="simulate a choice dataset")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("binary", "rate"), default="binary")
    p.add_argument("--count", type=int, default=100)

    p = sub.add_parser("train-mlp", help="train the feedforward choice model")
    common(p, inp=True, config=False)
    p.add_argument("--hidden", default="32,32")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--step-size", type=float, default=0.5)

    p = sub.add_parser("fit-cpt", help="fit probability-weighting parameters")
    common(p, inp=True, config=False, out=False)
    p.add_argument("--out", default=None)

    p = sub.add_parser("epsilon", help="idiosyncratic-error estimate")
    p.add_argument("--freqs", required=True)
    p.add_argument("--menus", required=True)

    return parser


_DISPATCH = {
    "adversarial": lambda a: _run_generation(a, "adversarial"),
    "morph": lambda a: _run_generation(a, "morph"),
    "baseline": lambda a: _run_generation(a, "baseline"),
    "verify": cmd_verify,
    "categorize": cmd_categorize,
    "cluster": cmd_cluster,
    "report": cmd_report,
    "simulate": cmd_simulate,
    "train-mlp": cmd_train_mlp,
    "fit-cpt": cmd_fit_cpt,
    "epsilon": cmd_epsilon,
}


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}),
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
