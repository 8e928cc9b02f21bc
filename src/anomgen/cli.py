"""anomgen command line: simulate -> train/fit -> generate -> verify ->
categorize -> cluster -> report.

Every subcommand writes outputs atomically and prints a single machine-
readable JSON summary line to stdout.  Generation and verification cut their
runs into consecutive blocks and fan them over a worker pool; records stream
to disk block by block, in index order.  ``verify``, ``categorize``,
``cluster`` and ``report`` each read their input one record at a time;
``categorize`` writes a record it leaves as the line it read.  Verification
runs a block as stacks, one per record shape: one stacked fit and one
closed-form any-utility value per record, each acting on every record on its
own.  Records depend only on (master seed, run index), so outputs are
byte-identical for any worker count or block size; bit-reproducibility
matters more than speed.

A command imports the modules it runs when it runs, so each command's
process loads only those: ``report`` loads no search or verifier module, and
one worker starts no pool.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter, deque
from itertools import chain, islice, repeat

import numpy as np

from . import records
from .basis import basis_from_config, domain_fault
from .config import ConfigError, PipelineConfig, build_predictor, load_config, parse_config
from .data import load_dataset, save_dataset, simulate_choices
from .lotteries import Collection, draw_menus, implied_choices, merge_payoff_grids, run_rng


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
    """The pipeline config, with the command's --seed over it where the
    command takes one."""
    cfg = load_config(args.config) if args.config else parse_config({})
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
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
# stack.  A morph step factors, projects and takes Gram matrices in
# expectation for a block's runs as one stack, a few rows at a time, and
# draws no normal at any J, so no per-sample array grows with the runs.
# 256 morph runs at 200,000 samples (seed 5), at one step and at two,
# peaked at 39.4 to 39.5 MB for J = 2 and 39.5 to 39.9 MB for J = 3 on one
# worker, and at 36.5 to 36.6 and 36.4 to 36.8 MB on two.
_RUN_BLOCK = 256


def _fan_out(chunk_fn, args: tuple, items, workers: int):
    """The records of ``chunk_fn(*args, block)`` over consecutive lists of
    ``items``, any iterable, yielded in order as each block is done; over
    ``workers > 1`` a pool holds at most ``2 * workers`` blocks.  A block has
    at most ``_RUN_BLOCK`` items, fewer to keep every worker busy over the
    first ``_RUN_BLOCK * workers``, the only items read ahead."""
    items = iter(items)
    head = list(islice(items, _RUN_BLOCK * workers))
    size, items = min(_RUN_BLOCK, -(-len(head) // workers)) or 1, chain(iter(head), items)
    del head  # the chain holds only head's iterator, which drops the list once passed
    blocks = iter(lambda: list(islice(items, size)), [])
    if workers == 1:
        yield from chain.from_iterable(map(chunk_fn, *map(repeat, args), blocks))
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        window = deque(pool.submit(chunk_fn, *args, b) for b in islice(blocks, 2 * workers - 1))
        while window:
            window.extend(pool.submit(chunk_fn, *args, b) for b in islice(blocks, 1))
            yield from window.popleft().result()


def _generate_chunk(predictor, cfg: PipelineConfig, procedure: str, indices) -> list:
    """The records of runs ``indices``."""
    if procedure == "adversarial":
        from .adversarial import run_adversarial_indices as generate
    elif procedure == "morph":
        from .morphing import run_morph_indices as generate
    else:
        from .analysis import run_baseline_indices as generate
    return generate(predictor, cfg, indices)


def cmd_generate(args) -> int:
    start = time.perf_counter()
    procedure = args.command
    cfg = _config_from_args(args)
    predictor = build_predictor(cfg.predictor)
    records.write_jsonl(args.out, _fan_out(_generate_chunk, (predictor, cfg, procedure),
                                           range(args.inits), args.workers), kind="candidates")
    return _summary(command=procedure, runs=args.inits, seed=cfg.seed, out=args.out,
                    workers=args.workers, **_throughput(start, args.inits, "runs"))


# -- verification / categorization ------------------------------------------

def _verify_chunk(cfg: PipelineConfig, recs) -> list:
    """Write the verdicts into a block of records and return it.  One stack
    per shape (``records.stack_records``) takes one fit and one closed-form
    any-utility value per row; an inconsistent row goes to ``minimal_anomaly``; a
    record ``size_fault`` or ``domain_fault`` rejects raises ValueError naming it."""
    from .verifier import minimal_anomaly, parametrized_verdicts, size_fault, utility_verdicts

    basis = basis_from_config(cfg.theory_basis)
    for rows, Z, P, q in records.stack_records(recs):
        merged = merge_payoff_grids(Z, P)
        if fault := size_fault(Z, merged[1]) or domain_fault(Z, basis.domain):
            raise ValueError(f"record {recs[rows[fault[0]]].get('id')!r}: {fault[1]}")
        pvs = parametrized_verdicts(basis, Z, P, q, cfg.kl_threshold)
        avs = utility_verdicts(Z, P, implied_choices(q), cfg.margin_threshold, merged)
        for i, pv, av, *row in zip(rows, pvs, avs, Z, P, q):
            minimal = None if av.consistent else minimal_anomaly(Collection(*row),
                                                                 cfg.margin_threshold)
            recs[i].update(
                min_kl=pv.min_kl, parametrized_inconsistent=pv.inconsistent,
                fit_converged=pv.converged, fit_on_bound=pv.on_norm_bound,
                any_utility_inconsistent=not av.consistent, margin=av.margin,
                anomaly_minimal_indices=list(minimal[0]) if minimal else None)
    return recs


def cmd_verify(args) -> int:
    start = time.perf_counter()
    cfg = _config_from_args(args)
    recs = (rec for rec, _ in records.read_lines(args.inp))
    next(recs)  # the header, which read_lines checks
    flags = ("parametrized_inconsistent", "any_utility_inconsistent", "fit_on_bound")
    counts = dict.fromkeys(("records", *flags, "pair_anomalies", "fit_unconverged"), 0)

    def counted(verified):
        for rec in verified:
            counts["records"] += 1
            counts["pair_anomalies"] += records.pair_anomaly(rec)
            counts["fit_unconverged"] += not rec["fit_converged"]
            for flag in flags:
                counts[flag] += rec[flag]
            yield rec

    records.write_jsonl(args.out, counted(_fan_out(_verify_chunk, (cfg,), recs, args.workers)),
                        kind="verified")
    return _summary(command="verify", out=args.out, **counts,
                    **_throughput(start, counts["records"], "records"))


def cmd_categorize(args) -> int:
    from .analysis import anomaly_features
    from .categorize import categorize

    start = time.perf_counter()
    lines = records.read_lines(args.inp, expected_kind="verified")
    next(lines)
    n_records, counts = 0, {}

    def categorized():
        """Each record as it is read: an anomaly with its category (and its
        features if it has two menus), any other record as the line it was."""
        nonlocal n_records
        for rec, line in lines:
            n_records += 1
            if not rec.get("any_utility_inconsistent"):
                yield line
                continue
            coll = records.record_to_collection(rec)
            cat = categorize(coll)
            rec["category"] = {"tag": cat.tag, "certificate": cat.certificate}
            counts[cat.tag] = counts.get(cat.tag, 0) + 1
            if len(coll.q) == 2:
                rec["features"] = [float(v) for v in anomaly_features(coll)]
            yield rec

    records.write_jsonl(args.out, categorized(), kind="categorized")
    return _summary(command="categorize", records=n_records,
                    category_counts=counts, out=args.out,
                    **_throughput(start, n_records, "records"))


def _category_tag(rec) -> str:
    """The tag of a categorized anomaly's category, ``other`` where it has
    none; a category that is not an object with a known tag is a ValueError
    naming the record."""
    from .categorize import CATEGORY_TAGS

    category = rec.get("category") or {}
    tag = category.get("tag", "other") if isinstance(category, dict) else None
    if tag not in CATEGORY_TAGS:
        raise ValueError(f"record {rec.get('id')!r}: category {rec.get('category')!r} "
                         f"has no tag of {CATEGORY_TAGS}")
    return tag


def cluster_rows(recs) -> list:
    """The categorized records ``cluster`` groups: non-FOSD anomalies with
    features.  One whose category has no known tag (``_category_tag``), or
    whose features are not one finite number per ``analysis.FEATURE_NAMES``,
    is a ValueError naming it: ``analysis.standardize`` would zero the whole
    column of a NaN, or of a missing value, for every record."""
    from .analysis import FEATURE_NAMES

    rows = [r for r in recs
            if r.get("any_utility_inconsistent") and r.get("features")
            and _category_tag(r) != "fosd"]
    for r in rows:
        features = r["features"]
        if not (isinstance(features, list) and len(features) == len(FEATURE_NAMES)
                and all(type(v) in (int, float) for v in features)
                and np.isfinite(features).all()):
            raise ValueError(f"record {r.get('id')!r}: features are not "
                             f"{len(FEATURE_NAMES)} finite numbers")
    return rows


def cmd_cluster(args) -> int:
    from . import analysis

    start = time.perf_counter()
    lines = records.read_lines(args.inp, expected_kind="categorized")
    next(lines)
    n_records, rows = 0, []
    for n_records, (rec, _) in enumerate(lines, 1):
        rows += cluster_rows([rec])
        if rows and "id" not in rows[-1]:
            raise ValueError(f"{args.inp}: record {n_records}, a non-FOSD anomaly with "
                             "features, has no id")
    if len(rows) < args.k:
        raise ValueError(f"{len(rows)} non-FOSD anomalies with features, "
                         f"fewer than the {args.k} clusters asked for")
    X = np.array([r["features"] for r in rows])
    km = analysis.kmeans(analysis.standardize(X), args.k, seed=args.seed or 0)
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
                    top_loadings=loadings, out=args.out,
                    **_throughput(start, n_records, "records"))


def cmd_report(args) -> int:
    from .categorize import CATEGORY_TAGS

    start = time.perf_counter()
    lines = records.read_lines(args.inp, expected_kind="categorized")
    next(lines)
    n_records, pairs, seen, counts = 0, 0, set(), Counter()
    for r, _ in lines:
        n_records += 1
        p = str(r.get("predictor"))
        seen.add(p)
        if not r.get("any_utility_inconsistent"):
            continue
        counts[(_category_tag(r), p)] += 1
        pairs += records.pair_anomaly(r)
    predictors = sorted(seen)
    rows = [[tag] + [counts[(tag, p)] for p in predictors] for tag in CATEGORY_TAGS]
    totals = [sum(counts[(tag, p)] for tag in CATEGORY_TAGS) for p in predictors]
    rows.append(["total"] + totals)
    records.write_csv(args.out, ["category"] + predictors, rows)
    return _summary(command="report", records=n_records, anomalies=sum(totals),
                    pair_anomalies=pairs, out=args.out,
                    **_throughput(start, n_records, "records"))


# -- data / model commands ---------------------------------------------------

def cmd_simulate(args) -> int:
    start = time.perf_counter()
    cfg = _config_from_args(args)
    predictor = build_predictor(cfg.predictor)
    if args.n < 1:
        raise ValueError("empty dataset")
    rng = run_rng(cfg.seed, 0)
    Z, P = draw_menus(rng, args.n, cfg.n_payoffs, *cfg.theory_basis["domain"])
    ds = simulate_choices(rng, predictor, Z, P, kind=args.kind, count=args.count)
    save_dataset(ds, args.out)
    return _summary(command="simulate", rows=len(ds), kind=args.kind,
                    predictor=predictor.label, out=args.out,
                    **_throughput(start, len(ds), "rows"))


def _width(field: str) -> int:
    """A hidden layer's width, a field of ``--hidden``: an integer >= 1."""
    try:
        if int(field) >= 1:
            return int(field)
    except ValueError:
        pass
    raise ConfigError(f"--hidden: invalid value {field!r}")


def cmd_train_mlp(args) -> int:
    from .predictor import MlpPredictor, MlpTrainConfig, evaluate, train_mlp

    start = time.perf_counter()
    config = MlpTrainConfig(batch_size=args.batch_size, epochs=args.epochs,
                            step_size=args.step_size, seed=args.seed or 0)
    hidden = tuple(_width(w) for w in args.hidden.split(",") if w)
    ds = load_dataset(args.inp)
    model = train_mlp(ds, hidden=hidden, config=config)
    model.save(args.out)
    metrics = evaluate(MlpPredictor(model), ds)
    return _summary(command="train-mlp", rows=len(ds), hidden=list(hidden),
                    train_mse=round(metrics["mse"], 6),
                    train_cross_entropy=round(metrics["cross_entropy"], 6),
                    out=args.out, **_throughput(start, len(ds), "rows"))


def cmd_fit_cpt(args) -> int:
    from .predictor import fit_cpt_params

    start = time.perf_counter()
    cfg = _config_from_args(args)
    ds = load_dataset(args.inp)
    scale = cfg.predictor.scale
    fit = fit_cpt_params(ds, scale=scale)
    if args.out:
        # A whole predictor section: the pair and the scale it was fitted at.
        records.atomic_write_lines(args.out, [json.dumps(
            {"delta": fit.params.delta, "gamma": fit.params.gamma, "kind": "cpt",
             "scale": scale}, sort_keys=True)])
    return _summary(command="fit-cpt", rows=len(ds), delta=fit.params.delta,
                    gamma=fit.params.gamma, scale=scale,
                    cross_entropy=round(fit.cross_entropy, 6),
                    converged=fit.converged, iterations=fit.iterations, out=args.out,
                    **_throughput(start, len(ds), "rows"))


def cmd_epsilon(args) -> int:
    from . import analysis

    start = time.perf_counter()
    with open(args.freqs, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    expected = ["pattern_00", "pattern_01", "pattern_10", "pattern_11"]
    if len(lines) < 2 or lines[0].split(",")[:4] != expected:
        raise ConfigError(f"{args.freqs}: expected columns {expected} and a row of counts")
    try:
        target = analysis.pattern_frequencies(lines[1].split(",")[:4])
    except ValueError as exc:
        raise ConfigError(f"{args.freqs}: {exc}") from None
    try:
        with open(args.menus, encoding="utf-8") as fh:
            data = json.load(fh)
        (Z,), (P,), faults = records.read_menus(records.parse_menus(data)[None])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.menus}: expected a list of menus ({exc!r})") from None
    for why, bad in faults:
        if bad[0]:
            raise ConfigError(f"{args.menus}: {why}")
    fit = analysis.estimate_epsilon(target, analysis.consistent_patterns(Z, P))
    return _summary(command="epsilon", epsilon=fit.epsilon,
                    weights={"".join(map(str, k)): round(v, 6)
                             for k, v in fit.weights.items()},
                    fit_distance=fit.fit_distance, **_throughput(start, len(Z), "menus"))


# -- argument parsing ---------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process at its first use.  A
    subcommand takes only the shared flags it reads."""
    parser = argparse.ArgumentParser(prog="anomgen",
                                     description="Anomaly generation for "
                                                 "expected utility theory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags=(), inp=True, out=True):
        """Subcommand ``name`` running ``func``, with the ``flags`` of
        "config", "seed" and "workers" it reads."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if "config" in flags:
            p.add_argument("--config", default=None, help="pipeline config JSON")
        for flag, default in (("seed", None), ("workers", 1)):
            if flag in flags:
                p.add_argument(f"--{flag}", type=int, default=default)
        if inp:
            p.add_argument("--in", dest="inp", required=True)
        if out:
            p.add_argument("--out", required=True)
        return p

    for name in ("adversarial", "morph", "baseline"):
        p = command(name, cmd_generate, f"run the {name} generator",
                    ("config", "seed", "workers"), inp=False)
        p.add_argument("--inits", type=int, required=True)

    command("verify", cmd_verify, "verify candidate collections", ("config", "workers"))
    command("categorize", cmd_categorize, "categorize verified anomalies")
    p = command("cluster", cmd_cluster, "k-means + PCA over anomaly features", ("seed",))
    p.add_argument("--k", type=int, default=4)
    command("report", cmd_report, "category-count CSV")

    p = command("simulate", cmd_simulate, "simulate a choice dataset", ("config", "seed"),
                inp=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("binary", "rate"), default="binary")
    p.add_argument("--count", type=int, default=100)

    p = command("train-mlp", cmd_train_mlp, "train the feedforward choice model", ("seed",))
    p.add_argument("--hidden", default="32,32")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--step-size", type=float, default=0.5)

    p = command("fit-cpt", cmd_fit_cpt, "fit probability-weighting parameters", ("config",),
                out=False)
    p.add_argument("--out", default=None)

    p = command("epsilon", cmd_epsilon, "idiosyncratic-error estimate", inp=False, out=False)
    p.add_argument("--freqs", required=True)
    p.add_argument("--menus", required=True)

    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # The integer flags with a floor, checked before a command reads anything.
        for flag, least in (("seed", 0), ("workers", 1), ("inits", 1), ("k", 1)):
            if (value := getattr(args, flag, None)) is not None and value < least:
                raise ConfigError(f"--{flag}: invalid value {value!r}")
        return args.func(args)
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(json.dumps({"command": args.command, "error": str(exc)}),
              file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
