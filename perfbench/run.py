#!/usr/bin/env python3
"""anomgen benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload desk --seed 23 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, each in
                                                       # its own interpreter, plus
                                                       # the paper-scale estimate

Run from the repository root.  The program is imported from ``src/`` of the
checkout the script sits in, in this process, with one worker and BLAS
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics, with
the pass's time scaled to the host's speed over the run (see ``hostspeed``);
``--trace 1`` runs the same untraced pass, then a traced pass, and prints the
per-layer metrics.  The last line of stdout is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the machine and the metrics that are printed but not gated.
Scratch files go to ``.perfbench_tmp/`` in the checkout and are removed.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process or its children:
# threaded OpenBLAS spreads the 200k-row SVD over every core by default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 23
# Held out: later changes confirm a claimed gain on this seed too.
HELD_OUT_SEED = 1729
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("desk", "morph-200k", "baseline-verify")
PAPER_ADVERSARIAL_RUNS = 25_000
PAPER_MORPH_RUNS = 15_000

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import anomgen.cli
from anomgen.config import build_predictor, load_config
build_predictor(load_config(sys.argv[2]).predictor)
print(repr(time.perf_counter() - t0))
"""


def _die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    if not (SRC / "anomgen" / "__init__.py").is_file():
        _die(f"no anomgen package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import anomgen
    if Path(anomgen.__file__).resolve().parent != SRC / "anomgen":
        _die(f"imported anomgen from {anomgen.__file__}, not from {SRC}")


def measure_setup(config_path: str) -> list[float]:
    """Import + config parse + predictor build, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), config_path],
                             cwd=ROOT, env=dict(os.environ), capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "workers": 1, "git_sha": _git_sha(ROOT)}


def _git_sha(root: Path):
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _read(path):
    from anomgen import records
    return records.read_jsonl(path)[1]


def accounting(result, failures: dict) -> tuple[int, int, dict]:
    """(attempted, failed, output counts): runs and verified records."""
    attempted = failed = 0
    n_records = n_par = n_any = 0
    by_out = {s.argv[-1]: s for s in result.stages}
    for files in result.files.values():
        n = files["runs"]
        attempted += 2 * n               # n runs, then n records verified
        if by_out[files["candidates"]].rc != 0:
            failed += 2 * n
            continue
        cands = _read(files["candidates"])
        failed += sum(any(str(f).startswith("nonfinite_gradient@") for f in r["flags"])
                      for r in cands)
        if any(by_out[files[k]].rc != 0 for k in ("verified", "categorized")):
            failed += n
            continue
        recs = _read(files["categorized"])
        failed += sum(r["id"] in failures for r in recs)
        n_records += len(recs)
        n_par += sum(bool(r["parametrized_inconsistent"]) for r in recs)
        n_any += sum(bool(r["any_utility_inconsistent"]) for r in recs)
    return attempted, failed, {"records": n_records, "parametrized_inconsistent": n_par,
                               "any_utility_inconsistent": n_any}


def end_to_end(result, setup_s: float, peak_rss_mb: float, scale: float) -> dict:
    """Gated metrics.  ``wall_norm_s`` is at nominal host speed; set-up runs
    in fresh interpreters, whose time does not follow the reference, so
    ``setup_s`` is as measured."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (result.wall_s * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _metrics_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one(name: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    import checks
    import hostspeed
    import layers
    import spans
    import workloads
    workload = workloads.WORKLOADS[name]
    untraced_dir = os.path.join(workdir, "untraced")
    config_path = workloads.write_config(workload, seed, untraced_dir)

    # Set-up is sampled before and after the pass, so that its median does
    # not rest on one stretch of the host's speed.
    probe = hostspeed.Probe()
    setup = [] if trace else measure_setup(config_path)
    result = workloads.run_pass(workload, seed, seconds, untraced_dir, probe=probe)
    if not trace:
        setup += measure_setup(config_path)
    failures = checks.check_pass(result, config_path, seed) if result.ok else {}
    attempted, failed, outputs = accounting(result, failures)
    correct = result.ok and not failures
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "runs": result.runs, **outputs,
            "stages": {c: result.stage_seconds(c) for c in
                       dict.fromkeys(s.command for s in result.stages)},
            "wall_s": result.wall_s,
            "reference_ms_mean": 1e3 * probe.mean_s,
            "host_scale": probe.scale(),
            "reference_samples": len(probe.samples),
            "runs_per_s": result.runs / result.stage_seconds(*workloads.GENERATE),
            "records_per_s": result.runs / result.stage_seconds("verify", "categorize"),
            "failed_share": failed / attempted,
            "parametrized_rate": outputs["parametrized_inconsistent"] / max(1, outputs["records"]),
            "anomaly_rate": outputs["any_utility_inconsistent"] / max(1, outputs["records"]),
            "gen_s_per_run": {proc: result.stage_seconds(proc) / (n * workloads.CHUNKS)
                              for proc, n in workload.sizes(seconds)},
            "check_failures": failures}

    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(result, statistics.median(setup), peak_rss_mb, probe.scale())
    else:
        tracer = spans.Tracer()
        traced_dir = os.path.join(workdir, "traced")
        with tracer.installed():
            traced = workloads.run_pass(workload, seed, seconds, traced_dir, tracer)
        differs = checks.differing_files(result.files, traced_dir)
        if differs or not traced.ok:
            correct = False
            info["check_failures"]["tracing"] = differs or ["traced pass failed"]
        metrics, breakdown = layers.per_layer(tracer, traced, result, outputs)
        info["breakdown"] = breakdown
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def paper_scale_estimate(infos: dict) -> dict:
    """Ungated: paper-scale hours from per-run generation cost, inputs shown.

    The benchmark's runs are shorter than the CLI defaults (see
    ``workloads``), so this extrapolates runs of those lengths.
    """
    import workloads
    adv = infos["desk"]["gen_s_per_run"]["adversarial"]
    mor = infos["morph-200k"]["gen_s_per_run"]["morph"]
    return {"desk_adversarial_s_per_run": adv,
            "adversarial_max_iters": workloads.ADVERSARIAL_ITERS,
            "morph_200k_s_per_run": mor,
            "morph_200k_max_iters": workloads.MORPH_200K_ITERS,
            "paper_scale_est_h": (PAPER_ADVERSARIAL_RUNS * adv
                                  + PAPER_MORPH_RUNS * mor) / 3600}


def run_all(args) -> int:
    """Every workload in a fresh interpreter of its own, so that each
    reports its own peak memory; then the paper-scale estimate."""
    results, infos = {}, {}
    for name in WORKLOAD_NAMES:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            _die(f"workload {name} exited with {out.returncode}", 1)
        print(lines[-2])
        infos[name] = json.loads(lines[-2])["info"]
        results[name] = json.loads(lines[-1])
    print(json.dumps({"paper_scale_est": paper_scale_estimate(infos)}))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{n}.{k}": v for n, r in results.items()
                                  for k, v in r["metrics"].items()}}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        _die("--seconds must be >= 1")
    _import_program()

    print(json.dumps({"env": environment()}, sort_keys=True))
    if args.workload == "all":
        return run_all(args)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps({"info": result["info"]}, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": _metrics_json(result["metrics"])}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
