"""The three benchmark workloads and one measured pass over a workload.

Every workload drives ``anomgen.cli.run_command`` in-process, single worker,
on the CPT ``bruhin-b`` oracle.  Its inputs are ``CHUNKS`` chunks; each chunk
has its own master seed, hashed from ``--seed``, and run indices ``0..n-1``,
and runs generation, verify, categorize and report on its own files.  Sizes
scale with ``--seconds`` so that one untraced pass takes about that long on a
2-core Xeon; the work is then fixed by ``(seed, seconds)``, so a faster
program finishes sooner.

The pass runs once.  With a ``hostspeed.Probe`` the host's speed is sampled
along the pass, and the sampling time is taken out of each stage's time.

Search runs are shorter than the CLI defaults.  Per-run cost is heavy
tailed: an adversarial run whose inner fits land on the coefficient ball
costs tens of times a typical run, and so does verifying a record whose
cold fit does, so the spread across seeds falls only with the number of
runs.  Three iterations is the shortest adversarial run that keeps the tail:
at one iteration almost no fit lands on the ball.  The 200k-sample morph
takes one step per run, so every run pays the same theta sampling, SVD and
projection whether or not it stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from anomgen.cli import run_command

ADVERSARIAL_ITERS = 3
DESK_MORPH_ITERS = 10
MORPH_200K_ITERS = 1
CHUNKS = 8
GENERATE = ("adversarial", "morph", "baseline")


@dataclass(frozen=True)
class Workload:
    config: dict
    # (procedure, runs per second of --seconds); procedures are CLI commands.
    generate: tuple

    def sizes(self, seconds: int) -> list[tuple[str, int]]:
        """Runs per chunk of each procedure."""
        return [(proc, max(1, round(rate * seconds / CHUNKS)))
                for proc, rate in self.generate]


WORKLOADS = {
    # The desk path: both searches, then verify; the inner fit's tail dominates.
    "desk": Workload(
        {"adversarial": {"max_iters": ADVERSARIAL_ITERS},
         "morph": {"max_iters": DESK_MORPH_ITERS}},
        (("adversarial", 30.0), ("morph", 5.0))),
    # Paper-scale sampling and projection; the control for inner-fit changes.
    "morph-200k": Workload(
        {"morph": {"n_gradient_samples": 200_000, "max_iters": MORPH_200K_ITERS}},
        (("morph", 5.8),)),
    # No search: the cold verifier fit, the margin LP and JSONL I/O.
    "baseline-verify": Workload(
        {},
        (("baseline", 350.0),)),
}


def write_config(workload: Workload, seed: int, outdir: str) -> str:
    """Write the workload's pipeline config into ``outdir``; return its path."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "config.json")
    with open(path, "w") as fh:
        json.dump({"seed": seed, "predictor": {"kind": "cpt", "preset": "bruhin-b"},
                   **workload.config}, fh, sort_keys=True)
    return path


def chunk_seeds(seed: int) -> list[int]:
    """Master seeds of the chunks, hashed from ``seed`` so that neighbouring
    seeds share no chunk."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(CHUNKS)
            & 0x7FFFFFFF]


@dataclass
class Stage:
    command: str
    argv: list
    seconds: float = 0.0
    rc: int | None = None
    summary: dict = field(default_factory=dict)


@dataclass
class PassResult:
    stages: list
    runs: int
    files: dict          # "c<k>_<proc>" -> {"procedure", "runs", "candidates", ...}

    def stage_seconds(self, *commands) -> float:
        return sum(s.seconds for s in self.stages if s.command in commands)

    @property
    def wall_s(self) -> float:
        return sum(s.seconds for s in self.stages)

    @property
    def ok(self) -> bool:
        return all(s.rc == 0 for s in self.stages)


def plan(workload: Workload, seed: int, seconds: int, config_path: str, outdir: str):
    """Stages of the pass, chunk by chunk, and the output files."""
    stages, files, runs = [], {}, 0
    common = ["--config", config_path, "--workers", "1"]
    for k, master in enumerate(chunk_seeds(seed)):
        post = []
        for proc, n in workload.sizes(seconds):
            runs += n
            stem = f"c{k}_{proc}"
            f = {key: os.path.join(outdir, f"{stem}_{key}.jsonl")
                 for key in ("candidates", "verified", "categorized")}
            f["report"] = os.path.join(outdir, f"{stem}_report.csv")
            files[stem] = {"procedure": proc, "runs": n, **f}
            stages.append(Stage(proc, [proc, *common, "--seed", str(master),
                                       "--inits", str(n), "--out", f["candidates"]]))
            post += [Stage("verify", ["verify", *common, "--in", f["candidates"],
                                      "--out", f["verified"]]),
                     Stage("categorize", ["categorize", "--in", f["verified"],
                                          "--out", f["categorized"]]),
                     Stage("report", ["report", "--in", f["categorized"],
                                      "--out", f["report"]])]
        stages += post
    return stages, files, runs


def run_pass(workload: Workload, seed: int, seconds: int, outdir: str,
             tracer=None, probe=None) -> PassResult:
    """Run every stage of the workload once, chunk by chunk; stop at the
    first stage that fails."""
    config_path = write_config(workload, seed, outdir)
    stages, files, runs = plan(workload, seed, seconds, config_path, outdir)
    with probe.sampling() if probe else contextlib.nullcontext():
        for stage in stages:
            stage.rc, stage.seconds, out = _run_stage(stage, tracer, probe)
            lines = [ln for ln in out.splitlines() if ln.startswith("{")]
            stage.summary = json.loads(lines[-1]) if lines else {}
            if stage.rc != 0:
                break
    return PassResult(stages, runs, files)


def _run_stage(stage: Stage, tracer, probe=None):
    buf = io.StringIO()
    sampled_s = probe.spent_s if probe else 0.0
    span = tracer.span(f"cli.{stage.command}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            with span:
                rc = run_command(stage.argv)
        except Exception:
            # A stage that raises fails every operation in it; the benchmark
            # reports the failure instead of dying without a result line.
            traceback.print_exc(file=sys.stderr)
            rc = -1
        seconds = time.perf_counter() - t0
    if probe:
        seconds -= probe.spent_s - sampled_s
    return rc, seconds, buf.getvalue()
