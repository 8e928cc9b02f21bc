"""In-process span tracer for the anomgen layers.

The tracer wraps the public functions (and public methods of public classes)
of each measured ``anomgen`` module from outside the program: no file under
``src/`` knows it exists.  Names imported by value into other modules are
patched there too, because ``adversarial`` and ``morphing`` import
``fit_theta`` by name while ``verifier`` reaches it through
``theory.min_theory_loss``.

Each call records a span: its duration goes to the callee's total and to the
enclosing span's child time, so a span's self time is its duration minus the
part its child spans cover.  Spans are aggregated per name in memory; a few
names also keep every duration for percentiles.  Counts that depend only on
the inputs (calls, on-bound fits, morph steps, bytes written) are recorded at
the same boundaries.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from contextlib import contextmanager

# Layers are modules of ``anomgen``.  ``predictor``, ``data`` and ``analysis``
# are deliberately not measured (see README.md in this directory).
LAYERS = ("cli", "adversarial", "morphing", "theory", "basis", "cpt",
          "verifier", "simplex_lp", "categorize", "records", "lotteries",
          "config")
# ``cli`` dispatches through a dict, so its public functions are not reached
# through module attributes; the benchmark opens stage spans around
# ``run_command`` instead, and wraps the two in-process fan-out chunks.
CLI_CHUNKS = ("_generate_chunk", "_verify_chunk")
# ``cpt.logistic`` is the sigmoid inside every inner-fit iteration; wrapping
# it would charge fit iterations to the oracle layer and add a wrapper call
# per iteration, so it stays part of its caller's self time.
NOT_WRAPPED = ("cpt.logistic",)
# Spans whose every duration is kept for percentiles.
KEEP_DURATIONS = ("adversarial.run_adversarial_index", "morphing.run_morph_index")


class Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = None


class Tracer:
    """Aggregating span recorder; create one per traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, float] = {}
        self.fit_interior: list[float] = []
        self.fit_on_bound: list[float] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
            if name in KEEP_DURATIONS:
                stat.durations = []
        return stat

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, name: str, frame: list, end: float) -> float:
        self._stack.pop()
        duration = end - frame[0]
        stat = self._stat(name)
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame[1]
        if stat.durations is not None:
            stat.durations.append(duration)
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._close(name, frame, time.perf_counter())

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if hook is not None and hook[0] is not None:
                hook[0](tracer, args, kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(name, frame, time.perf_counter())
            if hook is not None and hook[1] is not None:
                hook[1](tracer, args, kwargs, result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every measured function and method; undo with ``uninstall``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("anomgen")
        modules = [importlib.import_module(f"anomgen.{m}")
                   for m in _all_submodules(package)]
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"anomgen.{layer}")
            for attr, obj in list(vars(module).items()):
                if layer == "cli":
                    if attr in CLI_CHUNKS:
                        replacements[id(obj)] = (obj, self._wrap(
                            f"cli.{attr.strip('_')}", obj))
                    continue
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if f"{layer}.{attr}" in NOT_WRAPPED:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._patch(obj, meth, fn,
                                    self._wrap(f"{layer}.{attr}.{meth}", fn))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, obj, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- summaries ----------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(s.self_time for n, s in self.stats.items()
                   if n == prefix or n.startswith(prefix + "."))

    def get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()


def _all_submodules(package) -> list[str]:
    directory = os.path.dirname(package.__file__)
    return sorted(f[:-3] for f in os.listdir(directory)
                  if f.endswith(".py") and f != "__init__.py")


# -- count hooks (before, after) keyed by span name ---------------------------

def _fit_after(tracer, args, kwargs, result, duration):
    if result.on_norm_bound:
        tracer.count("theory.fit_theta.on_bound_calls")
        tracer.fit_on_bound.append(duration)
    else:
        tracer.fit_interior.append(duration)
    if not result.converged:
        tracer.count("theory.fit_theta.unconverged_calls")


def _sample_before(tracer, args, kwargs):
    tracer.count("morphing.sample_theta_history.rows",
                 kwargs["count"] if "count" in kwargs else args[1])


def _adversarial_after(tracer, args, kwargs, result, duration):
    tracer.count("adversarial.iters", result.iterations)
    if any(str(f).startswith("nonfinite_gradient@") for f in result.flags):
        tracer.count("search.nonfinite_runs")


def _morph_after(tracer, args, kwargs, result, duration):
    tracer.count("morphing.steps", result.iterations)
    if result.iterations == 0:
        tracer.count("morphing.step0_stops")
    if any(str(f).startswith("nonfinite_gradient@") for f in result.flags):
        tracer.count("search.nonfinite_runs")


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


def _write_after(tracer, args, kwargs, result, duration):
    tracer.count("records.write_jsonl.bytes", os.path.getsize(_path_arg(args, kwargs)))


def _read_before(tracer, args, kwargs):
    tracer.count("records.read_jsonl.bytes", os.path.getsize(_path_arg(args, kwargs)))


_HOOKS = {
    "theory.fit_theta": (None, _fit_after),
    "morphing.sample_theta_history": (_sample_before, None),
    "adversarial.run_adversarial_index": (None, _adversarial_after),
    "morphing.run_morph_index": (None, _morph_after),
    "records.write_jsonl": (None, _write_after),
    "records.read_jsonl": (_read_before, None),
}
