"""Per-layer metrics from a traced pass.

``per_layer`` returns the metrics listed under ``per_layer`` in
BENCHMARK.json, which are measured on every workload, and a breakdown of the
search-only layers (adversarial, morphing, I-spline basis, oracle gradient,
minimality, categorize), which are printed but left out of the gated list
because they do not run on every workload.

Layer self times plus ``other.self_s`` add up to the traced pass's wall
time, the sum of its stage times: ``other`` is what no span covers, the
benchmark's own stdout capture around each stage.
"""

from __future__ import annotations

import statistics

from spans import LAYERS

# Layers that only run on the search workloads; their self times go to the
# breakdown so that every listed per-layer time is measured on every workload.
SEARCH_LAYERS = ("adversarial", "morphing", "categorize")


def _p(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(tracer, traced, untraced, outputs: dict):
    stat, count = tracer.get, tracer.counts.get
    fit = stat("theory.fit_theta")
    records = max(1, outputs["records"])
    morph_runs = stat("morphing.run_morph_index").calls
    metrics = {
        # deterministic counts: identical across traced runs at one seed
        "theory.fit_theta.calls": (fit.calls, "count"),
        "theory.fit_theta.on_bound_calls": (count("theory.fit_theta.on_bound_calls", 0), "count"),
        "theory.fit_theta.unconverged_calls": (count("theory.fit_theta.unconverged_calls", 0), "count"),
        "adversarial.runs": (stat("adversarial.run_adversarial_index").calls, "count"),
        "adversarial.iters": (count("adversarial.iters", 0), "count"),
        "morphing.runs": (morph_runs, "count"),
        "morphing.steps": (count("morphing.steps", 0), "count"),
        "morphing.step0_stops": (count("morphing.step0_stops", 0), "count"),
        "morphing.sample_theta_history.rows": (count("morphing.sample_theta_history.rows", 0), "count"),
        "basis.eval.calls": (stat("basis.PolynomialBasis.eval").calls
                             + stat("basis.ISplineBasis.eval").calls, "count"),
        "cpt.predict.calls": (stat("cpt.CptPredictor.predict").calls, "count"),
        "cpt.grad.calls": (stat("cpt.CptPredictor.grad").calls, "count"),
        "verifier.verify_parametrized.calls": (stat("verifier.verify_parametrized").calls, "count"),
        "verifier.minimal_anomaly.calls": (stat("verifier.minimal_anomaly").calls, "count"),
        "simplex_lp.solve_max.calls": (stat("simplex_lp.solve_max").calls, "count"),
        "categorize.categorize.calls": (stat("categorize.categorize").calls, "count"),
        "records.write_jsonl.bytes": (count("records.write_jsonl.bytes", 0), "B"),
        "records.read_jsonl.bytes": (count("records.read_jsonl.bytes", 0), "B"),
        "output.records": (outputs["records"], "count"),
        "output.parametrized_inconsistent": (outputs["parametrized_inconsistent"], "count"),
        "output.any_utility_inconsistent": (outputs["any_utility_inconsistent"], "count"),
        "output.parametrized_rate": (outputs["parametrized_inconsistent"] / records, "share"),
        "output.anomaly_rate": (outputs["any_utility_inconsistent"] / records, "share"),
        "simplex_lp.solve_max.per_record": (stat("simplex_lp.solve_max").calls / records,
                                            "calls/record"),
        "morphing.step0_stop_share": (count("morphing.step0_stops", 0) / max(1, morph_runs),
                                      "share"),
        # times
        "theory.fit_theta.self_s": (fit.self_time, "s"),
        "theory.fit_theta.on_bound_s": (sum(tracer.fit_on_bound), "s"),
        "theory.fit_theta.interior_ms_p50": (1e3 * _p(tracer.fit_interior, 50), "ms"),
        "theory.fit_theta.on_bound_ms_p50": (1e3 * _p(tracer.fit_on_bound, 50), "ms"),
        "basis.polynomial.eval.self_s": (stat("basis.PolynomialBasis.eval").self_time, "s"),
        "cpt.predict.s": (stat("cpt.CptPredictor.predict").total, "s"),
        "verifier.verify_parametrized.self_s": (stat("verifier.verify_parametrized").self_time, "s"),
        "verifier.verify_collection.self_s": (stat("verifier.verify_collection").self_time, "s"),
        "simplex_lp.solve_max.self_s": (stat("simplex_lp.solve_max").self_time, "s"),
        "records.write_jsonl.s": (stat("records.write_jsonl").total, "s"),
        "records.read_jsonl.s": (stat("records.read_jsonl").total, "s"),
        "cli.generate.wall_s": (traced.stage_seconds("adversarial", "morph", "baseline"), "s"),
        "cli.verify.wall_s": (traced.stage_seconds("verify"), "s"),
        "cli.categorize.wall_s": (traced.stage_seconds("categorize"), "s"),
        "cli.report.wall_s": (traced.stage_seconds("report"), "s"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }
    named = 0.0
    for layer in LAYERS:
        self_s = tracer.self_time(layer)
        named += self_s
        if layer not in SEARCH_LAYERS:
            metrics[f"layer.{layer}.self_s"] = (self_s, "s")
    metrics["layer.other.self_s"] = (traced.wall_s - named, "s")

    adv_runs = stat("adversarial.run_adversarial_index").durations or []
    morph = stat("morphing.run_morph_index").durations or []
    breakdown = {f"layer.{layer}.self_s": tracer.self_time(layer) for layer in SEARCH_LAYERS}
    breakdown.update({
        "adversarial.run.ms_p50": 1e3 * _p(adv_runs, 50),
        "adversarial.run.ms_p90": 1e3 * _p(adv_runs, 90),
        "morphing.run.ms_p50": 1e3 * _p(morph, 50),
        "morphing.run.ms_p90": 1e3 * _p(morph, 90),
        "morphing.sample_theta_history.self_s": stat("morphing.sample_theta_history").self_time,
        "morphing.morph_step_direction.self_s": stat("morphing.morph_step_direction").self_time,
        "basis.ispline.eval.self_s": stat("basis.ISplineBasis.eval").self_time,
        "basis.deriv.self_s": (stat("basis.PolynomialBasis.deriv").self_time
                               + stat("basis.ISplineBasis.deriv").self_time),
        "cpt.grad.s": stat("cpt.CptPredictor.grad").total,
        "verifier.minimal_anomaly.self_s": stat("verifier.minimal_anomaly").self_time,
        "categorize.categorize.self_s": stat("categorize.categorize").self_time,
        "search.nonfinite_runs": count("search.nonfinite_runs", 0),
        **{f"cli.{c}.wall_s": traced.stage_seconds(c) for c in ("adversarial", "morph", "baseline")},
    })
    return metrics, breakdown

