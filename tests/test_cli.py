import argparse
import concurrent.futures
import contextlib
import csv
import gc
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anomgen import analysis, cli, morphing, records
from anomgen.adversarial import GdaConfig, run_adversarial_indices
from anomgen.cli import run_command
from anomgen.config import (MIN_RANK_TOL, ConfigError, build_predictor, load_config,
                            parse_config)
from anomgen.cpt import CptParams, CptPredictor, logistic, lottery_values
from anomgen.data import load_dataset, simulate_choices
from anomgen.lotteries import draw_menus, merge_payoff_grids, run_rng
from anomgen.morphing import MorphConfig
from anomgen.records import read_jsonl, record_to_collection, write_jsonl
from anomgen.verifier import (MAX_DISTINCT_PAYOFFS, minimal_anomaly, verify_collection,
                              verify_parametrized)
from anomgen.basis import ISplineBasis, basis_from_config
from anomgen.categorize import CATEGORY_TAGS, categorize
from anomgen.predictor import MlpModel, MlpPredictor, fit_cpt_params, menu_input_scaling
from conftest import (collection, flat, lottery, menu, menu_json, predict,
                      record_menus, reference_generated_record, reference_record,
                      sample_random_menu, write_anomalies)

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]


def reverified(rec, basis):
    """The stored verdicts a record re-verifies to, at the default thresholds."""
    coll = record_to_collection(rec)
    minimal = minimal_anomaly(coll)
    return {"parametrized_inconsistent": verify_parametrized(basis, coll).inconsistent,
            "any_utility_inconsistent": not verify_collection(coll).consistent,
            "anomaly_minimal_indices": list(minimal[0]) if minimal else None}


def run_ok(argv, capsys):
    rc = run_command(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    assert rc == 0, out
    return json.loads(out)


def cli_env(**overrides) -> dict:
    """This process's environment with ``overrides``, in which a child
    process imports anomgen from this checkout's ``src``."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _error_line(capsys) -> dict:
    """The one JSON error line a failed command printed."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    return json.loads(err[0])


class TestConfig:
    def test_empty_object_gives_documented_defaults(self):
        cfg = parse_config({})
        assert cfg.theory_basis["kind"] == "polynomial"
        assert cfg.theory_basis["order"] == 6
        assert cfg.adversarial.step_size == 0.01
        assert cfg.adversarial.max_iters == 50
        assert cfg.morph.step_size == 10.0
        assert cfg.morph.n_gradient_samples == 2000
        assert cfg.kl_threshold == 1e-5

    def test_search_defaults_are_the_search_configs_own(self):
        cfg = parse_config({})
        assert cfg.adversarial == GdaConfig()
        assert cfg.morph == MorphConfig()

    def test_paper_scale_values_accepted(self):
        cfg = parse_config({
            "adversarial": {"step_size": 0.01, "max_iters": 50},
            "morph": {"step_size": 10.0, "n_gradient_samples": 200000},
        })
        assert cfg.morph.n_gradient_samples == 200000
        assert cfg.adversarial == GdaConfig(step_size=0.01, max_iters=50)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="adversarial.learning_rate"):
            parse_config({"adversarial": {"learning_rate": 0.1}})
        with pytest.raises(ConfigError, match="typo"):
            parse_config({"typo": 1})
        # A batch's run and worker counts are flags: no byte depends on them.
        for raw, key in (({"adversarial": {"inits": 5}}, "adversarial.inits"),
                         ({"morph": {"inits": 5}}, "morph.inits"), ({"workers": 2}, "workers")):
            with pytest.raises(ConfigError, match=f"^unknown key '{key}'$"):
                parse_config(raw)
        # The search moves only probabilities of one menu against the initial
        # one, by one score: there is no coordinate, objective or mode switch.
        for key, value in (("ascent_coords", "all"), ("objective", "raw_loss"),
                           ("collection_mode", "free"), ("free_size", 2)):
            with pytest.raises(ConfigError, match=f"adversarial.{key}"):
                parse_config({"adversarial": {key: value}})
        # The cluster count is a flag of ``cluster`` only.
        with pytest.raises(ConfigError, match="unknown key 'analysis'"):
            parse_config({"analysis": {"clusters": 4}})

    @pytest.mark.parametrize("given", [{"delta": 0.5}, {"gamma": 0.5}])
    def test_half_given_weighting_pair_rejected(self, given):
        with pytest.raises(ConfigError, match="predictor.delta and predictor.gamma"):
            parse_config({"predictor": given})

    def test_explicit_weighting_pair_used(self):
        pred = build_predictor(parse_config(
            {"predictor": {"delta": 0.5, "gamma": 0.4, "preset": "bruhin-a"}}).predictor)
        assert (pred.params, pred.label) == (CptParams(0.5, 0.4), "cpt(0.5,0.4)")
        pred = build_predictor(parse_config({"predictor": {"preset": "bruhin-a"}}).predictor)
        assert (pred.params, pred.label) == (CptParams.preset("bruhin-a"), "cpt:bruhin-a")

    def test_unknown_basis_kind_named(self):
        with pytest.raises(ConfigError, match=r"theory.basis.kind: invalid value 'spline'"):
            parse_config({"theory": {"basis": {"kind": "spline"}}})

    @pytest.mark.parametrize("text", ["[]", "3", '"cfg"', "null"])
    def test_top_level_that_is_not_an_object(self, text, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(path)

    @pytest.mark.parametrize("kind, key, value", [
        ("mlp", "preset", "bruhin-a"), ("mlp", "delta", 0.5), ("mlp", "gamma", 0.4),
        ("mlp", "scale", 2.0), ("cpt", "model_path", "m.json")])
    def test_predictor_takes_only_its_kinds_keys(self, kind, key, value):
        # The network reads none of the oracle's keys, and the oracle no file.
        with pytest.raises(ConfigError, match=f"^unknown key 'predictor.{key}'$"):
            parse_config({"predictor": {"kind": kind, key: value}})

    def test_mlp_predictor_without_a_model_path(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="predictor.model_path required for kind 'mlp'"):
            build_predictor(parse_config({"predictor": {"kind": "mlp"}}).predictor)
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"kind": "mlp"}}))
        assert run_command(["simulate", "--config", "cfg.json", "--n", "5", "--out", "d.csv"]) == 1
        assert error_line(capsys) == {
            "command": "simulate", "error": "predictor.model_path required for kind 'mlp'"}
        assert not os.path.exists("d.csv")

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="step_size"):
            parse_config({"adversarial": {"step_size": -1}})
        # A value or section of the wrong JSON type is a config error, not a
        # TypeError out of the comparison.
        with pytest.raises(ConfigError, match="morph.step_size"):
            parse_config({"morph": {"step_size": "fast"}})
        for raw, path in (({"seed": "x"}, "seed"),
                          ({"adversarial": {"max_iters": 2.5}}, "adversarial.max_iters"),
                          ({"morph": {"n_gradient_samples": 1e5}},
                           "morph.n_gradient_samples")):
            with pytest.raises(ConfigError, match=path):
                parse_config(raw)
        with pytest.raises(ConfigError, match="predictor: must be a JSON object"):
            parse_config({"predictor": None})
        with pytest.raises(ConfigError, match="predictor.delta"):
            parse_config({"predictor": {"delta": -1.0, "gamma": 0.3}})

    @pytest.mark.parametrize("raw, path", [
        ({"adversarial": {"step_size": 0}}, "adversarial.step_size"),
        ({"adversarial": {"max_iters": 0}}, "adversarial.max_iters"),
        ({"morph": {"step_size": 0}}, "morph.step_size"),
        ({"morph": {"max_iters": 0}}, "morph.max_iters"),
        ({"morph": {"n_gradient_samples": 0}}, "morph.n_gradient_samples"),
        ({"morph": {"rank_tol": 9.9e-7}}, "morph.rank_tol")])
    def test_search_value_out_of_range_named(self, raw, path):
        # The config's check table is the only check of a search setting.
        with pytest.raises(ConfigError, match=f"^{path}: invalid value"):
            parse_config(raw)

    @pytest.mark.parametrize("path", [
        "predictor.delta", "predictor.gamma", "predictor.scale", "adversarial.step_size",
        "morph.step_size", "morph.rank_tol", "verification.kl_threshold",
        "verification.margin_threshold", "theory.basis.domain"])
    @pytest.mark.parametrize("value", [math.inf, True], ids=["Infinity", "true"])
    def test_float_value_must_be_a_finite_number(self, path, value, tmp_path, capsys):
        # JSON reads Infinity as a float, and true as a bool, which is an int.
        os.chdir(tmp_path)
        *sections, key = path.split(".")
        raw = {key: [0, value] if key == "domain" else value}
        for section in reversed(sections):
            raw = {section: raw}
        Path("cfg.json").write_text(json.dumps(raw))
        rc = run_command(["baseline", "--config", "cfg.json", "--inits", "1", "--out", "b.jsonl"])
        assert rc == 1
        assert _error_line(capsys)["error"].startswith(f"{path}: invalid value")
        assert not os.path.exists("b.jsonl")

    def test_basis_key_typo_named(self):
        with pytest.raises(ConfigError, match="theory.basis.ordr"):
            parse_config({"theory": {"basis": {"kind": "polynomial", "ordr": 4}}})

    def test_bad_basis_value_is_one_json_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"theory": {"basis": {"order": "six"}}}))
        rc = run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                          "--out", "a.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "theory.basis.order" in json.loads(err[0])["error"]
        assert not os.path.exists("a.jsonl")

    def test_basis_defaults_merge_within_one_kind(self):
        cfg = parse_config({"theory": {"basis": {"kind": "ispline"}}})
        assert cfg.theory_basis == ISplineBasis().config_dict()
        assert basis_from_config(cfg.theory_basis).config_dict() == cfg.theory_basis

    @pytest.mark.parametrize("raw, key", [
        ({"adversarial": {"basis": {"kind": "polynomial", "domain": [0, 20]}}},
         "adversarial.basis"),
        ({"adversarial": {"basis": {"order": 4}}}, "adversarial.basis"),
        ({"morph": {"basis": {"domain": [0, 20]}}}, "morph.basis"),
        ({"morph": {"basis": {"knots": 8}}}, "morph.basis")])
    def test_only_the_theory_names_a_basis(self, raw, key, tmp_path, capsys):
        # The theory basis fixes the payoff domain: no search section names a basis.
        os.chdir(tmp_path)
        (procedure,) = raw
        Path("cfg.json").write_text(json.dumps(raw))
        assert run_command([procedure, "--config", "cfg.json", "--inits", "1",
                            "--out", "x.jsonl"]) == 1
        assert _error_line(capsys) == {"command": procedure, "error": f"unknown key {key!r}"}
        assert os.listdir() == ["cfg.json"]

    def test_searches_live_on_the_theory_domain(self):
        # Every generator draws run i's initial menu from (seed, i) with the
        # pipeline's payoff count over the theory basis's domain.
        cfg = parse_config({"n_payoffs": 3, "seed": 3, "theory": {"basis": {"domain": [0, 5]}},
                            "adversarial": {"max_iters": 2}, "morph": {"max_iters": 2}})
        pred = CptPredictor(CptParams(0.726, 0.309))
        for generate in (run_adversarial_indices, morphing.run_morph_indices,
                         analysis.run_baseline_indices):
            for i, rec in zip(range(5, 9), generate(pred, cfg, range(5, 9))):
                Z, P = record_menus(rec)[0]
                (Z0,), (P0,) = draw_menus(run_rng(3, i), 1, 3, 0.0, 5.0)
                np.testing.assert_array_equal(Z, Z0)
                np.testing.assert_array_equal(P, P0)
                assert np.all((0 <= Z) & (Z <= 5))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 7}))
        assert load_config(path).seed == 7
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(bad)


class TestPipelineCommands:
    def test_generation_verification_roundtrip(self, tmp_path, capsys):
        os.chdir(tmp_path)
        run_ok(["adversarial", "--inits", "3", "--seed", "2",
                "--out", "c.jsonl"], capsys)
        header, recs = read_jsonl("c.jsonl", expected_kind="candidates")
        assert len(recs) == 3
        summary = run_ok(["verify", "--in", "c.jsonl", "--out", "v.jsonl"], capsys)
        assert summary["records"] == 3
        _, verified = read_jsonl("v.jsonl", expected_kind="verified")
        # Every persisted record is self-contained: re-verification matches,
        # for fresh records and for the stored golden ones alike.
        _, golden = read_jsonl(DATA / "golden_verified.jsonl", expected_kind="verified")
        assert len(golden) == 12
        basis = basis_from_config(parse_config({}).theory_basis)
        for rec in verified + golden:
            got = reverified(rec, basis)
            assert got == {k: rec[k] for k in got}, rec["id"]

    def test_zero_inits_errors(self, tmp_path, capsys):
        os.chdir(tmp_path)
        rc = run_command(["adversarial", "--inits", "0", "--seed", "1",
                          "--out", "x.jsonl"])
        assert rc != 0
        assert not os.path.exists("x.jsonl")

    @pytest.mark.parametrize("procedure", ["adversarial", "morph", "baseline"])
    def test_every_generator_requires_inits(self, procedure, tmp_path, capsys):
        os.chdir(tmp_path)
        assert run_command([procedure, "--out", "x.jsonl"]) == 2
        assert "--inits" in capsys.readouterr().err
        assert os.listdir() == []

    def test_worker_count_below_one_errors(self, tmp_path, capsys):
        os.chdir(tmp_path)
        assert run_command(["baseline", "--inits", "2", "--workers", "0",
                            "--out", "x.jsonl"]) == 1
        assert _error_line(capsys) == {"command": "baseline",
                                       "error": "--workers: invalid value 0"}
        assert not os.path.exists("x.jsonl")

    def test_workers_is_a_flag_only(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"workers": 2}))
        assert run_command(["baseline", "--config", "cfg.json", "--inits", "2",
                            "--out", "x.jsonl"]) == 1
        assert _error_line(capsys) == {"command": "baseline", "error": "unknown key 'workers'"}
        assert os.listdir() == ["cfg.json"]
        summary = run_ok(["baseline", "--inits", "2", "--workers", "2", "--out", "x.jsonl"],
                         capsys)
        assert summary["workers"] == 2

    def test_three_menu_record_is_one_json_error_line(self, tmp_path, capsys):
        # ``verify`` decides collections of at most MAX_MENUS = 2 menus.
        os.chdir(tmp_path)
        dominated = menu(lottery([5, 6], [0.5, 0.5]), lottery([6, 7], [0.5, 0.5]))
        other = menu(lottery([2, 8], [0.5, 0.5]), lottery([1, 9], [0.4, 0.6]))
        coll = collection([dominated, other, other], [0.2, 0.8, 0.3])
        write_jsonl("c.jsonl", [reference_record(coll, "triple-000000")], kind="candidates")
        assert run_command(["verify", "--in", "c.jsonl", "--out", "v.jsonl"]) == 1
        assert error_line(capsys) == {
            "command": "verify",
            "error": "record 'triple-000000': collection size must be in [1, 2]"}
        assert not os.path.exists("v.jsonl")
        with pytest.raises(ValueError, match=r"^collection size must be in \[1, 2\]$"):
            verify_collection(coll)

    def test_null_preset_prints_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"preset": None}}))
        rc = run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                          "--out", "x.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "predictor.preset" in json.loads(err[0])["error"]
        assert not os.path.exists("x.jsonl")

    def test_unknown_flag_usage_error(self):
        rc = run_command(["adversarial", "--bogus", "1"])
        assert rc != 0

    def test_diverged_training_prints_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        run_ok(["simulate", "--n", "100", "--seed", "1", "--kind", "rate",
                "--out", "d.csv"], capsys)
        rc = run_command(["train-mlp", "--in", "d.csv", "--out", "m.json",
                          "--epochs", "3", "--step-size", "1e300"])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1
        assert err["command"] == "train-mlp" and "diverged" in err["error"]
        assert not os.path.exists("m.json")

    def test_golden_tags_reproduced_byte_for_byte(self, tmp_path, capsys):
        # One fixture pair per category (and a single-menu FOSD violation and
        # a consistent pair), verified and categorized when menus were
        # objects: every certificate and feature vector keeps its bytes.
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(
            {"theory": {"basis": {"kind": "polynomial", "domain": [0, 5000000]}}}))
        run_ok(["verify", "--config", "cfg.json", "--in",
                str(DATA / "golden_tags_candidates.jsonl"), "--out", "v.jsonl"], capsys)
        assert Path("v.jsonl").read_bytes() == \
            (DATA / "golden_tags_verified.jsonl").read_bytes()
        summary = run_ok(["categorize", "--in", str(DATA / "golden_tags_verified.jsonl"),
                          "--out", "c.jsonl"], capsys)
        assert set(summary["category_counts"]) == set(CATEGORY_TAGS)
        assert Path("c.jsonl").read_bytes() == \
            (DATA / "golden_tags_categorized.jsonl").read_bytes()

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_golden_tags_categorized_on_any_blas_kernel(self, coretype, tmp_path):
        # OpenBLAS picks its kernel when numpy loads, so each kernel gets a
        # process of its own: an AVX2 or an SSE3 one writes the golden
        # features too, whatever kernel this process runs.
        proc = subprocess.run(
            [sys.executable, "-c", "from anomgen.cli import main; main()", "categorize",
             "--in", str(DATA / "golden_tags_verified.jsonl"), "--out", "c.jsonl"],
            cwd=tmp_path, env=cli_env(OPENBLAS_CORETYPE=coretype), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c.jsonl").read_bytes() == \
            (DATA / "golden_tags_categorized.jsonl").read_bytes()

    @pytest.mark.parametrize("module", ["anomgen", "anomgen.cli"])
    def test_python_dash_m_runs_the_command_line(self, module, tmp_path):
        # ``python -m`` on the package or on its CLI module runs what the
        # ``anomgen`` console script (``anomgen.cli:main``) runs.
        outs = []
        for argv in (["-m", module], ["-c", "from anomgen.cli import main; main()"]):
            out = f"{len(outs)}.jsonl"
            proc = subprocess.run([sys.executable, *argv, "baseline", "--inits", "2", "--out", out],
                                  cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append((tmp_path / out).read_bytes())
        assert outs[0] == outs[1]

    def test_golden_report_reproduced_byte_for_byte(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        run_ok(["report", "--in", str(DATA / "golden_categorized.jsonl"),
                "--out", str(out)], capsys)
        assert out.read_bytes() == (DATA / "golden_report.csv").read_bytes()

    def test_report_with_a_comma_in_a_predictor_label_reads_back_as_csv(self, tmp_path,
                                                                         capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"delta": 0.7, "gamma": 0.3}}))
        run_ok(["baseline", "--config", "cfg.json", "--inits", "40", "--out", "b.jsonl"],
               capsys)
        run_ok(["verify", "--config", "cfg.json", "--in", "b.jsonl", "--out", "v.jsonl"],
               capsys)
        run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"], capsys)
        run_ok(["report", "--in", "c.jsonl", "--out", "r.csv"], capsys)
        with open("r.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["category", "cpt(0.7,0.3)"]
        assert {len(row) for row in rows} == {2}
        assert Path("r.csv").read_text().startswith('category,"cpt(0.7,0.3)"\n')

    def test_csv_quotes_only_the_fields_that_need_it(self, tmp_path):
        fields = ["plain", "cpt(0.7,0.3)", 'say "hi"', "two\nlines", 0.25, 3]
        records.write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f"], [fields])
        text = (tmp_path / "t.csv").read_text()
        assert text.startswith("a,b,c,d,e,f\nplain,")
        assert text.endswith(",0.25,3\n")
        with open(tmp_path / "t.csv", newline="") as fh:
            assert list(csv.reader(fh))[1] == [str(v) for v in fields]

    def test_verify_marks_allais_record(self, tmp_path, capsys, allais_menus):
        from anomgen.records import write_jsonl
        menu_a, menu_b = allais_menus
        rec = {
            "id": "allais-000000", "procedure": "manual", "predictor": "paper",
            "master_seed": 0, "run_index": 0, "iterations": 0, "flags": [],
            "menus": [menu_json(menu_a), menu_json(menu_b)],
            "predicted_probs": [0.2, 0.8],
            "implied_choices": [0, 1],
        }
        os.chdir(tmp_path)
        write_jsonl("allais.jsonl", [rec], kind="candidates")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"theory": {"basis": {"kind": "polynomial", "order": 6,
                                  "domain": [0, 5e6]}}}))
        summary = run_ok(["verify", "--in", "allais.jsonl", "--config",
                          str(cfg), "--out", "av.jsonl"], capsys)
        assert summary["any_utility_inconsistent"] == 1
        _, recs = read_jsonl("av.jsonl")
        assert recs[0]["any_utility_inconsistent"] is True
        assert recs[0]["min_kl"] == pytest.approx(0.1927, abs=1e-3)

    def test_pair_anomalies_are_counted_apart_from_dominated_choices(
            self, tmp_path, capsys, dc_example_collection):
        # A dominated choice is an anomaly of its own menu; the
        # dominated-consequence pair is inconsistent only as a pair.
        dominated = collection([menu(lottery([5, 6], [0.5, 0.5]), lottery([6, 7], [0.5, 0.5])),
                                menu(lottery([2, 8], [0.5, 0.5]), lottery([1, 9], [0.4, 0.6]))],
                               [0.2, 0.8])
        os.chdir(tmp_path)
        write_jsonl("c.jsonl", [reference_record(dc_example_collection, "dc-000000"),
                                reference_record(dominated, "fosd-000000")], kind="candidates")
        verify = run_ok(["verify", "--in", "c.jsonl", "--out", "v.jsonl"], capsys)
        assert (verify["any_utility_inconsistent"], verify["pair_anomalies"]) == (2, 1)
        _, recs = read_jsonl("v.jsonl")
        assert [r["anomaly_minimal_indices"] for r in recs] == [[0, 1], [0]]
        assert [records.pair_anomaly(r) for r in recs] == [True, False]
        run_ok(["categorize", "--in", "v.jsonl", "--out", "cat.jsonl"], capsys)
        _, recs = read_jsonl("cat.jsonl")
        assert [r["category"]["tag"] for r in recs] == ["dominated_consequence", "fosd"]
        report = run_ok(["report", "--in", "cat.jsonl", "--out", "r.csv"], capsys)
        assert (report["anomalies"], report["pair_anomalies"]) == (2, 1)

    def test_a_single_menu_is_no_pair_anomaly(self):
        # Its minimal sub-collection holds its one menu, and no pair.
        rec = {"menus": [{}], "anomaly_minimal_indices": [0]}
        assert not records.pair_anomaly(rec)
        assert records.pair_anomaly({**rec, "menus": [{}, {}], "anomaly_minimal_indices": [0, 1]})
        assert not records.pair_anomaly({**rec, "anomaly_minimal_indices": None})

    def test_verified_records_flag_fits_on_the_ball(self, tmp_path, capsys):
        # Seed 3, run 0 ends on a collection whose best fit lies on the
        # coefficient ball; run 1 is fit inside it.
        os.chdir(tmp_path)
        run_ok(["adversarial", "--inits", "2", "--seed", "3",
                "--out", "c.jsonl"], capsys)
        run_ok(["verify", "--in", "c.jsonl", "--out", "v.jsonl"], capsys)
        _, recs = read_jsonl("v.jsonl", expected_kind="verified")
        assert [(r["fit_on_bound"], r["fit_converged"]) for r in recs] == \
            [(True, True), (False, True)]
        basis = basis_from_config(parse_config({}).theory_basis)
        for rec in recs:
            verdict = verify_parametrized(basis, record_to_collection(rec))
            assert verdict.on_norm_bound is rec["fit_on_bound"]
            assert verdict.converged is rec["fit_converged"]

    def test_configured_margin_threshold_reaches_minimality(self, tmp_path, capsys):
        os.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        # Three of these 50 consistent pairs have a margin (the value of their
        # tails' mixture LP) at or below 0.2.
        cfg.write_text(json.dumps({"verification": {"margin_threshold": 0.2}}))
        run_ok(["baseline", "--inits", "50", "--seed", "1", "--config", str(cfg),
                "--out", "b.jsonl"], capsys)
        run_ok(["verify", "--in", "b.jsonl", "--config", str(cfg),
                "--out", "bv.jsonl"], capsys)
        _, recs = read_jsonl("bv.jsonl", expected_kind="verified")
        flagged = [r for r in recs if r["any_utility_inconsistent"]]
        assert len(flagged) == 3
        for rec in flagged:
            assert rec["anomaly_minimal_indices"], rec["id"]

    def test_three_payoff_ascent_reaching_a_face_completes(self, tmp_path, capsys):
        # An iterate on a simplex face used to be clamped to 1e-8 and then
        # renormalized to just below the gradient's boundary tolerance, which
        # aborted the whole command.
        os.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_payoffs": 3, "adversarial": {"max_iters": 5}}))
        summary = run_ok(["adversarial", "--config", str(cfg), "--inits", "5",
                          "--seed", "9", "--out", "a.jsonl"], capsys)
        assert summary["runs"] == 5
        _, recs = read_jsonl("a.jsonl")
        assert len(recs) == 5

    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        os.chdir(tmp_path)
        run_ok(["morph", "--inits", "6", "--seed", "4", "--out", "m1.jsonl",
                "--workers", "1"], capsys)
        run_ok(["morph", "--inits", "6", "--seed", "4", "--out", "m2.jsonl",
                "--workers", "2"], capsys)
        assert Path("m1.jsonl").read_bytes() == Path("m2.jsonl").read_bytes()

    def test_worker_count_does_not_change_multi_block_morph_bytes(self, tmp_path, capsys):
        # A step draws nothing: its sample count sizes the rule of its Gram
        # matrices in expectation, and at 24,593 samples the bytes are the
        # same on any number of workers.
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"morph": {
            "n_gradient_samples": 24_593, "max_iters": 4}}))
        outs = []
        for workers in (1, 2, 3):
            outs.append(f"m{workers}.jsonl")
            summary = run_ok(["morph", "--config", "cfg.json", "--inits", "4", "--seed", "4",
                              "--out", outs[-1], "--workers", str(workers)], capsys)
            assert "draw_threads" not in summary
        for out in outs[1:]:
            assert Path(out).read_bytes() == Path(outs[0]).read_bytes()
        _, recs = read_jsonl(outs[0])
        assert {r["stop"] for r in recs} <= {"direction_vanished", "max_iters"}
        assert any(r["iterations"] > 0 for r in recs)
        # Quiet steps, whose draws would keep fewer than one gradient in
        # expectation, ride in the same stacks.
        assert any(r["certified_steps"] > 0 for r in recs)

    def test_epsilon_command(self, tmp_path, capsys, allais_menus):
        os.chdir(tmp_path)
        Path("freqs.csv").write_text(
            "pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n")
        Path("menus.json").write_text(json.dumps(
            [menu_json(m) for m in allais_menus]))
        summary = run_ok(["epsilon", "--freqs", "freqs.csv",
                          "--menus", "menus.json"], capsys)
        assert summary["epsilon"] == pytest.approx(0.0528, abs=1e-3)

    @pytest.mark.parametrize("freqs, menus, named", [
        ("pattern_00,pattern_01,pattern_10,pattern_11\n", [], "freqs.csv"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\nnan,5,5,45\n", [], "finite"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n45,inf,5,45\n", [], "finite"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n", [{}], "menus.json"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n", {"a": 1}, "menus.json"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n",
         [{"lottery0": {"payoffs": [1, 2], "probs": [0.5, 0.6]},
           "lottery1": {"payoffs": [1, 2], "probs": [0.5, 0.5]}}] * 2,
         "menus.json: probabilities"),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n45,x,5,45\n", [], "freqs.csv: "),
        ("pattern_00,pattern_01,pattern_10,pattern_11\n0,0,0,0\n", [],
         "freqs.csv: all-zero counts"),
    ])
    def test_malformed_epsilon_input_is_one_json_error_line(self, tmp_path, capsys,
                                                            freqs, menus, named):
        os.chdir(tmp_path)
        Path("freqs.csv").write_text(freqs)
        Path("menus.json").write_text(json.dumps(menus))
        rc = run_command(["epsilon", "--freqs", "freqs.csv", "--menus", "menus.json"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert named in json.loads(err[0])["error"]

    def test_empty_epsilon_menus_file_is_named(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("freqs.csv").write_text(
            "pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n")
        Path("menus.json").write_text("")
        assert run_command(["epsilon", "--freqs", "freqs.csv", "--menus", "menus.json"]) == 1
        assert error_line(capsys)["error"].startswith("menus.json: ")

    def test_epsilon_menus_of_unequal_payoff_counts_are_one_json_error_line(
            self, tmp_path, capsys, allais_menus, certainty_menus):
        # A J = 3 menu beside a J = 2 one: the menus file is read by the
        # records' rule, which holds one J per collection.
        os.chdir(tmp_path)
        Path("freqs.csv").write_text(
            "pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n")
        Path("menus.json").write_text(json.dumps(
            [menu_json(allais_menus[0]), menu_json(certainty_menus[0])]))
        rc = run_command(["epsilon", "--freqs", "freqs.csv", "--menus", "menus.json"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        error = json.loads(err[0])
        assert error["command"] == "epsilon" and "menus.json" in error["error"]

    def test_categorize_record_without_menus_is_one_json_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        write_jsonl("v.jsonl", [{"id": "baseline-000007", "any_utility_inconsistent": True}],
                    kind="verified")
        rc = run_command(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "baseline-000007" in json.loads(err[0])["error"]
        assert not os.path.exists("c.jsonl")

    def test_record_with_a_missing_probability_is_rejected(self, allais_collection):
        rec = reference_record(allais_collection, "allais-000000")
        rec["predicted_probs"] = rec["predicted_probs"][:1]
        with pytest.raises(ValueError, match="allais-000000"):
            record_to_collection(rec)

    def test_verify_record_with_a_missing_probability_is_one_json_error_line(
            self, tmp_path, capsys, allais_collection):
        os.chdir(tmp_path)
        rec = reference_record(allais_collection, "allais-000000")
        rec["predicted_probs"] = rec["predicted_probs"][:1]
        write_jsonl("c.jsonl", [rec], kind="candidates")
        rc = run_command(["verify", "--in", "c.jsonl", "--out", "v.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "allais-000000" in json.loads(err[0])["error"]
        assert not os.path.exists("v.jsonl")

    def test_simulate_train_fit_flow(self, tmp_path, capsys):
        os.chdir(tmp_path)
        run_ok(["simulate", "--n", "300", "--seed", "1", "--kind", "rate",
                "--count", "200", "--out", "d.csv"], capsys)
        summary = run_ok(["train-mlp", "--in", "d.csv", "--hidden", "8",
                          "--epochs", "30", "--seed", "0",
                          "--out", "model.json"], capsys)
        assert summary["train_mse"] < 0.25
        fit = run_ok(["fit-cpt", "--in", "d.csv"], capsys)
        assert 0.3 < fit["delta"] < 1.6

    def test_three_payoff_dataset_needs_no_payoff_flag(self, tmp_path, capsys):
        # The number of payoffs comes from the CSV header, for fit-cpt and
        # train-mlp; a 3-payoff dataset used to be read as J = 2 and rejected.
        # The fitted (delta, gamma) then configure a 3-payoff search.
        os.chdir(tmp_path)
        Path("p3.json").write_text(json.dumps({"n_payoffs": 3}))
        run_ok(["simulate", "--config", "p3.json", "--n", "200", "--seed", "1",
                "--out", "d3.csv"], capsys)
        fit = run_ok(["fit-cpt", "--in", "d3.csv", "--out", "fit.json"], capsys)
        assert fit["rows"] == 200
        Path("search.json").write_text(json.dumps({
            "n_payoffs": 3, "predictor": json.loads(Path("fit.json").read_text()),
            "adversarial": {"max_iters": 3}}))
        run_ok(["adversarial", "--config", "search.json", "--inits", "3", "--seed", "2",
                "--out", "a.jsonl"], capsys)
        _, recs = read_jsonl("a.jsonl")
        assert len(recs) == 3
        assert recs[0]["predictor"] == f"cpt({fit['delta']:g},{fit['gamma']:g})"
        assert len(recs[0]["menus"][0]["lottery0"]["probs"]) == 3
        run_ok(["train-mlp", "--in", "d3.csv", "--hidden", "4", "--epochs", "2",
                "--out", "m3.json"], capsys)
        assert MlpModel.load("m3.json").widths[0] == len(menu_input_scaling(3))


def _random_candidate(seed, n_payoffs, kinds):
    """A CPT-labelled collection: a random first menu, then one menu per kind.

    ``fresh`` draws a new random menu.  ``shared`` keeps the first menu's
    payoffs with new probabilities, as a search output does.  ``sure`` does
    the same but makes lottery 0 a sure payoff, where the oracle's
    subcertainty can prefer a dominated lottery.
    """
    rng = np.random.default_rng(seed)
    first = sample_random_menu(rng, n_payoffs, 0.0, 10.0)
    menus = [first]
    ones = np.ones(n_payoffs)
    for kind in kinds:
        if kind == "fresh":
            menus.append(sample_random_menu(rng, n_payoffs, 0.0, 10.0))
            continue
        p0 = rng.dirichlet(ones) if kind == "shared" else \
            np.eye(n_payoffs)[rng.integers(n_payoffs)]
        (z0, z1), _ = first
        menus.append(menu(lottery(z0, p0), lottery(z1, rng.dirichlet(ones))))
    oracle = CptPredictor(CptParams.preset("bruhin-b"))
    return collection(menus, [predict(oracle, m) for m in menus])


class TestRecordRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_payoffs=st.sampled_from([2, 3]),
           kinds=st.lists(st.sampled_from(["fresh", "shared", "sure"]),
                          min_size=0, max_size=1))
    # Anomalies are rare among random draws; these seeds give minimal sets
    # (1,) at J = 2 and J = 3, and (0, 1).
    @example(seed=99, n_payoffs=2, kinds=["sure"])
    @example(seed=174, n_payoffs=3, kinds=["sure"])
    @example(seed=52, n_payoffs=2, kinds=["sure"])
    def test_random_records_reverify_to_stored_verdicts(self, seed, n_payoffs, kinds):
        # reference_record -> write_jsonl -> read_jsonl -> `anomgen verify`,
        # then every stored verdict is reproduced from the stored record alone.
        fresh_menus = 1 + kinds.count("fresh")
        assume(2 * n_payoffs * fresh_menus <= MAX_DISTINCT_PAYOFFS)
        coll = _random_candidate(seed, n_payoffs, kinds)
        basis = basis_from_config(parse_config({}).theory_basis)
        with tempfile.TemporaryDirectory() as tmp:
            cand, ver = os.path.join(tmp, "c.jsonl"), os.path.join(tmp, "v.jsonl")
            write_jsonl(cand, [reference_record(coll)], kind="candidates")
            _, (rec,) = read_jsonl(cand, expected_kind="candidates")
            got = record_to_collection(rec)
            np.testing.assert_array_equal(flat((got.Z, got.P)), flat((coll.Z, coll.P)))
            assert run_command(["verify", "--in", cand, "--out", ver]) == 0
            _, (stored,) = read_jsonl(ver, expected_kind="verified")
        got = reverified(stored, basis)
        assert got == {k: stored[k] for k in got}


def _mixed_candidates(capsys):
    """Candidate records of every shape and branch verify meets: adversarial,
    morph and baseline runs; J = 2 and J = 3; 1- and 2-menu collections;
    a collection whose payoffs all merge to one; inconsistent pairs with
    minimal subsets (1,) and (0, 1); and a record 1e-7 off the simplex."""
    Path("p3.json").write_text(json.dumps({"n_payoffs": 3}))
    Path("short.json").write_text(json.dumps({"morph": {"max_iters": 5,
                                                        "n_gradient_samples": 200}}))
    for argv in (["adversarial", "--inits", "6"], ["morph", "--config", "short.json",
                                                  "--inits", "4"],
                 ["baseline", "--inits", "6"], ["baseline", "--config", "p3.json",
                                                "--inits", "6"]):
        run_ok([*argv, "--seed", "2", "--out", "part.jsonl"], capsys)
        yield from read_jsonl("part.jsonl")[1]
    single = sample_random_menu(np.random.default_rng(0), 2, 0.0, 10.0)
    yield reference_record(collection([single], [0.7]), "single-000000")
    merged = menu(lottery([5.0, 5.0], [0.3, 0.7]), lottery([5.0, 5.0], [0.5, 0.5]))
    yield reference_record(collection([merged], [0.6]), "flat-000000")
    yield reference_record(_random_candidate(99, 2, ["sure"]), "minimal-000099")
    yield reference_record(_random_candidate(52, 2, ["sure"]), "minimal-000052")
    off = reference_record(_random_candidate(7, 3, ["fresh"]), "off-000007")
    off["menus"][0]["lottery0"]["probs"] = [p * (1 + 1e-7)
                                            for p in off["menus"][0]["lottery0"]["probs"]]
    yield off


class TestVerifyStacks:
    """``verify`` reads a block into one stack per shape; a record's verdicts
    do not depend on the records stacked with it."""

    def test_block_size_and_workers_move_no_byte(self, tmp_path, capsys, monkeypatch):
        os.chdir(tmp_path)
        recs = list(_mixed_candidates(capsys))
        recs = recs[::2] + recs[1::2]           # blocks of 7 hold several shapes
        write_jsonl("mixed.jsonl", recs, kind="candidates")
        outputs = {}
        for block in (1, 7, 256):
            monkeypatch.setattr(cli, "_RUN_BLOCK", block)
            for workers in (1, 2):
                out = f"v-{block}-{workers}.jsonl"
                run_ok(["verify", "--in", "mixed.jsonl", "--workers", str(workers),
                        "--out", out], capsys)
                outputs[block, workers] = Path(out).read_bytes()
        assert len(set(outputs.values())) == 1
        # Every record re-verifies, one collection at a time, to its stored fields.
        cfg = parse_config({})
        basis = basis_from_config(cfg.theory_basis)
        _, verified = read_jsonl("v-256-1.jsonl", expected_kind="verified")
        for rec in verified:
            coll = record_to_collection(rec)
            pv = verify_parametrized(basis, coll, cfg.kl_threshold)
            av = verify_collection(coll, cfg.margin_threshold)
            minimal = None if av.consistent else minimal_anomaly(coll, cfg.margin_threshold)
            want = {"min_kl": pv.min_kl, "parametrized_inconsistent": pv.inconsistent,
                    "fit_converged": pv.converged, "fit_on_bound": pv.on_norm_bound,
                    "any_utility_inconsistent": not av.consistent, "margin": av.margin,
                    "anomaly_minimal_indices": list(minimal[0]) if minimal else None}
            assert {k: rec[k] for k in want} == want, rec["id"]
        by_id = {r["id"]: r for r in verified}
        assert {r["procedure"] for r in verified} >= {"adversarial", "morphing", "baseline"}
        assert {(len(r["menus"]), len(r["menus"][0]["lottery0"]["payoffs"]))
                for r in verified} == {(1, 2), (2, 2), (2, 3)}
        assert by_id["flat-000000"]["margin"] == 0.0
        assert not any("witness" in r for r in verified)
        assert by_id["minimal-000099"]["anomaly_minimal_indices"] == [1]
        assert by_id["minimal-000052"]["anomaly_minimal_indices"] == [0, 1]
        assert record_to_collection(by_id["off-000007"]).P[0, 0].tolist() \
            != by_id["off-000007"]["menus"][0]["lottery0"]["probs"]

    def test_each_stack_merges_its_payoff_grids_once(self, tmp_path, capsys, monkeypatch):
        # 7 consistent baseline pairs of one shape, one block: one stack,
        # whose grids the size check and the margin LPs share.
        os.chdir(tmp_path)
        run_ok(["baseline", "--inits", "7", "--seed", "3", "--out", "b.jsonl"], capsys)
        merged = []

        def counted(Z, P):
            merged.append(len(Z))
            return merge_payoff_grids(Z, P)

        monkeypatch.setattr(cli, "merge_payoff_grids", counted)
        monkeypatch.setattr(sys.modules["anomgen.verifier"], "merge_payoff_grids", counted)
        summary = run_ok(["verify", "--in", "b.jsonl", "--out", "v.jsonl"], capsys)
        assert summary["any_utility_inconsistent"] == 0
        assert merged == [7]

    @pytest.mark.parametrize("malform", [
        lambda rec: rec["predicted_probs"].__setitem__(0, 1.5),
        lambda rec: rec["menus"][0]["lottery0"]["probs"].__setitem__(0, 0.5 + 1e-5),
        lambda rec: rec["menus"][1]["lottery1"].update(probs=[-1e-6, 1.0 + 1e-6]),
        lambda rec: rec["menus"][0]["lottery1"]["payoffs"].__setitem__(1, float("nan")),
        lambda rec: rec["menus"][1].update(lottery1={"payoffs": [1.0, 2.0, 3.0],
                                                      "probs": [0.2, 0.3, 0.5]}),
        lambda rec: rec.update(predicted_probs=rec["predicted_probs"][:1]),
        lambda rec: rec.update(menus=rec["menus"] * 5, predicted_probs=rec["predicted_probs"] * 5),
        lambda rec: rec.update(menus=[{f"lottery{k}": {
            "payoffs": [(8 * i + 4 * k + j) / 2 for j in range(4)], "probs": [0.25] * 4}
            for k in (0, 1)} for i in (0, 1)]),
        lambda rec: rec["menus"][1]["lottery0"]["payoffs"].__setitem__(0, 50.0),
    ], ids=["choice-1.5", "sum-1e-5-off", "negative-1e-6", "nan-payoff", "mixed-J",
            "menus-vs-probs", "10-menus", "16-payoffs", "outside-domain"])
    def test_malformed_record_in_a_block_is_one_json_error_line(self, malform, tmp_path,
                                                                capsys):
        os.chdir(tmp_path)
        run_ok(["baseline", "--inits", "7", "--seed", "3", "--out", "b.jsonl"], capsys)
        _, recs = read_jsonl("b.jsonl")
        recs[3]["menus"][0]["lottery0"]["probs"] = [0.5, 0.5]
        malform(recs[3])
        write_jsonl("c.jsonl", recs, kind="candidates")
        rc = run_command(["verify", "--in", "c.jsonl", "--out", "v.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert repr(recs[3]["id"]) in json.loads(err[0])["error"]
        assert not os.path.exists("v.jsonl")


class TestClusterCommand:
    def test_cluster_csv_schema(self, tmp_path, capsys):
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 10)
        summary = run_ok(["cluster", "--in", "cat.jsonl", "--k", "3",
                          "--seed", "0", "--out", "cl.csv"], capsys)
        lines = Path("cl.csv").read_text().splitlines()
        assert lines[0] == "id,cluster,pc1,pc2"
        assert len(lines) == 11
        assert summary["k"] == 3

    def test_fewer_anomalies_than_clusters_exits_1(self, tmp_path, capsys):
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 2)
        rc = run_command(["cluster", "--in", "cat.jsonl", "--k", "3", "--out", "cl.csv"])
        out, err = capsys.readouterr()
        assert rc == 1 and not out.strip()
        (line,) = err.strip().splitlines()
        error = json.loads(line)
        assert error["command"] == "cluster" and "fewer" in error["error"]
        assert not os.path.exists("cl.csv")


def error_line(capsys) -> dict:
    """The one JSON error line of a failed command, which printed nothing
    else."""
    out, err = capsys.readouterr()
    (line,) = err.strip().splitlines()
    assert not out.strip()
    return json.loads(line)


class TestBadInputIsOneErrorLine:
    """A bad dataset row or JSONL line exits 1 with one JSON error line and
    leaves no output file."""

    HEADER = "z0_1,z0_2,p0_1,p0_2,z1_1,z1_2,p1_1,p1_2,outcome,outcome_kind,weight\n"

    @pytest.mark.parametrize("argv", [
        ["fit-cpt", "--in", "short.csv", "--out", "out"],
        ["train-mlp", "--in", "short.csv", "--epochs", "1", "--out", "out"],
    ], ids=["fit-cpt", "train-mlp"])
    def test_short_csv_row(self, argv, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("short.csv").write_text(self.HEADER + "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,1\n"
                                     "1,2,0.5,0.5,3\n")
        assert run_command(argv) == 1
        assert error_line(capsys) == {"command": argv[0],
                                      "error": "short.csv: row 1: 5 fields, the header has 11"}
        assert not os.path.exists("out")

    def test_fit_cpt_names_a_csv_without_the_schema(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("freqs.csv").write_text("pattern_00,pattern_01,pattern_10,pattern_11\n40,7,3,50\n")
        assert run_command(["fit-cpt", "--in", "freqs.csv", "--out", "out"]) == 1
        assert error_line(capsys) == {
            "command": "fit-cpt", "error": "freqs.csv: missing columns: "
            "['z0_1', 'p0_1', 'z1_1', 'p1_1', 'outcome', 'outcome_kind']"}
        assert not os.path.exists("out")

    def test_train_mlp_names_the_csv_of_a_rejected_row(self, tmp_path, capsys):
        # The kind is checked by ChoiceDataset, after every row is read.
        os.chdir(tmp_path)
        Path("bogus.csv").write_text(self.HEADER + "1,2,0.5,0.5,3,4,0.25,0.75,0.8,bogus,1\n")
        assert run_command(["train-mlp", "--in", "bogus.csv", "--epochs", "1",
                            "--out", "out"]) == 1
        assert error_line(capsys) == {
            "command": "train-mlp", "error": "bogus.csv: row 0: kind not binary or rate: 'bogus'"}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "0", "--out", "out"], "empty dataset"),
        (["fit-cpt", "--in", "empty.csv", "--out", "out"], "empty dataset"),
        (["train-mlp", "--in", "empty.csv", "--out", "out"], "empty training set"),
    ], ids=["simulate", "fit-cpt", "train-mlp"])
    def test_empty_dataset(self, argv, message, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("empty.csv").write_text(self.HEADER)
        assert run_command(argv) == 1
        assert error_line(capsys) == {"command": argv[0], "error": message}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("command, lines, bad", [
        ("verify", ["[1]"], 1),
        ("verify", ['{"kind": "candidates", "version": 1}', "", "1"], 3),
        ("categorize", ['{"kind": "verified", "version": 1}', "1"], 2),
        ("report", ['{"kind": "categorized", "version": 1}', "1"], 2),
    ], ids=["verify-header", "verify-record", "categorize-record", "report-record"])
    def test_jsonl_line_that_is_not_an_object(self, command, lines, bad, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("in.jsonl").write_text("\n".join(lines) + "\n")
        assert run_command([command, "--in", "in.jsonl", "--out", "out"]) == 1
        assert error_line(capsys) == {"command": command,
                                      "error": f"in.jsonl: line {bad} is not a JSON object"}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("text, message", [
        ('{"kind": "candidates", "version": 2}\n{}\n', "unsupported version 2"),
        ('{"kind": "candidates"}\n', "unsupported version None"),
        ("", "empty stream"),
        ("\n  \n", "empty stream"),
    ], ids=["version-2", "no-version", "empty", "blank"])
    @pytest.mark.parametrize("command", ["verify", "categorize"])
    def test_stream_without_a_supported_header(self, command, text, message, tmp_path,
                                               capsys):
        os.chdir(tmp_path)
        Path("in.jsonl").write_text(text)
        assert run_command([command, "--in", "in.jsonl", "--out", "out"]) == 1
        assert error_line(capsys) == {"command": command, "error": f"in.jsonl: {message}"}
        assert not os.path.exists("out")

    def test_jsonl_line_that_is_not_valid_json(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("in.jsonl").write_text('{"kind": "candidates", "version": 1}\n{oops\n')
        assert run_command(["verify", "--in", "in.jsonl", "--out", "out"]) == 1
        error = error_line(capsys)
        assert error["command"] == "verify"
        assert error["error"].startswith("in.jsonl: line 2 is not valid JSON (")
        assert not os.path.exists("out")

    def test_infinite_probability_warns_nothing(self, tmp_path, capsys):
        # An infinite probability is rejected before any arithmetic on it,
        # so numpy prints no RuntimeWarning ahead of the error line.
        os.chdir(tmp_path)
        lot = {"payoffs": [1.0, 2.0], "probs": [0.5, 0.5]}
        rec = {"id": "x-000000", "menus": [{"lottery0": lot, "lottery1": {
            "payoffs": [1.0, 2.0], "probs": [float("inf"), 0.0]}}], "predicted_probs": [0.5]}
        Path("in.jsonl").write_text('{"kind": "candidates", "version": 1}\n'
                                    + json.dumps(rec) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_command(["verify", "--in", "in.jsonl", "--out", "out"]) == 1
        assert [str(w.message) for w in caught] == []
        error = error_line(capsys)
        assert error["command"] == "verify" and "x-000000" in error["error"]
        assert "probabilities not within 1e-6 of the simplex" in error["error"]
        assert not os.path.exists("out")

    @pytest.mark.parametrize("category", [{"tag": "bogus"}, "fosd"], ids=["bogus-tag", "string"])
    def test_report_and_cluster_reject_a_category_without_a_known_tag(self, category, tmp_path,
                                                                      capsys):
        # The same record, an anomaly with features, in both commands: one
        # JSON error line naming it, and no traceback.
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 3)
        _, recs = read_jsonl("cat.jsonl")
        assert recs[1]["features"]
        recs[1]["category"] = category
        write_jsonl("bad.jsonl", recs, kind="categorized")
        for argv in (["report"], ["cluster", "--k", "1"]):
            assert run_command(argv + ["--in", "bad.jsonl", "--out", "out"]) == 1
            error = error_line(capsys)
            assert error["command"] == argv[0]
            assert error["error"].startswith("record 'x-000001': category ")
            assert not os.path.exists("out")
        with pytest.raises(ValueError, match="record 'x-000001'"):
            cli.cluster_rows(recs)

    @pytest.mark.parametrize("kind", ["candidates", "verified"])
    def test_report_of_a_stream_that_is_not_categorized(self, kind, tmp_path, capsys):
        # An uncategorized anomaly would be counted as ``other``.
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 3)
        write_jsonl("in.jsonl", read_jsonl("cat.jsonl")[1], kind=kind)
        assert run_command(["report", "--in", "in.jsonl", "--out", "out"]) == 1
        assert error_line(capsys) == {
            "command": "report", "error": f"in.jsonl: kind {kind!r}, expected 'categorized'"}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("k", [0, -1])
    def test_cluster_k_below_one_warns_nothing(self, k, tmp_path, capsys):
        # --k is rejected before any arithmetic: on a stream with no non-FOSD
        # anomaly, standardizing the empty feature matrix would warn first.
        os.chdir(tmp_path)
        write_jsonl("cat.jsonl", [], kind="categorized")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_command(["cluster", "--in", "cat.jsonl", f"--k={k}", "--out", "out"]) == 1
        assert [str(w.message) for w in caught] == []
        assert error_line(capsys) == {"command": "cluster", "error": f"--k: invalid value {k}"}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("features", [[None] + [0.5] * 17, [float("nan")] + [0.5] * 17,
                                          [0.5] * 17], ids=["null", "nan", "short"])
    def test_cluster_rejects_features_that_are_not_18_finite_numbers(self, features,
                                                                      tmp_path, capsys):
        # One record of the five, named; no table is written.
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 5)
        _, recs = read_jsonl("cat.jsonl")
        recs[2]["features"] = features
        write_jsonl("bad.jsonl", recs, kind="categorized")
        assert run_command(["cluster", "--in", "bad.jsonl", "--k", "2", "--out", "out"]) == 1
        assert error_line(capsys) == {
            "command": "cluster", "error": "record 'x-000002': features are not 18 finite numbers"}
        assert not os.path.exists("out")

    def test_cluster_row_without_an_id(self, tmp_path, capsys):
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 6)
        _, recs = read_jsonl("cat.jsonl")
        del recs[4]["id"]
        write_jsonl("bad.jsonl", recs, kind="categorized")
        assert run_command(["cluster", "--in", "bad.jsonl", "--k", "2", "--out", "out"]) == 1
        assert error_line(capsys) == {
            "command": "cluster",
            "error": "bad.jsonl: record 5, a non-FOSD anomaly with features, has no id"}
        assert not os.path.exists("out")

    @pytest.mark.parametrize("model", [{}, [1, 2]], ids=["empty-object", "list"])
    def test_model_file_that_is_json_but_not_a_model(self, model, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("model.json").write_text(json.dumps(model))
        Path("cfg.json").write_text(json.dumps(
            {"predictor": {"kind": "mlp", "model_path": "model.json"}}))
        assert run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                            "--out", "out"]) == 1
        error = error_line(capsys)
        assert error["command"] == "adversarial"
        assert error["error"].startswith("model.json: not an MLP model (")
        assert not os.path.exists("out")

    def test_model_file_that_is_not_json(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("model.json").write_text("{oops")
        Path("cfg.json").write_text(json.dumps(
            {"predictor": {"kind": "mlp", "model_path": "model.json"}}))
        assert run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                            "--out", "out"]) == 1
        assert error_line(capsys)["error"].startswith("model.json: not an MLP model (")
        assert not os.path.exists("out")

    def test_jsonl_string_with_a_unicode_line_break(self, tmp_path):
        # A JSON string may hold U+2028, U+2029 or U+0085 raw; a JSONL line
        # ends at a newline only.
        rec = {"id": "a\u2028b\u2029c\x85d"}
        path = tmp_path / "r.jsonl"
        path.write_text('{"kind": "candidates", "version": 1}\n'
                        + json.dumps(rec, ensure_ascii=False) + "\n", encoding="utf-8")
        assert read_jsonl(path) == ({"kind": "candidates", "version": 1}, [rec])

    def test_read_jsonl_returns_a_list_of_objects(self, tmp_path):
        write_jsonl(tmp_path / "r.jsonl", [{"id": "a"}, {"id": "b"}], kind="candidates")
        assert read_jsonl(tmp_path / "r.jsonl") == (
            {"kind": "candidates", "version": 1}, [{"id": "a"}, {"id": "b"}])

    def test_a_null_category_is_a_missing_one(self, tmp_path, capsys):
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 8)
        _, recs = read_jsonl("cat.jsonl")
        recs[0]["category"] = {"tag": "fosd", "certificate": {}}
        for rec in recs[1:4]:
            rec["category"] = None
        write_jsonl("null.jsonl", recs, kind="categorized")
        for rec in recs[1:4]:
            del rec["category"]
        write_jsonl("missing.jsonl", recs, kind="categorized")
        for name in ("null", "missing"):
            run_ok(["report", "--in", f"{name}.jsonl", "--out", f"{name}.csv"], capsys)
            run_ok(["cluster", "--in", f"{name}.jsonl", "--k", "2", "--seed", "0",
                    "--out", f"{name}-cl.csv"], capsys)
        assert Path("null.csv").read_bytes() == Path("missing.csv").read_bytes()
        assert "other,7\n" in Path("null.csv").read_text()
        assert Path("null-cl.csv").read_bytes() == Path("missing-cl.csv").read_bytes()
        assert [r["id"] for r in cli.cluster_rows(read_jsonl("null.jsonl")[1])] == \
            [r["id"] for r in recs[1:]]


class TestStageTiming:
    def test_summaries_carry_timing_and_records_do_not(self, tmp_path, capsys):
        os.chdir(tmp_path)
        timing = {"elapsed_s", "runs_per_s", "records_per_s"}
        summaries = [run_ok([proc, "--inits", "2", "--seed", "1", "--out", f"{proc}.jsonl"],
                            capsys) for proc in ("adversarial", "morph", "baseline")]
        assert all(s["runs_per_s"] > 0 for s in summaries)
        summaries.append(run_ok(["verify", "--in", "adversarial.jsonl", "--out", "v.jsonl"],
                                capsys))
        summaries.append(run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"],
                                capsys))
        write_anomalies("anomalies.jsonl", 6)
        summaries.append(run_ok(["cluster", "--in", "anomalies.jsonl", "--k", "2",
                                 "--out", "cl.csv"], capsys))
        summaries.append(run_ok(["report", "--in", "c.jsonl", "--out", "r.csv"], capsys))
        assert all(s["records_per_s"] > 0 for s in summaries[3:])
        assert all(s["elapsed_s"] >= 0 for s in summaries)
        for path in ("adversarial.jsonl", "morph.jsonl", "baseline.jsonl", "v.jsonl",
                     "c.jsonl"):
            header, recs = read_jsonl(path)
            assert recs and not timing & set(header)
            assert all(not timing & set(rec) for rec in recs)
        for path in ("cl.csv", "r.csv"):
            assert not timing & set(Path(path).read_text().replace("\n", ",").split(","))

    def test_data_and_model_summaries_carry_timing(self, tmp_path, capsys, allais_menus):
        os.chdir(tmp_path)
        timing = {"elapsed_s", "rows_per_s", "menus_per_s"}
        summaries = [run_ok(["simulate", "--n", "50", "--seed", "1", "--kind", "rate",
                             "--out", "d.csv"], capsys),
                     run_ok(["train-mlp", "--in", "d.csv", "--hidden", "4", "--epochs", "2",
                             "--out", "m.json"], capsys),
                     run_ok(["fit-cpt", "--in", "d.csv", "--out", "f.json"], capsys)]
        assert all(s["rows_per_s"] > 0 for s in summaries)
        Path("freqs.csv").write_text(
            "pattern_00,pattern_01,pattern_10,pattern_11\n45,5,5,45\n")
        Path("menus.json").write_text(json.dumps([menu_json(m) for m in allais_menus]))
        summaries.append(run_ok(["epsilon", "--freqs", "freqs.csv", "--menus", "menus.json"],
                                capsys))
        assert summaries[-1]["menus_per_s"] > 0
        assert all(s["elapsed_s"] >= 0 for s in summaries)
        assert not timing & set(Path("d.csv").read_text().splitlines()[0].split(","))
        for path in ("m.json", "f.json"):
            assert not timing & set(json.loads(Path(path).read_text()))


class TestRankTolBound:
    def test_smallest_cutoff_accepted_and_below_rejected(self, tmp_path, capsys):
        assert MIN_RANK_TOL == 1e-2
        assert parse_config({"morph": {"rank_tol": 1e-2}}).morph.rank_tol == 1e-2
        with pytest.raises(ConfigError, match="morph.rank_tol"):
            parse_config({"morph": {"rank_tol": 9.9e-3}})
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"morph": {"rank_tol": 9.9e-3}}))
        rc = run_command(["morph", "--config", "cfg.json", "--inits", "1", "--out", "m.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "morph.rank_tol" in json.loads(err[0])["error"]
        assert not os.path.exists("m.jsonl")

    def test_smallest_cutoff_keeps_rank_within_tangent_space(self):
        # The span is taken in tangent coordinates, so the retained rank is
        # at most 2J - 2 = 2 for J = 2, even at the smallest accepted cutoff.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = parse_config({"seed": 6, "morph": {"rank_tol": MIN_RANK_TOL}})
        ranks = [r["retained_rank"]
                 for r in morphing.run_morph_indices(pred, cfg, range(12))]
        assert all(r is not None and r <= 2 for r in ranks)


def _block_chunk(tag, block):
    """One item per block, naming the block: what ``cli._fan_out`` cut."""
    return [(tag, list(block))]


def _block_length(block):
    """The length of the block ``cli._fan_out`` cut, as its one item."""
    return [len(block)]


class _Item:
    """An item a weak reference can follow."""


class _Read(concurrent.futures.Future):
    """A future that books with its pool when its result is read."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.unread -= 1
        return super().result(timeout)


class _CountingPool(concurrent.futures.Executor):
    """An in-process stand-in for ``ProcessPoolExecutor``: it runs each block
    as it is submitted and counts the blocks submitted but not yet read."""

    def __init__(self):
        self.submitted, self.unread, self.most_unread = [], 0, 0

    def submit(self, fn, *args):
        future = _Read(self)
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        self.submitted.append(args[-1])
        self.unread += 1
        self.most_unread = max(self.most_unread, self.unread)
        return future


class TestStreaming:
    """Generation and verification cut their input into consecutive blocks
    and write each block's records as soon as the block is done."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """The one pool ``cli._fan_out`` opens, cutting blocks of 3."""
        pool = _CountingPool()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: pool)
        monkeypatch.setattr(cli, "_RUN_BLOCK", 3)
        return pool

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 513])
    @pytest.mark.parametrize("items", [lambda n: list(range(n)), range,
                                       lambda n: (i for i in range(n))],
                             ids=["list", "range", "generator"])
    def test_any_iterable_is_cut_as_its_count_asks(self, items, n, workers):
        # A generator has no len(): its first items are counted as read.
        size = min(cli._RUN_BLOCK, math.ceil(n / workers))
        cuts = [size] * (n // size) + [n % size] * (n % size > 0)
        assert list(cli._fan_out(_block_length, (), items(n), workers)) == cuts

    def test_one_worker_runs_a_block_when_its_records_are_read(self, monkeypatch):
        monkeypatch.setattr(cli, "_RUN_BLOCK", 4)
        ran = []

        def chunk(tag, block):
            ran.append(list(block))
            return [f"{tag}{i}" for i in block]

        stream = cli._fan_out(chunk, ("r",), range(10), 1)
        assert next(stream) == "r0"
        assert ran == [[0, 1, 2, 3]]
        assert list(stream) == [f"r{i}" for i in range(1, 10)]
        assert ran == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    @pytest.mark.parametrize("workers, blocks", [
        (2, [range(0, 7), range(7, 14), range(14, 17)]),
        (3, [range(0, 6), range(6, 12), range(12, 17)])])
    def test_blocks_are_consecutive_and_come_back_in_order(self, monkeypatch,
                                                           workers, blocks):
        monkeypatch.setattr(cli, "_RUN_BLOCK", 7)
        assert list(cli._fan_out(_block_chunk, ("r",), range(17), workers)) == [
            ("r", list(b)) for b in blocks]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_pool_holds_at_most_two_blocks_per_worker(self, pool, workers):
        # 40 items in blocks of 3: 14 blocks, every one back in order.
        assert list(cli._fan_out(_block_chunk, ("r",), range(40), workers)) == [
            ("r", list(range(i, min(i + 3, 40)))) for i in range(0, 40, 3)]
        assert len(pool.submitted) == 14
        assert pool.most_unread == 2 * workers
        assert pool.unread == 0

    def test_a_failing_block_stops_the_pool_within_its_window(self, pool):
        def chunk(block):
            if block[0] == 6:
                raise RuntimeError("block 2 failed")
            return block

        with pytest.raises(RuntimeError, match="block 2 failed"):
            list(cli._fan_out(chunk, (), range(40), 2))
        blocks = [b[0] for b in pool.submitted]
        assert blocks[:3] == [0, 3, 6]
        assert len(blocks) - 3 <= 2 * 2

    def test_one_worker_frees_the_items_it_read_ahead(self, monkeypatch):
        monkeypatch.setattr(cli, "_RUN_BLOCK", 4)
        refs = []

        def items():
            for _ in range(12):
                item = _Item()
                refs.append(weakref.ref(item))
                yield item

        # One worker reads one block ahead, items 0-3, to size its blocks:
        # reading the second block passes them, and nothing holds them then.
        stream = cli._fan_out(_block_length, (), items(), 1)
        assert [next(stream), next(stream)] == [4, 4]
        gc.collect()
        assert len(refs) == 8
        assert [ref() for ref in refs[:4]] == [None] * 4

    def test_failing_record_stream_leaves_no_file(self, tmp_path):
        def recs():
            yield {"id": 0}
            yield {"id": 1}
            raise RuntimeError("run 2 failed")

        with pytest.raises(RuntimeError, match="run 2 failed"):
            write_jsonl(tmp_path / "c.jsonl", recs(), kind="candidates")
        assert list(tmp_path.iterdir()) == []

    def test_run_failing_after_a_written_block_leaves_no_file(self, tmp_path, capsys,
                                                              monkeypatch):
        os.chdir(tmp_path)
        monkeypatch.setattr(cli, "_RUN_BLOCK", 2)
        predict_batch = CptPredictor.predict_batch
        blocks = []

        def fail_at_five(self, Z, P):
            # One call per block of 2 runs, 2 menus each: the third holds run 5.
            blocks.append(len(Z))
            if len(blocks) == 3:
                raise ValueError("run 5 failed")
            return predict_batch(self, Z, P)

        monkeypatch.setattr(CptPredictor, "predict_batch", fail_at_five)
        assert run_command(["baseline", "--inits", "8", "--out", "b.jsonl"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "run 5 failed"
        assert os.listdir() == []

    def test_verify_reads_a_block_only_after_writing_the_last(self, tmp_path, capsys,
                                                             monkeypatch):
        os.chdir(tmp_path)
        monkeypatch.setattr(cli, "_RUN_BLOCK", 4)
        run_ok(["baseline", "--inits", "10", "--out", "c.jsonl"], capsys)
        events = []
        read, write = records.read_lines, records.write_jsonl

        def read_tapped(path, expected_kind=None):
            for i, pair in enumerate(read(path, expected_kind)):
                events.append(("read", i))
                yield pair

        def write_tapped(path, stream, kind):
            write(path, (events.append(("write", i)) or rec
                         for i, rec in enumerate(stream, 1)), kind)

        monkeypatch.setattr(records, "read_lines", read_tapped)
        monkeypatch.setattr(records, "write_jsonl", write_tapped)
        run_ok(["verify", "--in", "c.jsonl", "--workers", "1", "--out", "v.jsonl"], capsys)
        assert events == [("read", 0)] + [(event, i) for block in ((1, 5), (5, 9), (9, 11))
                                          for event in ("read", "write")
                                          for i in range(*block)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("bad", ["line", "menus"])
    def test_a_bad_record_after_the_first_block_leaves_nothing(self, bad, workers, tmp_path,
                                                              capsys, monkeypatch):
        # Blocks of 4: the ninth record is in the third block, which one
        # worker reads only after writing the first two.
        os.chdir(tmp_path)
        monkeypatch.setattr(cli, "_RUN_BLOCK", 4)
        run_ok(["baseline", "--inits", "10", "--out", "c.jsonl"], capsys)
        lines = Path("c.jsonl").read_text().splitlines()
        if bad == "line":
            lines[9] = "{oops"
        else:
            rec = json.loads(lines[9])
            del rec["menus"][0]["lottery1"]
            lines[9] = json.dumps(rec)
        Path("c.jsonl").write_text("\n".join(lines) + "\n")
        assert run_command(["verify", "--in", "c.jsonl", "--workers", workers,
                            "--out", "v.jsonl"]) == 1
        error = error_line(capsys)
        assert error["command"] == "verify"
        assert error["error"].startswith("c.jsonl: line 10 is not valid JSON (" if bad == "line"
                                         else "record 'baseline-000008': malformed menus")
        assert os.listdir() == ["c.jsonl"]

    def test_predictor_is_built_once(self, tmp_path, capsys, monkeypatch):
        os.chdir(tmp_path)
        monkeypatch.setattr(cli, "_RUN_BLOCK", 2)
        built = []

        def build(section):
            built.append(section.kind)
            return build_predictor(section)

        monkeypatch.setattr(cli, "build_predictor", build)
        run_ok(["baseline", "--inits", "6", "--workers", "2", "--out", "b.jsonl"], capsys)
        assert built == ["cpt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_outputs_get_the_mode_open_gives(self, umask, tmp_path, capsys):
        os.chdir(tmp_path)
        old = os.umask(umask)
        try:
            run_ok(["baseline", "--inits", "2", "--out", "b.jsonl"], capsys)
            write_jsonl("w.jsonl", [{"id": 0}], kind="candidates")
            with open("plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE(os.stat(name).st_mode)
                 for name in ("b.jsonl", "w.jsonl", "plain.txt")}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)

    def test_categorize_writes_each_record_as_it_is_categorized(self, tmp_path, capsys,
                                                                monkeypatch):
        os.chdir(tmp_path)
        write_anomalies("c.jsonl", 6)
        _, recs = read_jsonl("c.jsonl")
        write_jsonl("v.jsonl", [{k: v for k, v in r.items()
                                 if k not in ("category", "features")} for r in recs],
                    kind="verified")
        categorized, seen = [], []
        monkeypatch.setattr(sys.modules["anomgen.categorize"], "categorize",
                            lambda coll: categorized.append(coll) or categorize(coll))
        write = records.write_jsonl

        def tapped(path, stream, kind):
            def tap():
                for rec in stream:
                    seen.append(len(categorized))
                    yield rec
            write(path, tap(), kind)

        monkeypatch.setattr(records, "write_jsonl", tapped)
        summary = run_ok(["categorize", "--in", "v.jsonl", "--out", "o.jsonl"], capsys)
        assert seen == [1, 2, 3, 4, 5, 6]
        assert summary["records"] == 6 and sum(summary["category_counts"].values()) == 6
        assert [r["category"]["tag"] for r in read_jsonl("o.jsonl")[1]] == \
            [categorize(c).tag for c in categorized]

    def test_missing_model_exits_1_with_no_output(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(
            {"predictor": {"kind": "mlp", "model_path": "absent.json"}}))
        rc = run_command(["adversarial", "--config", "cfg.json", "--inits", "2",
                          "--workers", "2", "--out", "a.jsonl"])
        assert rc == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert os.listdir() == ["cfg.json"]


# Records whose values hold what JSON writes specially: NaN, infinities,
# non-ASCII and control characters, and nested lists.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


class TestLinePassThrough:
    """``categorize`` writes each record it does not change as the line it
    read, and every JSONL line is written by one encoder."""

    @staticmethod
    def golden_lines():
        """The golden verified stream's lines: header, 8 anomalies, then one
        consistent pair."""
        return (DATA / "golden_tags_verified.jsonl").read_text().splitlines()

    @staticmethod
    def loose(line):
        """``line`` as a person might edit it: unsorted keys, extra spaces
        and a float spelled ``1.0e0``."""
        return '{ "zz_note" : 1.0e0 ,  ' + line[1:-1].replace('": ', '" :  ') + ' }'

    def test_an_unchanged_line_keeps_its_bytes_and_an_anomaly_is_rewritten(self, tmp_path,
                                                                          capsys):
        os.chdir(tmp_path)
        lines = self.golden_lines()
        consistent, anomaly = self.loose(lines[9]), self.loose(lines[1])
        assert json.loads(consistent)["any_utility_inconsistent"] is False
        Path("v.jsonl").write_text("\n".join([lines[0], consistent, anomaly]) + "\n")
        summary = run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"], capsys)
        assert (summary["records"], summary["category_counts"]) == \
            (2, {"dominated_consequence": 1})
        golden = (DATA / "golden_tags_categorized.jsonl").read_text().splitlines()
        rewritten = {**json.loads(golden[1]), "zz_note": 1.0}
        assert Path("c.jsonl").read_text().splitlines() == [
            golden[0], consistent, json.dumps(rewritten, sort_keys=True)]

    def test_a_record_without_a_verdict_passes_through(self, tmp_path, capsys):
        os.chdir(tmp_path)
        line = '{"id": "hand-000000",   "b": [1.50, 2e3], "a": "é"}'
        Path("v.jsonl").write_text(self.golden_lines()[0] + "\n" + line + "\n",
                                   encoding="utf-8")
        assert run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"],
                      capsys)["category_counts"] == {}
        assert Path("c.jsonl").read_text(encoding="utf-8").splitlines()[1] == line

    def test_a_crlf_line_comes_out_ending_in_lf(self, tmp_path, capsys):
        os.chdir(tmp_path)
        lines = self.golden_lines()
        Path("v.jsonl").write_bytes("\r\n".join([lines[0], lines[9], lines[8]]).encode()
                                    + b"\r\n")
        run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"], capsys)
        golden = (DATA / "golden_tags_categorized.jsonl").read_bytes().split(b"\n")
        assert Path("c.jsonl").read_bytes() == b"\n".join(
            [golden[0], lines[9].encode(), golden[8], b""])

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), _json_values, max_size=6))
    def test_the_shared_encoder_writes_what_dumps_writes(self, rec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            write_jsonl(path, [rec, rec], kind="candidates")
            with open(path, encoding="utf-8", newline="") as fh:
                written = fh.read()
        line = json.dumps(rec, sort_keys=True)
        assert written == f'{{"kind": "candidates", "version": 1}}\n{line}\n{line}\n'

    def test_categorize_reads_a_record_only_after_writing_the_last(self, tmp_path, capsys,
                                                                  monkeypatch):
        os.chdir(tmp_path)
        Path("v.jsonl").write_text((DATA / "golden_tags_verified.jsonl").read_text())
        events = []
        read, write = records.read_lines, records.write_jsonl

        def read_tapped(path, expected_kind=None):
            for i, pair in enumerate(read(path, expected_kind)):
                events.append(("read", i))
                yield pair

        def write_tapped(path, stream, kind):
            write(path, (events.append(("write", i)) or rec
                         for i, rec in enumerate(stream, 1)), kind)

        monkeypatch.setattr(records, "read_lines", read_tapped)
        monkeypatch.setattr(records, "write_jsonl", write_tapped)
        run_ok(["categorize", "--in", "v.jsonl", "--out", "c.jsonl"], capsys)
        assert events == [("read", 0)] + [e for i in range(1, 10)
                                          for e in (("read", i), ("write", i))]

    @pytest.mark.parametrize("command", ["categorize", "report"])
    def test_a_raw_line_separator_reads_and_writes_in_any_locale(self, command, tmp_path):
        # Under the C locale Python's default encoding is ASCII; files are
        # UTF-8 whatever it is.
        lines = self.golden_lines()
        header = lines[0] if command == "categorize" else '{"kind": "categorized", "version": 1}'
        rec = {**json.loads(lines[9]), "id": "consistent 000000"}
        line = json.dumps(rec, sort_keys=True, ensure_ascii=False)
        (tmp_path / "in.jsonl").write_text(f"{header}\n{line}\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", "from anomgen.cli import main; main()", command,
             "--in", "in.jsonl", "--out", "out"],
            cwd=tmp_path, env=cli_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["records"] == 1
        if command == "categorize":
            assert (tmp_path / "out").read_bytes().split(b"\n")[1] == line.encode()


class TestParser:
    def test_two_commands_build_one_parser(self, tmp_path, capsys):
        os.chdir(tmp_path)
        cli.build_parser.cache_clear()
        run_ok(["baseline", "--inits", "2", "--out", "b.jsonl"], capsys)
        run_ok(["verify", "--in", "b.jsonl", "--out", "v.jsonl"], capsys)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_shared_flags_only_where_a_command_reads_them(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        takes = {flag: {name for name, p in commands.items()
                        if any(flag in a.option_strings for a in p._actions)}
                 for flag in ("--config", "--seed", "--workers")}
        generators = {"adversarial", "morph", "baseline"}
        assert takes == {"--config": generators | {"verify", "simulate", "fit-cpt"},
                         "--seed": generators | {"simulate", "cluster", "train-mlp"},
                         "--workers": generators | {"verify"}}


class TestGenerationReference:
    """Generated records equal the object path's (``conftest``): menus drawn
    one by one, one-row predictions and the record built field by field.
    Blocks and workers move no byte."""

    @pytest.mark.parametrize("n_payoffs", [2, 3])
    @pytest.mark.parametrize("kind", ["cpt", "mlp"])
    @pytest.mark.parametrize("procedure", ["baseline", "adversarial", "morph"])
    def test_records_match_the_object_path(self, procedure, kind, n_payoffs, tmp_path,
                                           capsys, monkeypatch):
        os.chdir(tmp_path)
        raw = {"n_payoffs": n_payoffs, "adversarial": {"max_iters": 5},
               "morph": {"max_iters": 5, "n_gradient_samples": 300}}
        if kind == "mlp":
            MlpModel.init_random([4 * n_payoffs, 8, 1], menu_input_scaling(n_payoffs),
                                 seed=4).save("model.json")
            raw["predictor"] = {"kind": "mlp", "model_path": "model.json"}
        Path("cfg.json").write_text(json.dumps(raw))
        outputs = {}
        for block in (1, 7, 256):
            monkeypatch.setattr(cli, "_RUN_BLOCK", block)
            for workers in (1, 2):
                out = f"g-{block}-{workers}.jsonl"
                run_ok([procedure, "--config", "cfg.json", "--inits", "16", "--seed", "3",
                        "--workers", str(workers), "--out", out], capsys)
                outputs[block, workers] = Path(out).read_bytes()
        assert len(set(outputs.values())) == 1
        cfg = load_config("cfg.json")
        predictor = build_predictor(cfg.predictor)
        lines = Path("g-7-1.jsonl").read_text().splitlines()[1:]
        assert len(lines) == 16
        for line in lines:
            rec = json.loads(line)
            assert line == json.dumps(
                reference_generated_record(predictor, cfg, procedure, rec), sort_keys=True)

    @pytest.mark.parametrize("n_payoffs", [2, 3])
    def test_an_empty_block_gives_no_records(self, n_payoffs):
        cfg = parse_config({"n_payoffs": n_payoffs})
        predictor = CptPredictor(CptParams.preset("bruhin-b"))
        for generate in (run_adversarial_indices, morphing.run_morph_indices,
                         analysis.run_baseline_indices):
            assert generate(predictor, cfg, []) == []


class TestLockstepBytes:
    """Search candidates depend only on (master seed, run index): the
    CLI's block size and the worker count move no byte."""

    @pytest.mark.parametrize("kind, procedure",
                             [("cpt", "adversarial"), ("mlp", "adversarial"),
                              ("cpt", "morph"), ("mlp", "morph")],
                             ids=["cpt", "mlp", "cpt-morph", "mlp-morph"])
    def test_block_size_and_workers_move_no_byte(self, kind, procedure, tmp_path,
                                                 capsys, monkeypatch):
        os.chdir(tmp_path)
        cfg = {procedure: {"max_iters": 50}}
        if kind == "mlp":
            MlpModel.init_random([8, 16, 16, 1], menu_input_scaling(2), seed=3).save(
                "model.json")
            cfg["predictor"] = {"kind": "mlp", "model_path": "model.json"}
        Path("cfg.json").write_text(json.dumps(cfg))
        outputs = {}
        # A morph block of 256 (the default) stacks every run at one worker.
        for block in (1, 7, 64) + ((256,) if procedure == "morph" else ()):
            monkeypatch.setattr(cli, "_RUN_BLOCK", block)
            for workers in (1, 2):
                out = f"a-{block}-{workers}.jsonl"
                run_ok([procedure, "--config", "cfg.json", "--inits", "70",
                        "--seed", "9", "--workers", str(workers), "--out", out], capsys)
                outputs[block, workers] = Path(out).read_bytes()
        assert len(set(outputs.values())) == 1
        _, recs = read_jsonl("a-64-1.jsonl")
        if procedure == "adversarial":
            assert sum(r["iterations"] == 50 for r in recs) > 60
        else:
            # Blocks of 7 and 64 hold runs that stop while others go on.
            assert len({r["iterations"] for r in recs}) > 5


    @pytest.mark.parametrize("samples", [2_000, 200_000])
    def test_stacks_move_no_morph_byte(self, samples, tmp_path, capsys, monkeypatch):
        # Every drawing step of a run maps the seed's normals: a run's bytes
        # do not depend on the runs stacked with it, on the block of runs or
        # on the worker count, over runs of several steps.
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(
            {"morph": {"n_gradient_samples": samples, "max_iters": 3}}))
        argv = ["morph", "--config", "cfg.json", "--inits", "9", "--seed", "4"]
        outputs = {}
        for block in (1, 7, 256):
            monkeypatch.setattr(cli, "_RUN_BLOCK", block)
            for workers in (1, 2):
                out = f"m-{block}-{workers}.jsonl"
                run_ok(argv + ["--workers", str(workers), "--out", out], capsys)
                outputs[out] = Path(out).read_bytes()
        # A process held to one CPU writes the same bytes.
        proc = subprocess.run(
            ["taskset", "-c", str(min(os.sched_getaffinity(0))), sys.executable, "-c",
             "from anomgen.cli import main; main()", *argv, "--out", "m-cpu.jsonl"],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs["m-cpu.jsonl"] = Path("m-cpu.jsonl").read_bytes()
        assert len(set(outputs.values())) == 1, list(outputs)
        # Some runs kept draws at more than one step, and some steps were quiet.
        _, recs = read_jsonl("m-1-1.jsonl")
        assert any(r["iterations"] - r["certified_steps"] >= 2 for r in recs)
        assert any(r["certified_steps"] > 0 for r in recs)


class TestCommandFlags:
    """Each subcommand takes only the shared flags it reads."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A verified and a categorized baseline, and a choice dataset."""
        path, cwd = tmp_path_factory.mktemp("inputs"), os.getcwd()
        os.chdir(path)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["baseline", "--inits", "20", "--seed", "1", "--out", "b.jsonl"],
                         ["verify", "--in", "b.jsonl", "--out", "v.jsonl"],
                         ["categorize", "--in", "v.jsonl", "--out", "c.jsonl"],
                         ["simulate", "--n", "50", "--seed", "1", "--out", "d.csv"]):
                assert run_command(argv) == 0
        os.chdir(cwd)
        return path

    @pytest.mark.parametrize("argv", [
        ["verify", "--in", "b.jsonl", "--seed", "1"],
        ["categorize", "--in", "v.jsonl", "--workers", "2"],
        ["categorize", "--in", "v.jsonl", "--seed", "1"],
        ["cluster", "--in", "c.jsonl", "--workers", "2"],
        ["report", "--in", "c.jsonl", "--seed", "1"],
        ["report", "--in", "c.jsonl", "--workers", "2"],
        ["simulate", "--n", "5", "--workers", "2"],
        ["train-mlp", "--in", "d.csv", "--workers", "2"],
        ["fit-cpt", "--in", "d.csv", "--seed", "1"],
        ["fit-cpt", "--in", "d.csv", "--workers", "2"],
    ], ids=" ".join)
    def test_flag_a_command_does_not_read_is_rejected(self, argv, inputs, tmp_path, capsys):
        os.chdir(tmp_path)
        argv = [str(inputs / a) if a.endswith((".jsonl", ".csv")) else a for a in argv]
        assert run_command([*argv, "--out", "out"]) != 0
        assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir() == []

    @pytest.mark.parametrize("argv", [
        ["adversarial", "--inits", "1"], ["morph", "--inits", "1"], ["baseline", "--inits", "1"],
        ["simulate", "--n", "5"], ["cluster", "--in", "c.jsonl"],
        ["train-mlp", "--in", "d.csv"]], ids=lambda argv: argv[0])
    def test_negative_seed_is_named(self, argv, inputs, tmp_path, capsys):
        os.chdir(tmp_path)
        argv = [str(inputs / a) if a.endswith((".jsonl", ".csv")) else a for a in argv]
        assert run_command([*argv, "--seed", "-1", "--out", "out"]) == 1
        assert _error_line(capsys) == {"command": argv[0], "error": "--seed: invalid value -1"}
        assert os.listdir() == []


class TestTrainMlpFlags:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        os.chdir(tmp_path)
        run_ok(["simulate", "--n", "100", "--seed", "1", "--kind", "rate",
                "--out", "d.csv"], capsys)
        return "d.csv"

    @pytest.mark.parametrize("flag, value, error", [
        ("--batch-size", "0", "batch_size: invalid value 0"),
        ("--batch-size", "-3", "batch_size: invalid value -3"),
        ("--epochs", "-1", "epochs: invalid value -1"),
        ("--step-size", "0", "step_size: invalid value 0.0"),
        ("--step-size", "-0.5", "step_size: invalid value -0.5")])
    def test_invalid_training_value_is_named(self, flag, value, error, dataset, capsys):
        assert run_command(["train-mlp", "--in", dataset, flag, value, "--out", "m.json"]) == 1
        assert _error_line(capsys) == {"command": "train-mlp", "error": error}
        assert not os.path.exists("m.json")

    @pytest.mark.parametrize("hidden, field", [
        ("0", "0"), ("-2", "-2"), ("8,0", "0"), ("x", "x"), ("8,2.5", "2.5")])
    def test_invalid_hidden_width_is_named(self, hidden, field, dataset, capsys):
        assert run_command(["train-mlp", "--in", dataset, f"--hidden={hidden}",
                            "--out", "m.json"]) == 1
        assert _error_line(capsys) == {"command": "train-mlp",
                                       "error": f"--hidden: invalid value {field!r}"}
        assert not os.path.exists("m.json")

    def test_batch_size_reaches_training(self, dataset, capsys, monkeypatch):
        import anomgen.predictor as predictor_mod
        sizes, backprop = [], predictor_mod._backprop

        def recording(model, X, y, w):
            sizes.append(len(X))
            return backprop(model, X, y, w)

        monkeypatch.setattr(predictor_mod, "_backprop", recording)
        run_ok(["train-mlp", "--in", dataset, "--hidden", "4", "--epochs", "2",
                "--batch-size", "30", "--out", "m.json"], capsys)
        assert sizes == [30, 30, 30, 10] * 2


class TestConfiguredValuesReachTheirCode:
    @pytest.mark.parametrize("procedure, raw", [
        ("morph", {"theory": {"basis": {"domain": [0, 5]}},
                   "morph": {"max_iters": 5}}),
        ("adversarial", {"theory": {"basis": {"domain": [0, 5e6]}}}),
        ("baseline", {"theory": {"basis": {"domain": [0, 5e6]}}})],
        ids=["morph", "adversarial", "baseline"])
    def test_generated_menus_verify_on_the_theory_domain(self, procedure, raw, tmp_path,
                                                         capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(raw))
        run_ok([procedure, "--config", "cfg.json", "--inits", "4", "--seed", "1",
                "--out", "c.jsonl"], capsys)
        summary = run_ok(["verify", "--config", "cfg.json", "--in", "c.jsonl",
                          "--out", "v.jsonl"], capsys)
        assert summary["records"] == 4
        low, high = raw["theory"]["basis"]["domain"]
        Z = np.array([record_to_collection(r).Z for r in read_jsonl("v.jsonl")[1]])
        assert low <= Z.min() and Z.max() <= high and Z.max() > high / 2

    def test_kl_threshold_above_min_kl_flips_the_verdict(self, tmp_path, capsys):
        # Seed 3, run 0 fits no logit-EUT model to within a mean KL of 0.0155.
        os.chdir(tmp_path)
        run_ok(["adversarial", "--inits", "2", "--seed", "3", "--out", "c.jsonl"], capsys)
        run_ok(["verify", "--in", "c.jsonl", "--out", "v.jsonl"], capsys)
        Path("cfg.json").write_text(json.dumps({"verification": {"kl_threshold": 0.02}}))
        run_ok(["verify", "--in", "c.jsonl", "--config", "cfg.json", "--out", "v2.jsonl"],
               capsys)
        (_, default), (_, raised) = read_jsonl("v.jsonl"), read_jsonl("v2.jsonl")
        assert default[0]["parametrized_inconsistent"]
        assert 1e-5 < default[0]["min_kl"] < 0.02
        assert not raised[0]["parametrized_inconsistent"]
        assert [r["min_kl"] for r in raised] == [r["min_kl"] for r in default]

    def test_predictor_scale_reaches_baseline_predictions(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"scale": 2}}))
        run_ok(["baseline", "--config", "cfg.json", "--inits", "20", "--seed", "1",
                "--out", "b2.jsonl"], capsys)
        run_ok(["baseline", "--inits", "20", "--seed", "1", "--out", "b1.jsonl"], capsys)
        params = CptParams.preset("bruhin-b")
        for path, scale in (("b2.jsonl", 2.0), ("b1.jsonl", 1.0)):
            colls = [record_to_collection(r) for r in read_jsonl(path)[1]]
            Z, P = (np.concatenate([getattr(c, k) for c in colls]) for k in "ZP")
            V = lottery_values(Z, P, params)
            np.testing.assert_array_equal(np.concatenate([c.q for c in colls]),
                                          logistic(scale * (V[:, 1] - V[:, 0])))
        assert Path("b2.jsonl").read_bytes() != Path("b1.jsonl").read_bytes()

    def test_predictor_scale_reaches_simulate(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"scale": 2}}))
        run_ok(["simulate", "--config", "cfg.json", "--n", "40", "--seed", "4",
                "--kind", "rate", "--count", "50", "--out", "d.csv"], capsys)
        got = load_dataset("d.csv")
        for scale in (2.0, 1.0):
            rng = run_rng(4, 0)
            Z, P = draw_menus(rng, 40, 2, *parse_config({}).theory_basis["domain"])
            oracle = CptPredictor(CptParams.preset("bruhin-b"), scale=scale)
            want = simulate_choices(rng, oracle, Z, P, kind="rate", count=50)
            assert (want.outcomes.tobytes() == got.outcomes.tobytes()) is (scale == 2.0)

    def test_predictor_scale_reaches_fit_cpt(self, tmp_path, capsys):
        # fit-cpt fits at the config's scale: on choices simulated at scale 2
        # it recovers the preset, where a scale-1 fit reads delta near 1.9.
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"scale": 2}}))
        run_ok(["simulate", "--config", "cfg.json", "--n", "20000", "--seed", "1",
                "--out", "d.csv"], capsys)
        fit = run_ok(["fit-cpt", "--config", "cfg.json", "--in", "d.csv", "--out", "fit.json"],
                     capsys)
        want = fit_cpt_params(load_dataset("d.csv"), scale=2.0).params
        assert (fit["delta"], fit["gamma"], fit["scale"]) == (want.delta, want.gamma, 2)
        assert json.loads(Path("fit.json").read_text()) == {
            "delta": want.delta, "gamma": want.gamma, "kind": "cpt", "scale": 2}
        assert fit["converged"]
        assert fit["delta"] == pytest.approx(0.726, abs=0.05)
        assert fit["gamma"] == pytest.approx(0.309, abs=0.05)
        fit1 = run_ok(["fit-cpt", "--in", "d.csv", "--out", "fit1.json"], capsys)
        assert fit1["delta"] > 1.5 and fit1["scale"] == 1.0
        # The written file, used as a predictor section, is the oracle at its
        # pair and the scale it was fitted at.
        Z, P = draw_menus(run_rng(2, 0), 200, 2, 0, 10)
        for path, scale in (("fit.json", 2.0), ("fit1.json", 1.0)):
            section = json.loads(Path(path).read_text())
            got = build_predictor(parse_config({"predictor": section}).predictor)
            oracle = CptPredictor(CptParams(section["delta"], section["gamma"]), scale=scale)
            assert got.predict_batch(Z, P).tobytes() == oracle.predict_batch(Z, P).tobytes()

    def test_simulate_draws_from_the_configured_mlp(self, tmp_path, capsys):
        os.chdir(tmp_path)
        model = MlpModel.init_random([8, 4, 1], menu_input_scaling(2), seed=3)
        model.save("m.json")
        Path("mlp.json").write_text(json.dumps(
            {"predictor": {"kind": "mlp", "model_path": "m.json"}}))
        summary = run_ok(["simulate", "--config", "mlp.json", "--n", "300", "--seed", "1",
                          "--kind", "rate", "--count", "20", "--out", "d.csv"], capsys)
        assert summary["predictor"] == "mlp:m.json"
        run_ok(["simulate", "--n", "300", "--seed", "1", "--kind", "rate", "--count", "20",
                "--out", "preset.csv"], capsys)
        assert Path("d.csv").read_bytes() != Path("preset.csv").read_bytes()
        rng = run_rng(1, 0)
        Z, P = draw_menus(rng, 300, 2, *parse_config({}).theory_basis["domain"])
        want = simulate_choices(rng, MlpPredictor(MlpModel.load("m.json")), Z, P, kind="rate",
                                count=20)
        assert load_dataset("d.csv").outcomes.tobytes() == want.outcomes.tobytes()
