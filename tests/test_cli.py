import csv
import json
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anomgen import cli, morphing, records
from anomgen.adversarial import GdaConfig
from anomgen.cli import run_command
from anomgen.config import ConfigError, build_predictor, load_config, parse_config
from anomgen.cpt import CptParams, CptPredictor
from anomgen.morphing import MorphConfig
from anomgen.records import read_jsonl, record_to_collection, write_jsonl
from anomgen.verifier import (MAX_DISTINCT_PAYOFFS, minimal_anomaly, verify_collection,
                              verify_parametrized)
from anomgen.basis import basis_from_config
from anomgen.categorize import CATEGORY_TAGS, categorize
from anomgen.predictor import MlpModel, menu_input_scaling
from conftest import (collection, flat, lottery, menu, menu_json, predict,
                      reference_generated_record, reference_record, sample_random_menu,
                      write_anomalies)

DATA = Path(__file__).parent / "data"


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
            "adversarial": {"step_size": 0.01, "max_iters": 50, "inits": 25000},
            "morph": {"step_size": 10.0, "n_gradient_samples": 200000,
                      "inits": 15000},
        })
        assert cfg.morph.n_gradient_samples == 200000
        assert cfg.adversarial.inits == 25000

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="adversarial.learning_rate"):
            parse_config({"adversarial": {"learning_rate": 0.1}})
        with pytest.raises(ConfigError, match="typo"):
            parse_config({"typo": 1})
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
        params, label = parse_config(
            {"predictor": {"delta": 0.5, "gamma": 0.4}}).predictor.cpt_params()
        assert (params.delta, params.gamma, label) == (0.5, 0.4, "cpt(0.5,0.4)")

    def test_invalid_value_named(self):
        with pytest.raises(ConfigError, match="step_size"):
            parse_config({"adversarial": {"step_size": -1}})
        # A value or section of the wrong JSON type is a config error, not a
        # TypeError out of the comparison.
        with pytest.raises(ConfigError, match="morph.step_size"):
            parse_config({"morph": {"step_size": "fast"}})
        for raw, path in (({"seed": "x"}, "seed"), ({"workers": 1.5}, "workers"),
                          ({"adversarial": {"max_iters": 2.5}}, "adversarial.max_iters"),
                          ({"morph": {"n_gradient_samples": 1e5}},
                           "morph.n_gradient_samples")):
            with pytest.raises(ConfigError, match=path):
                parse_config(raw)
        with pytest.raises(ConfigError, match="predictor: must be a JSON object"):
            parse_config({"predictor": None})
        with pytest.raises(ConfigError, match="predictor.delta"):
            parse_config({"predictor": {"delta": -1.0, "gamma": 0.3}})

    def test_basis_key_typo_named(self):
        with pytest.raises(ConfigError, match="theory.basis.ordr"):
            parse_config({"theory": {"basis": {"kind": "polynomial", "ordr": 4}}})

    def test_bad_basis_value_is_one_json_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"adversarial": {"basis": {"order": "six"}}}))
        rc = run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                          "--out", "a.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "adversarial.basis.order" in json.loads(err[0])["error"]
        assert not os.path.exists("a.jsonl")

    def test_basis_defaults_merge_within_one_kind(self):
        cfg = parse_config({"adversarial": {"basis": {"kind": "ispline"}}})
        assert cfg.adversarial.basis_config == MorphConfig().basis_config
        assert cfg.adversarial.make_basis().config_dict() == cfg.adversarial.basis_config

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

    def test_worker_count_below_one_errors(self, tmp_path, capsys, monkeypatch):
        os.chdir(tmp_path)
        assert run_command(["baseline", "--inits", "2", "--workers", "0",
                            "--out", "x.jsonl"]) == 1
        monkeypatch.setenv("ANOMGEN_WORKERS", "-2")
        assert run_command(["baseline", "--inits", "2", "--out", "x.jsonl"]) == 1
        capsys.readouterr()
        monkeypatch.setenv("ANOMGEN_WORKERS", "abc")
        assert run_command(["baseline", "--inits", "2", "--out", "x.jsonl"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ANOMGEN_WORKERS: invalid value 'abc'"
        assert not os.path.exists("x.jsonl")

    def test_null_preset_prints_error_line(self, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"predictor": {"preset": None}}))
        rc = run_command(["adversarial", "--config", "cfg.json", "--inits", "1",
                          "--out", "x.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "predictor.preset" in json.loads(err[0])["error"]
        assert not os.path.exists("x.jsonl")

    def test_baseline_requires_inits(self, tmp_path, capsys):
        os.chdir(tmp_path)
        assert run_command(["baseline", "--seed", "1", "--out", "b.jsonl"]) != 0
        assert not os.path.exists("b.jsonl")

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

    def test_lp_failure_prints_error_line(self, tmp_path, capsys, monkeypatch):
        from anomgen import simplex_lp
        os.chdir(tmp_path)
        run_ok(["baseline", "--inits", "2", "--seed", "1", "--out", "b.jsonl"], capsys)

        def fail(*args, **kwargs):
            raise simplex_lp.SimplexError("iteration limit reached")

        monkeypatch.setattr(simplex_lp, "solve_max", fail)
        rc = run_command(["verify", "--in", "b.jsonl", "--out", "v.jsonl"])
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert rc == 1
        assert err == {"command": "verify", "error": "iteration limit reached"}
        assert not os.path.exists("v.jsonl")

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
        cfg.write_text(json.dumps({"verification": {"margin_threshold": 0.05}}))
        run_ok(["baseline", "--inits", "50", "--seed", "1", "--config", str(cfg),
                "--out", "b.jsonl"], capsys)
        run_ok(["verify", "--in", "b.jsonl", "--config", str(cfg),
                "--out", "bv.jsonl"], capsys)
        _, recs = read_jsonl("bv.jsonl", expected_kind="verified")
        flagged = [r for r in recs if r["any_utility_inconsistent"]]
        assert flagged
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

    def test_worker_count_does_not_change_multi_block_morph_bytes(self, tmp_path,
                                                                    capsys):
        # A step draws its samples in blocks; three full blocks and a
        # remainder must give the same bytes in every worker layout.
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"morph": {
            "n_gradient_samples": 3 * morphing._DRAW_BLOCK + 17, "max_iters": 4}}))
        for workers in ("1", "2"):
            run_ok(["morph", "--config", "cfg.json", "--inits", "4", "--seed", "4",
                    "--out", f"m{workers}.jsonl", "--workers", workers], capsys)
        assert Path("m1.jsonl").read_bytes() == Path("m2.jsonl").read_bytes()
        _, recs = read_jsonl("m1.jsonl")
        assert {r["stop"] for r in recs} <= {"direction_vanished", "max_iters"}
        assert any(r["iterations"] > 0 for r in recs)

    def test_workers_env_fallback(self, tmp_path, capsys, monkeypatch):
        os.chdir(tmp_path)
        monkeypatch.setenv("ANOMGEN_WORKERS", "2")
        summary = run_ok(["adversarial", "--inits", "2", "--seed", "1",
                          "--out", "e.jsonl"], capsys)
        assert summary["workers"] == 2

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
        # The number of payoffs comes from the CSV header, for a cpt_fit
        # predictor as for fit-cpt and train-mlp; a 3-payoff dataset used to
        # be read as J = 2 and rejected.
        os.chdir(tmp_path)
        Path("p3.json").write_text(json.dumps({"n_payoffs": 3}))
        run_ok(["simulate", "--config", "p3.json", "--n", "200", "--seed", "1",
                "--out", "d3.csv"], capsys)
        Path("fit.json").write_text(json.dumps({
            "n_payoffs": 3, "predictor": {"kind": "cpt_fit", "dataset_path": "d3.csv"},
            "adversarial": {"max_iters": 3}}))
        run_ok(["adversarial", "--config", "fit.json", "--inits", "3", "--seed", "2",
                "--out", "a.jsonl"], capsys)
        _, recs = read_jsonl("a.jsonl")
        assert len(recs) == 3 and recs[0]["predictor"].startswith("cpt-fit(")
        assert len(recs[0]["menus"][0]["lottery0"]["probs"]) == 3
        assert run_ok(["fit-cpt", "--in", "d3.csv"], capsys)["rows"] == 200
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
                          min_size=1, max_size=2))
    # Anomalies are rare among random draws; these seeds give minimal sets
    # (2,), (0, 2) and (0, 1).
    @example(seed=23, n_payoffs=2, kinds=["sure", "sure"])
    @example(seed=40, n_payoffs=2, kinds=["shared", "sure"])
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
    morph and baseline runs; J = 2 and J = 3; 1-, 2- and 3-menu collections;
    a collection whose payoffs all merge to one; inconsistent 3-menu
    collections with minimal subsets (2,) and (0, 2); and a record 1e-7 off
    the simplex."""
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
    yield reference_record(_random_candidate(23, 2, ["sure", "sure"]), "minimal-000023")
    yield reference_record(_random_candidate(40, 2, ["shared", "sure"]), "minimal-000040")
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
                    "witness": None if av.witness_utility is None
                    else av.witness_utility.tolist(),
                    "anomaly_minimal_indices": list(minimal[0]) if minimal else None}
            assert {k: rec[k] for k in want} == want, rec["id"]
        by_id = {r["id"]: r for r in verified}
        assert {r["procedure"] for r in verified} >= {"adversarial", "morphing", "baseline"}
        assert {(len(r["menus"]), len(r["menus"][0]["lottery0"]["payoffs"]))
                for r in verified} >= {(1, 2), (2, 2), (2, 3), (3, 2)}
        assert (by_id["flat-000000"]["margin"], by_id["flat-000000"]["witness"]) == (0.0, None)
        assert by_id["minimal-000023"]["anomaly_minimal_indices"] == [2]
        assert by_id["minimal-000040"]["anomaly_minimal_indices"] == [0, 2]
        assert record_to_collection(by_id["off-000007"]).P[0, 0].tolist() \
            != by_id["off-000007"]["menus"][0]["lottery0"]["probs"]

    @pytest.mark.parametrize("malform", [
        lambda rec: rec["predicted_probs"].__setitem__(0, 1.5),
        lambda rec: rec["menus"][0]["lottery0"]["probs"].__setitem__(0, 0.5 + 1e-5),
        lambda rec: rec["menus"][1]["lottery1"].update(probs=[-1e-6, 1.0 + 1e-6]),
        lambda rec: rec["menus"][0]["lottery1"]["payoffs"].__setitem__(1, float("nan")),
        lambda rec: rec["menus"][1].update(lottery1={"payoffs": [1.0, 2.0, 3.0],
                                                      "probs": [0.2, 0.3, 0.5]}),
        lambda rec: rec.update(predicted_probs=rec["predicted_probs"][:1]),
    ], ids=["choice-1.5", "sum-1e-5-off", "negative-1e-6", "nan-payoff", "mixed-J",
            "menus-vs-probs"])
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
        ["adversarial", "--config", "fit.json", "--inits", "1", "--out", "out"],
    ], ids=["fit-cpt", "train-mlp", "cpt_fit-config"])
    def test_short_csv_row(self, argv, tmp_path, capsys):
        os.chdir(tmp_path)
        Path("short.csv").write_text(self.HEADER + "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,1\n"
                                     "1,2,0.5,0.5,3\n")
        Path("fit.json").write_text(json.dumps(
            {"predictor": {"kind": "cpt_fit", "dataset_path": "short.csv"}}))
        assert run_command(argv) == 1
        assert error_line(capsys) == {"command": argv[0],
                                      "error": "row 1: 5 fields, the header has 11"}
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
    def test_report_category_without_a_known_tag(self, category, tmp_path, capsys):
        os.chdir(tmp_path)
        write_anomalies("cat.jsonl", 3)
        _, recs = read_jsonl("cat.jsonl")
        recs[1]["category"] = category
        write_jsonl("bad.jsonl", recs, kind="categorized")
        assert run_command(["report", "--in", "bad.jsonl", "--out", "out"]) == 1
        error = error_line(capsys)
        assert error["command"] == "report"
        assert error["error"].startswith("record 'x-000001': ")
        assert not os.path.exists("out")

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
        assert all(s["records_per_s"] > 0 for s in summaries[3:])
        assert all(s["elapsed_s"] >= 0 for s in summaries)
        for path in ("adversarial.jsonl", "morph.jsonl", "baseline.jsonl", "v.jsonl",
                     "c.jsonl"):
            header, recs = read_jsonl(path)
            assert recs and not timing & set(header)
            assert all(not timing & set(rec) for rec in recs)


class TestRankTolBound:
    def test_smallest_cutoff_accepted_and_below_rejected(self, tmp_path, capsys):
        assert parse_config({"morph": {"rank_tol": 1e-6}}).morph.rank_tol == 1e-6
        with pytest.raises(ConfigError, match="morph.rank_tol"):
            parse_config({"morph": {"rank_tol": 9.9e-7}})
        with pytest.raises(ValueError, match="rank_tol"):
            MorphConfig(rank_tol=9.9e-7)
        os.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"morph": {"rank_tol": 1e-9}}))
        rc = run_command(["morph", "--config", "cfg.json", "--inits", "1", "--out", "m.jsonl"])
        err = capsys.readouterr().err.strip().splitlines()
        assert rc == 1 and len(err) == 1
        assert "morph.rank_tol" in json.loads(err[0])["error"]
        assert not os.path.exists("m.jsonl")

    def test_smallest_cutoff_keeps_rank_within_tangent_space(self):
        # The span is taken in tangent coordinates, so the retained rank is
        # at most 2J - 2 = 2 for J = 2, even at the smallest accepted cutoff.
        pred = CptPredictor(CptParams(0.726, 0.309))
        cfg = MorphConfig(rank_tol=morphing.MIN_RANK_TOL)
        ranks = [r["retained_rank"]
                 for r in morphing.run_morph_indices(pred, cfg, 6, range(12))]
        assert all(r is not None and r <= 2 for r in ranks)


def _block_chunk(tag, block):
    """One item per block, naming the block: what ``cli._fan_out`` cut."""
    return [(tag, list(block))]


class TestStreaming:
    """Generation cuts a batch into consecutive blocks and writes each block's
    records as soon as the block is done."""

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
        monkeypatch.setattr(cli, "categorize",
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


class TestParser:
    def test_two_commands_build_one_parser(self, tmp_path, capsys):
        os.chdir(tmp_path)
        cli.build_parser.cache_clear()
        run_ok(["baseline", "--inits", "2", "--out", "b.jsonl"], capsys)
        run_ok(["verify", "--in", "b.jsonl", "--out", "v.jsonl"], capsys)
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)


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
