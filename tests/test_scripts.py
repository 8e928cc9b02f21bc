"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from anomgen.records import pair_anomaly, read_jsonl, write_jsonl
from conftest import write_anomalies

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_desk_script_runs(tmp_path):
    out = run_script("run_desk_scale.py", "--inits", "2", "--baseline-pairs", "10",
                     "--outdir", "desk", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert (tmp_path / "desk/report.csv").is_file()
    # Each verify summary, the report summary and the closing lines count
    # the pair anomalies of the streams they read.
    streams = {stem: read_jsonl(tmp_path / f"desk/{stem}_categorized.jsonl")[1]
               for stem in ("adversarial", "morph", "baseline")}
    pairs = {stem: sum(map(pair_anomaly, recs)) for stem, recs in streams.items()}
    summaries = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    assert [s["pair_anomalies"] for s in summaries if s["command"] == "verify"] == \
        list(pairs.values())
    (report,) = [s for s in summaries if s["command"] == "report"]
    pooled = pairs["adversarial"] + pairs["morph"]
    assert report["pair_anomalies"] == pooled
    closing = [line for line in out.stdout.splitlines() if "pair anomalies:" in line]
    assert [line.rsplit(": ", 1)[1] for line in closing] == [str(pooled), str(pairs["baseline"])]


def test_desk_script_runs_the_configured_predictor(tmp_path):
    (tmp_path / "a.json").write_text('{"predictor": {"preset": "bruhin-a"}}')
    out = run_script("run_desk_scale.py", "--config", "a.json", "--inits", "2",
                     "--baseline-pairs", "10", "--outdir", "desk", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    labels = {rec["predictor"] for stem in ("adversarial", "morph", "baseline")
              for rec in read_jsonl(tmp_path / f"desk/{stem}_categorized.jsonl")[1]}
    assert labels == {"cpt:bruhin-a"}
    assert json.loads((tmp_path / "desk/config.json").read_text()) == {
        "predictor": {"preset": "bruhin-a"}, "seed": 23}


@pytest.mark.parametrize("text", ["{oops", "[1, 2]", None])
def test_desk_script_stops_on_a_config_that_is_not_an_object(text, tmp_path):
    if text is not None:
        (tmp_path / "a.json").write_text(text)
    out = run_script("run_desk_scale.py", "--config", "a.json", "--inits", "2",
                     "--baseline-pairs", "10", "--outdir", "desk", cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr.strip().splitlines()[-1].startswith("a.json: not a config object (")
    assert not (tmp_path / "desk").exists()


def test_desk_script_seed_replaces_the_configs_seed(tmp_path):
    (tmp_path / "a.json").write_text('{"seed": 5}')
    for outdir, config in (("plain", []), ("configured", ["--config", "a.json"])):
        out = run_script("run_desk_scale.py", *config, "--seed", "7", "--inits", "2",
                         "--baseline-pairs", "10", "--outdir", outdir, cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / outdir / "config.json").read_text()) == {"seed": 7}
    for stem in ("adversarial", "morph", "baseline"):
        name = f"{stem}_categorized.jsonl"
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "configured" / name).read_bytes()

def test_ground_truth_script(tmp_path):
    out = run_script("ground_truth.py", "--n", "300", "--runs", "2", "--sizes", "200",
                     "--outdir", "gt", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    recovery = [line for line in lines if "preset" in line]
    assert [(r["preset"], r["n"]) for r in recovery] == [
        (preset, 200) for preset in ("bruhin-a", "bruhin-b", "bruhin-c")]
    for r in recovery:
        assert r["abs_error"] == [abs(e - t) for e, t in zip(r["estimate"], r["true"])]
    (held_out,) = [line["held_out"] for line in lines if "held_out" in line]
    assert 0 <= held_out["mse"] < 0.25
    # The learned predictor's desk run is one compare_runs.py reads.
    shutil.copytree(tmp_path / "gt/desk", tmp_path / "copy")
    out = run_script("compare_runs.py", "gt/desk", "copy", cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["records"] == {"old": 24, "new": 24}


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDeskClustering:
    """Too few anomalies to cluster is reported; any other failure stops."""

    def pooled(self, tmp_path, n):
        path = tmp_path / "pooled.jsonl"
        write_anomalies(path, n)
        return read_jsonl(path)[1], str(path)

    def test_too_few_anomalies_are_reported(self, tmp_path, capsys):
        desk = load_script("run_desk_scale.py")
        pooled, path = self.pooled(tmp_path, 3)
        desk.cluster_pooled(pooled, path, str(tmp_path / "cl.csv"), k=4, seed=0)
        out = capsys.readouterr().out
        assert out.startswith("clustering skipped: 3 non-FOSD anomalies")
        assert not (tmp_path / "cl.csv").exists()

    def test_other_cluster_failures_stop_the_script(self, tmp_path, capsys):
        desk = load_script("run_desk_scale.py")
        pooled, path = self.pooled(tmp_path, 10)
        (tmp_path / "cl.csv").mkdir()           # the CSV cannot be written
        with pytest.raises(SystemExit) as exc:
            desk.cluster_pooled(pooled, path, str(tmp_path / "cl.csv"), k=4, seed=0)
        assert exc.value.code == 1
        assert "skipped" not in capsys.readouterr().out

    def test_enough_anomalies_are_clustered(self, tmp_path, capsys):
        desk = load_script("run_desk_scale.py")
        pooled, path = self.pooled(tmp_path, 10)
        desk.cluster_pooled(pooled, path, str(tmp_path / "cl.csv"), k=4, seed=0)
        assert len((tmp_path / "cl.csv").read_text().splitlines()) == 11


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """A small desk-scale output directory."""
    root = tmp_path_factory.mktemp("desk")
    out = run_script("run_desk_scale.py", "--inits", "3", "--baseline-pairs", "20",
                     "--outdir", "run", cwd=root)
    assert out.returncode == 0, out.stderr
    return root / "run"


class TestCompareRuns:
    """``compare_runs.py`` reports exactly the records whose verdicts differ."""

    def test_copies_of_one_run_do_not_differ(self, desk_run, tmp_path):
        shutil.copytree(desk_run, tmp_path / "copy")
        out = run_script("compare_runs.py", str(desk_run), str(tmp_path / "copy"),
                         cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        (summary,) = [json.loads(line) for line in out.stdout.splitlines()]
        assert summary["differing"] == 0
        assert summary["records"] == {"old": 26, "new": 26}
        assert summary["category_counts"]["old"] == summary["category_counts"]["new"]
        assert summary["unconverged_fits"]["old"] == summary["unconverged_fits"]["new"]
        assert set(summary["unconverged_fits"]["old"]) == {"adversarial", "morphing",
                                                           "baseline"}

    @pytest.mark.parametrize("stem, field", [("baseline", "any_utility_inconsistent"),
                                             ("morph", "implied_choices")])
    def test_one_edited_verdict_is_reported(self, desk_run, tmp_path, stem, field):
        edited = tmp_path / "edited"
        shutil.copytree(desk_run, edited)
        path = edited / f"{stem}_categorized.jsonl"
        header, recs = read_jsonl(path)
        rec = recs[1]
        old_value = rec[field]
        rec[field] = not old_value if field != "implied_choices" else \
            [1 - c for c in old_value]
        write_jsonl(path, recs, kind=header["kind"])
        out = run_script("compare_runs.py", str(desk_run), str(edited), cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        *diffs, summary = [json.loads(line) for line in out.stdout.splitlines()]
        assert diffs == [{"id": rec["id"], "fields": {
            field: {"old": old_value, "new": rec[field]}}}]
        assert summary["differing"] == 1

    def test_a_record_in_one_run_only_is_reported(self, desk_run, tmp_path):
        pruned = tmp_path / "pruned"
        shutil.copytree(desk_run, pruned)
        path = pruned / "adversarial_categorized.jsonl"
        header, recs = read_jsonl(path)
        write_jsonl(path, recs[1:], kind=header["kind"])
        compare = load_script("compare_runs.py")
        diffs = compare.compare(compare.load_records(str(desk_run)),
                                compare.load_records(str(pruned)))
        assert diffs == [{"id": recs[0]["id"], "only_in": "old"}]

    def test_unconverged_fits_are_counted_per_procedure(self, desk_run, tmp_path):
        # Unconverged fits are not verdicts: planted ones change the summary's
        # counts, not the exit status.
        edited = tmp_path / "edited"
        shutil.copytree(desk_run, edited)
        counts = {}
        for stem, procedure in (("adversarial", "adversarial"), ("morph", "morphing"),
                                ("baseline", "baseline")):
            header, recs = read_jsonl(edited / f"{stem}_categorized.jsonl")
            inner = sum(r.get("inner_fits_unconverged", 0) for r in recs)
            verify = sum(not r["fit_converged"] for r in recs)
            counts[procedure] = {"inner": inner, "verify": verify}
            recs[0]["fit_converged"] = not recs[0]["fit_converged"]
            if stem == "adversarial":
                recs[0]["inner_fits_unconverged"] += 2
                recs[1]["inner_fits_unconverged"] += 1
            write_jsonl(edited / f"{stem}_categorized.jsonl", recs, kind=header["kind"])
        out = run_script("compare_runs.py", str(desk_run), str(edited), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        (summary,) = [json.loads(line) for line in out.stdout.splitlines()]
        assert summary["unconverged_fits"]["old"] == counts
        new = summary["unconverged_fits"]["new"]
        assert new["adversarial"]["inner"] == counts["adversarial"]["inner"] + 3
        assert new["morphing"]["inner"] == counts["morphing"]["inner"] == 0
        for procedure, old in counts.items():
            assert abs(new[procedure]["verify"] - old["verify"]) == 1

    def test_unreadable_run_exits_2(self, desk_run, tmp_path):
        out = run_script("compare_runs.py", str(desk_run), str(tmp_path / "absent"),
                         cwd=tmp_path)
        assert out.returncode == 2 and "no categorized streams" in out.stderr


class TestCompareRates:
    """``compare_runs.py --rates`` compares pooled rates, not records."""

    def test_published_intervals(self):
        # Newcombe (1998): Wilson's interval for 81/263, and the hybrid
        # interval for 56/70 - 48/80.
        compare = load_script("compare_runs.py")
        lo, hi = compare.wilson(81, 263, 1.959964)
        assert (round(lo, 4), round(hi, 4)) == (0.2553, 0.3662)
        lo, hi = compare.newcombe((48, 80), (56, 70), 1.959964)
        assert (round(lo, 4), round(hi, 4)) == (0.0524, 0.3339)

    def test_copies_of_one_run_have_the_same_rates(self, desk_run, tmp_path):
        shutil.copytree(desk_run, tmp_path / "copy")
        out = run_script("compare_runs.py", "--rates", "--old", str(desk_run),
                         str(tmp_path / "copy"), "--new", str(tmp_path / "copy"),
                         str(desk_run), cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        *entries, summary = [json.loads(line) for line in out.stdout.splitlines()]
        assert summary["differing"] == 0 and summary["comparisons"] == len(entries)
        quantities = {(e["procedure"], e["quantity"]) for e in entries}
        assert {("morphing", "stop=max_iters"), ("morphing", "mean_steps"),
                ("adversarial", "at_most_one_step"),
                ("baseline", "any_utility_inconsistent"), ("adversarial", "pair_anomaly"),
                ("baseline", "pair_anomaly")} <= quantities
        for e in entries:
            assert e["difference"] == 0.0 and e["interval"][0] <= 0.0 <= e["interval"][1]
            assert e["old"] == e["new"]

    def test_planted_verdict_changes_are_reported(self, desk_run, tmp_path):
        planted = tmp_path / "planted"
        shutil.copytree(desk_run, planted)
        path = planted / "baseline_categorized.jsonl"
        header, recs = read_jsonl(path)
        for rec in recs:
            rec["parametrized_inconsistent"] = not rec["parametrized_inconsistent"]
        write_jsonl(path, recs, kind=header["kind"])
        out = run_script("compare_runs.py", "--rates", "--old", str(desk_run),
                         "--new", str(planted), cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        *entries, summary = [json.loads(line) for line in out.stdout.splitlines()]
        assert [(e["procedure"], e["quantity"]) for e in entries if e["differs"]] == \
            [("baseline", "parametrized_inconsistent")]
        assert summary["differing"] == 1

    def test_planted_tag_changes_are_reported(self, desk_run, tmp_path):
        # Two trees whose baseline records are all anomalies, FOSD in one
        # and unnamed in the other: only the category shares differ.
        for name, tag in (("fosd", "fosd"), ("other", "other")):
            shutil.copytree(desk_run, tmp_path / name)
            path = tmp_path / name / "baseline_categorized.jsonl"
            header, recs = read_jsonl(path)
            for rec in recs:
                rec["any_utility_inconsistent"] = True
                rec["category"] = {"tag": tag, "certificate": {}}
            write_jsonl(path, recs, kind=header["kind"])
        out = run_script("compare_runs.py", "--rates", "--old", str(tmp_path / "fosd"),
                         "--new", str(tmp_path / "other"), cwd=tmp_path)
        assert out.returncode == 1, out.stderr
        *entries, summary = [json.loads(line) for line in out.stdout.splitlines()]
        assert [(e["procedure"], e["quantity"]) for e in entries if e["differs"]] == [
            ("baseline", "category=fosd"), ("baseline", "category=other"),
            ("baseline", "non_fosd_anomaly")]
        assert summary["differing"] == 3
        # The verdicts did not move, so neither did each search's lift.
        old, new = summary["lift"]["old"], summary["lift"]["new"]
        assert set(old) == {"adversarial", "morphing"} and old == new
        lift = new["morphing"]["any_utility_inconsistent"]
        assert lift["interval95"][0] < lift["ratio"] < lift["interval95"][1]

    def test_katz_ratio(self):
        compare = load_script("compare_runs.py")
        # 5 in 600 against 1 in 5,000: log-ratio standard error
        # sqrt(1/5 - 1/600 + 1/1 - 1/5000).
        lift = compare.katz_ratio((5, 600), (1, 5000), 1.959964)
        half = 1.959964 * math.sqrt(1 / 5 - 1 / 600 + 1 - 1 / 5000)
        assert lift["ratio"] == pytest.approx(5 / 600 * 5000)
        assert lift["interval95"] == pytest.approx([lift["ratio"] * math.exp(-half),
                                                    lift["ratio"] * math.exp(half)])
        # A zero count takes a half in every cell.
        zero = compare.katz_ratio((3, 100), (0, 1000), 1.959964)
        assert zero["ratio"] == pytest.approx(3.5 / 101 / (0.5 / 1001))
        assert 0 < zero["interval95"][0] < zero["ratio"] < zero["interval95"][1] < math.inf

    def test_mode_arguments_are_checked(self, desk_run, tmp_path):
        for args in (["--rates", str(desk_run), str(desk_run)],
                     ["--rates", "--old", str(desk_run)],
                     [str(desk_run), str(desk_run), "--old", str(desk_run)]):
            out = run_script("compare_runs.py", *args, cwd=tmp_path)
            assert out.returncode == 2 and "give OLD NEW" in out.stderr
