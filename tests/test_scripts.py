"""Smoke runs of the experiment scripts at tiny sizes."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from anomgen.records import read_jsonl, write_jsonl
from conftest import write_anomalies

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name, args, outputs", [
    ("train_choice_model.py", ["--n", "300", "--epochs", "5", "--runs", "1",
                               "--hidden", "8,8"], []),
    ("recover_weighting_params.py", ["--sizes", "200"], []),
    ("run_desk_scale.py", ["--inits", "2", "--baseline-pairs", "10",
                           "--outdir", "desk"], ["desk/report.csv"]),
])
def test_script_runs(name, args, outputs, tmp_path):
    out = run_script(name, *args, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    for path in outputs:
        assert (tmp_path / path).is_file(), path


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
        diffs = compare.compare(compare.load_run(str(desk_run)), compare.load_run(str(pruned)))
        assert diffs == [{"id": recs[0]["id"], "only_in": "old"}]

    def test_unreadable_run_exits_2(self, desk_run, tmp_path):
        out = run_script("compare_runs.py", str(desk_run), str(tmp_path / "absent"),
                         cwd=tmp_path)
        assert out.returncode == 2 and "no categorized streams" in out.stderr
