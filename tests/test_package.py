"""The package's public names, and the modules a command loads."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import anomgen

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"

# ``anomgen.__all__`` as it stood when every submodule loaded with the package.
PUBLIC_NAMES = [
    "AnomalyCategory", "Collection", "CptParams", "CptPredictor", "GdaConfig", "ISplineBasis",
    "MorphConfig", "PolynomialBasis", "VerificationResult", "adversarial", "basis",
    "basis_from_config", "categorize", "check_certificate", "config", "cpt", "data",
    "decompose_shared_components", "draw_menus", "fosd_dominates", "lotteries",
    "lottery_stats", "lottery_values", "minimal_anomaly", "morphing", "parse_config",
    "project_to_simplex", "record_to_collection", "records", "run_adversarial_indices",
    "run_morph_indices", "simplex_lp", "solve_degenerate_mix", "theory", "verifier",
    "verify_collection", "verify_parametrized"]
# The modules that neither start-up (import the CLI, read the config, build a
# CPT predictor) nor ``report`` runs.
SEARCH_AND_VERIFY = {"anomgen.adversarial", "anomgen.morphing", "anomgen.theory",
                     "anomgen.verifier", "anomgen.simplex_lp", "anomgen.analysis",
                     "anomgen.predictor"}
NOT_AT_STARTUP = SEARCH_AND_VERIFY | {"anomgen.categorize", "concurrent.futures",
                                      "multiprocessing"}


def fresh_modules(code: str, cwd) -> set:
    """The modules loaded after ``code`` runs in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestPublicNames:
    def test_all_is_unchanged(self):
        assert anomgen.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_the_object_its_module_defines(self, name):
        value = getattr(anomgen, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"anomgen.{name}"]
        else:
            assert value.__module__.startswith("anomgen.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from anomgen import *", namespace)
        assert {name: namespace[name] for name in PUBLIC_NAMES} == \
            {name: getattr(anomgen, name) for name in PUBLIC_NAMES}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            anomgen.no_such_name
        with pytest.raises(ImportError):
            exec("from anomgen import no_such_name", {})

    def test_categorize_is_the_function_when_its_module_loads_first(self, tmp_path):
        fresh_modules("import importlib, anomgen\n"
                      "module = importlib.import_module('anomgen.categorize')\n"
                      "assert anomgen.categorize is module.categorize\n"
                      "from anomgen import categorize\n"
                      "assert categorize is module.categorize", tmp_path)


class TestStartup:
    def test_setup_loads_no_command_module(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"seed": 23, "predictor": {"kind": "cpt", "preset": "bruhin-b"},
             "adversarial": {"max_iters": 3}, "morph": {"max_iters": 8}}))
        loaded = fresh_modules("import anomgen.cli\n"
                               "from anomgen.config import build_predictor, load_config\n"
                               "build_predictor(load_config('cfg.json').predictor)", tmp_path)
        assert "anomgen.cli" in loaded
        assert not loaded & NOT_AT_STARTUP

    def test_report_loads_no_search_or_verifier(self, tmp_path):
        loaded = fresh_modules(
            "from anomgen.cli import run_command\n"
            f"assert run_command(['report', '--in', {str(DATA / 'golden_categorized.jsonl')!r},"
            " '--out', 'r.csv']) == 0", tmp_path)
        assert "anomgen.categorize" in loaded
        assert not loaded & SEARCH_AND_VERIFY
        assert (tmp_path / "r.csv").read_bytes() == (DATA / "golden_report.csv").read_bytes()

    def test_categorize_loads_no_search_or_verifier(self, tmp_path):
        verified = str(DATA / "golden_tags_verified.jsonl")
        loaded = fresh_modules(
            "from anomgen.cli import run_command\n"
            f"assert run_command(['categorize', '--in', {verified!r}, '--out', 'c.jsonl']) == 0",
            tmp_path)
        assert {"anomgen.categorize", "anomgen.analysis"} <= loaded
        assert not loaded & (SEARCH_AND_VERIFY - {"anomgen.analysis"})
        assert (tmp_path / "c.jsonl").read_bytes() == \
            (DATA / "golden_tags_categorized.jsonl").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["baseline", "--inits", "4"],
        ["morph", "--inits", "2"],
        ["verify", "--in", str(DATA / "golden_candidates.jsonl")]])
    def test_a_pool_of_workers_loads_no_morphing(self, argv, tmp_path):
        # A pool's parent process loads no search module: only the workers
        # import what their chunks run.
        loaded = fresh_modules(
            "from anomgen.cli import run_command\n"
            f"assert run_command({argv + ['--workers', '2', '--out', 'o.jsonl']!r}) == 0",
            tmp_path)
        assert "concurrent.futures" in loaded
        assert "anomgen.morphing" not in loaded

    def test_baseline_loads_no_search_or_theory(self, tmp_path):
        # The baseline draws its menus with ``lotteries.index_block`` and
        # predicts them; it fits no theory and runs no search.
        loaded = fresh_modules(
            "from anomgen.cli import run_command\n"
            "assert run_command(['baseline', '--inits', '4', '--out', 'b.jsonl']) == 0",
            tmp_path)
        assert "anomgen.analysis" in loaded
        assert not loaded & {"anomgen.adversarial", "anomgen.morphing", "anomgen.theory"}
