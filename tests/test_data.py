import itertools
import re

import numpy as np
import pytest

from anomgen import records
from anomgen.cpt import CptParams, CptPredictor
from anomgen.data import (ChoiceDataset, _schema_columns, load_dataset, save_dataset,
                          simulate_choices)
from anomgen.lotteries import SIMPLEX_TOL, draw_menus, flat_stack, read_probs
from conftest import lottery, menu, predict, sample_random_menu, stack

ORACLE_B = CptPredictor(CptParams(0.726, 0.309))


HEADER = "z0_1,z0_2,p0_1,p0_2,z1_1,z1_2,p1_1,p1_2,outcome,outcome_kind"


def small_csv(tmp_path, rows, header=HEADER):
    path = tmp_path / "ds.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def stack_csv(tmp_path, Z, P):
    """A CSV file of (n, 2, J) stacks, every value written in full."""
    return small_csv(tmp_path, [",".join([*map(repr, x), "0.5", "rate"])
                                for x in flat_stack(Z, P).tolist()],
                     header=",".join(_schema_columns(Z.shape[-1])))


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        path = small_csv(tmp_path, [
            "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate",
            "0,9,0.1,0.9,5,5,0.5,0.5,1,binary",
        ])
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.outcomes[0] == 0.8 and ds.kinds[0] == "rate"
        np.testing.assert_allclose(ds.P[1, 0], [0.1, 0.9])
        assert ds.Z.shape == ds.P.shape == (2, 2, 2)
        np.testing.assert_array_equal(ds.weights, [1.0, 1.0])

    def test_off_simplex_row_names_index(self, tmp_path):
        path = small_csv(tmp_path, [
            "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate",
            "1,2,0.5,0.4,3,4,0.25,0.75,0.8,rate",
        ])
        with pytest.raises(ValueError, match="row 1"):
            load_dataset(path)

    def test_outcome_out_of_range(self, tmp_path):
        path = small_csv(tmp_path, ["1,2,0.5,0.5,3,4,0.25,0.75,1.2,rate"])
        with pytest.raises(ValueError, match="row 0"):
            load_dataset(path)

    @pytest.mark.parametrize("row, named", [
        ("1,inf,0.5,0.5,3,4,0.25,0.75,0.8,rate", "payoff not finite"),
        ("1,2,0.5,0.5,3,4,0.25,0.75,0.8,frequency", "kind not binary or rate: 'frequency'"),
        ("1,2,0.5,0.5,3,4,0.25,0.75,nan,rate", "outcome outside"),
        ("1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,0", "weight not positive"),
        ("1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,-1", "weight not positive"),
        ("1,2,-0.5,1.5,3,4,0.25,0.75,0.8,rate", "simplex"),
        ("1,x,0.5,0.5,3,4,0.25,0.75,0.8,rate", "could not convert"),
        ("1,2,0.5,0.5,3", "5 fields"),
        ("1,2,0.5,0.5,3,4,0.25,0.75,0.8", "9 fields"),
    ], ids=["payoff", "kind", "outcome", "zero-weight", "negative-weight", "negative-prob",
            "not-a-number", "short", "no-kind"])
    def test_every_bad_row_is_named(self, tmp_path, row, named):
        path = small_csv(tmp_path, ["1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,1", row],
                         header=HEADER + ",weight")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 1: .*{named}"):
            load_dataset(path)

    def test_the_first_bad_row_is_named(self, tmp_path):
        # Row 1 is off the simplex, row 2 is short: row 1 is named.
        path = small_csv(tmp_path, ["1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate",
                                    "1,2,0.5,0.4,3,4,0.25,0.75,0.8,rate",
                                    "1,2,0.5"])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 1: probabilities"):
            load_dataset(path)

    def test_missing_or_empty_weight_is_one(self, tmp_path):
        path = small_csv(tmp_path, ["1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,2.5",
                                    "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate,",
                                    "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate"],
                         header=HEADER + ",weight")
        np.testing.assert_array_equal(load_dataset(path).weights, [2.5, 1.0, 1.0])

    def test_header_only_is_an_empty_dataset(self, tmp_path):
        ds = load_dataset(small_csv(tmp_path, []))
        assert len(ds) == 0 and ds.Z.shape == (0, 2, 2)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z0_1,z0_2\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_dataset(path)

    def test_payoff_count_read_from_header_and_its_columns_checked(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "p3.csv"
        save_dataset(simulate_choices(rng, ORACLE_B, *draw_menus(rng, 5, 3, 0, 10)), path)
        assert load_dataset(path).Z.shape[-1] == 3
        lines = [line.split(",") for line in path.read_text().splitlines()]
        drop = lines[0].index("p1_3")
        path.write_text("".join(",".join(v for j, v in enumerate(line) if j != drop) + "\n"
                                for line in lines))
        with pytest.raises(ValueError, match=r"missing columns: \['p1_3'\]"):
            load_dataset(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        Z, P = stack([sample_random_menu(rng, 2, 0, 10) for _ in range(20)])
        ds = simulate_choices(np.random.default_rng(1), ORACLE_B, Z, P, kind="rate", count=64)
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(flat_stack(ds.Z, ds.P), flat_stack(back.Z, back.P))
        np.testing.assert_array_equal(ds.outcomes, back.outcomes)
        np.testing.assert_array_equal(ds.kinds, back.kinds)
        second = tmp_path / "again.csv"
        save_dataset(back, second)
        assert second.read_bytes() == path.read_bytes()

    def test_crlf_lines_load_as_lf_lines(self, tmp_path):
        # Datasets end their lines with LF; files written with CRLF still load.
        rng = np.random.default_rng(0)
        ds = simulate_choices(rng, ORACLE_B, *draw_menus(rng, 5, 2, 0, 10), kind="rate", count=8)
        path = tmp_path / "lf.csv"
        save_dataset(ds, path)
        assert b"\r" not in path.read_bytes()
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        lf, back = load_dataset(path), load_dataset(crlf)
        for name in ("Z", "P", "outcomes", "kinds", "weights"):
            np.testing.assert_array_equal(getattr(back, name), getattr(lf, name))

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        ds = simulate_choices(rng, ORACLE_B, *draw_menus(rng, 20, 2, 0, 10), kind="rate",
                              count=8)
        path = tmp_path / "d.csv"
        path.write_bytes(b"old bytes\n")
        fields, csv_field = itertools.count(), records._csv_field

        def failing(value):
            if next(fields) == 50:              # four lines in
                raise OSError("disk full")
            return csv_field(value)

        monkeypatch.setattr(records, "_csv_field", failing)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(ds, path)
        assert path.read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("J", [2, 3])
class TestCsvReadingRule:
    """A CSV row's probabilities are read as a record's are: by
    ``read_probs``."""

    @staticmethod
    def stacks(J, off):
        """Two menus whose lottery-0 vectors sum to 1 + ``off``."""
        Z, P = draw_menus(np.random.default_rng(J), 2, J, 0, 10)
        P[:, 0, -1] += off
        return Z, P

    def test_within_simplex_tol_kept_bit_for_bit(self, J, tmp_path):
        Z, P = self.stacks(J, 20 * np.finfo(float).eps)
        assert np.all(np.abs(P.sum(axis=-1) - 1.0) <= SIMPLEX_TOL)
        ds = load_dataset(stack_csv(tmp_path, Z, P))
        np.testing.assert_array_equal(ds.P, P)
        np.testing.assert_array_equal(ds.Z, Z)

    def test_up_to_1e6_off_rescaled_as_read_probs_does(self, J, tmp_path):
        Z, P = self.stacks(J, 9e-7)
        ds = load_dataset(stack_csv(tmp_path, Z, P))
        expected, bad = read_probs(P)
        assert not bad.any()
        np.testing.assert_array_equal(ds.P, expected)
        assert not np.array_equal(ds.P[:, 0], P[:, 0])

    def test_further_off_rejected_with_its_row(self, J, tmp_path):
        Z, P = self.stacks(J, 0.0)
        P[1, 1, 0] += 2e-6
        path = stack_csv(tmp_path, Z, P)
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(path))}: row 1: probabilities not within 1e-6"):
            load_dataset(path)


class TestChoiceDataset:
    def test_outcome_validation(self):
        Z, P = draw_menus(np.random.default_rng(0), 1, 2, 0, 10)
        with pytest.raises(ValueError):
            ChoiceDataset(Z, P, [1.5])
        with pytest.raises(ValueError):
            ChoiceDataset(Z, P, [0.5], kinds="frequency")

    def test_shapes_checked(self):
        Z, P = draw_menus(np.random.default_rng(0), 3, 2, 0, 10)
        with pytest.raises(ValueError, match=r"not \(n, 2, J\)"):
            ChoiceDataset(Z, P[:, :, :1], [0.5] * 3)
        with pytest.raises(ValueError):
            ChoiceDataset(Z, P, [0.5] * 2)


class TestSimulateChoices:
    def test_bernoulli_mean_at_half(self):
        lot = lottery([3, 7], [0.5, 0.5])
        Z, P = stack([menu(lot, lot)])   # f* = 0.5 exactly
        ds = simulate_choices(np.random.default_rng(0), ORACLE_B, Z.repeat(100_000, axis=0),
                              P.repeat(100_000, axis=0), kind="binary")
        assert 0.494 <= ds.outcomes.mean() <= 0.506

    def test_seed_determinism(self):
        Z, P = stack([sample_random_menu(np.random.default_rng(i), 2, 0, 10)
                      for i in range(20)])
        d1 = simulate_choices(np.random.default_rng(5), ORACLE_B, Z, P)
        d2 = simulate_choices(np.random.default_rng(5), ORACLE_B, Z, P)
        np.testing.assert_array_equal(d1.outcomes, d2.outcomes)

    def test_rate_mode(self):
        m = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        ds = simulate_choices(np.random.default_rng(1), ORACLE_B, *stack([m]),
                              kind="rate", count=5_000)
        assert abs(ds.outcomes[0] - predict(ORACLE_B, m)) < 0.03

    def test_rate_requires_count(self):
        m = sample_random_menu(np.random.default_rng(0), 2, 0, 10)
        with pytest.raises(ValueError):
            simulate_choices(np.random.default_rng(1), ORACLE_B, *stack([m]),
                             kind="rate", count=0)

    @pytest.mark.parametrize("J", [2, 3])
    @pytest.mark.parametrize("kind", ["binary", "rate"])
    def test_one_array_draw_is_the_menu_by_menu_draw(self, J, kind):
        # ``simulate`` draws its menus in one ``draw_menus`` call; the menus,
        # the outcomes and the stream after them are those of one
        # ``sample_random_menu`` call per menu.
        seed = (J, kind == "rate")
        rng = np.random.default_rng(seed)
        ds = simulate_choices(rng, ORACLE_B, *draw_menus(rng, 40, J, 0, 10),
                              kind=kind, count=9)
        ref_rng = np.random.default_rng(seed)
        menus = [sample_random_menu(ref_rng, J, 0, 10) for _ in range(40)]
        ref = simulate_choices(ref_rng, ORACLE_B, *stack(menus), kind=kind, count=9)
        for name in ("Z", "P", "outcomes", "kinds", "weights"):
            np.testing.assert_array_equal(getattr(ds, name), getattr(ref, name))
        assert rng.random() == ref_rng.random()
        assert set(ds.kinds) == {kind}

    def test_draws_from_the_handle_it_is_given(self):
        # Any handle's predict_batch is the source: a chooser certain of
        # lottery 1 on even rows and of lottery 0 on odd ones.
        class Alternating:
            def predict_batch(self, Z, P):
                return (np.arange(len(Z)) % 2 == 0).astype(float)

        rng = np.random.default_rng(3)
        ds = simulate_choices(rng, Alternating(), *draw_menus(rng, 10, 2, 0, 10),
                              kind="rate", count=7)
        np.testing.assert_array_equal(ds.outcomes, [1.0, 0.0] * 5)
