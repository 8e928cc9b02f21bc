import numpy as np
import pytest

from anomgen.cpt import CptParams, simulate_choices
from anomgen.data import (ChoiceDataset, ChoiceRow, load_dataset, save_dataset,
                          split_dataset)
from anomgen.lotteries import Menu, make_lottery, sample_random_menu


def small_csv(tmp_path, rows):
    path = tmp_path / "ds.csv"
    header = "z0_1,z0_2,p0_1,p0_2,z1_1,z1_2,p1_1,p1_2,outcome,outcome_kind"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        path = small_csv(tmp_path, [
            "1,2,0.5,0.5,3,4,0.25,0.75,0.8,rate",
            "0,9,0.1,0.9,5,5,0.5,0.5,1,binary",
        ])
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds[0].outcome == 0.8 and ds[0].outcome_kind == "rate"
        np.testing.assert_allclose(ds[1].menu.lottery0.probs, [0.1, 0.9])

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

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z0_1,z0_2\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_dataset(path)

    def test_payoff_count_read_from_header_and_its_columns_checked(self, tmp_path):
        rng = np.random.default_rng(2)
        menus = [sample_random_menu(rng, 3, 0, 10) for _ in range(5)]
        path = tmp_path / "p3.csv"
        save_dataset(simulate_choices(rng, menus, CptParams(0.726, 0.309)), path)
        assert load_dataset(path).n_payoffs == 3
        lines = [line.split(",") for line in path.read_text().splitlines()]
        drop = lines[0].index("p1_3")
        path.write_text("".join(",".join(v for j, v in enumerate(line) if j != drop) + "\n"
                                for line in lines))
        with pytest.raises(ValueError, match=r"missing columns: \['p1_3'\]"):
            load_dataset(path)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(20)]
        ds = simulate_choices(np.random.default_rng(1), menus,
                              CptParams(0.726, 0.309), kind="rate", count=64)
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        for a, b in zip(ds, back):
            np.testing.assert_array_equal(a.menu.flatten(), b.menu.flatten())
            assert a.outcome == b.outcome
            assert a.outcome_kind == b.outcome_kind


class TestChoiceDataset:
    def test_heterogeneous_arity_rejected(self):
        row2 = ChoiceRow(Menu(make_lottery([1, 2], [0.5, 0.5]),
                              make_lottery([3, 4], [0.5, 0.5])), 0.5)
        row3 = ChoiceRow(Menu(make_lottery([1, 2, 3], [0.3, 0.3, 0.4]),
                              make_lottery([3, 4, 5], [0.3, 0.3, 0.4])), 0.5)
        with pytest.raises(ValueError):
            ChoiceDataset([row2, row3])

    def test_outcome_validation(self):
        menu = Menu(make_lottery([1, 2], [0.5, 0.5]),
                    make_lottery([3, 4], [0.5, 0.5]))
        with pytest.raises(ValueError):
            ChoiceRow(menu, 1.5)
        with pytest.raises(ValueError):
            ChoiceRow(menu, 0.5, outcome_kind="frequency")


class TestSplitDataset:
    def _dataset(self, n):
        rng = np.random.default_rng(2)
        menus = [sample_random_menu(rng, 2, 0, 10) for _ in range(n)]
        return ChoiceDataset([ChoiceRow(m, 0.5) for m in menus])

    def test_proportions(self):
        train, test = split_dataset(self._dataset(9831), 1000 / 9831, seed=0)
        assert (len(train), len(test)) == (8831, 1000)

    def test_two_rows(self):
        train, test = split_dataset(self._dataset(2), 0.5, seed=0)
        assert (len(train), len(test)) == (1, 1)

    def test_deterministic_and_disjoint(self):
        ds = self._dataset(50)
        t1, h1 = split_dataset(ds, 0.3, seed=7)
        t2, h2 = split_dataset(ds, 0.3, seed=7)
        first = {tuple(r.menu.flatten()) for r in t1}
        second = {tuple(r.menu.flatten()) for r in t2}
        held = {tuple(r.menu.flatten()) for r in h1}
        assert first == second
        assert not (first & held)
        assert len(first) + len(held) == 50

    def test_too_small(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(1), 0.5, seed=0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(10), 1.5, seed=0)
