import numpy as np
import pytest

from anomgen.basis import BASES, ISplineBasis, PolynomialBasis, basis_from_config

from conftest import reference_ispline_values


class TestPolynomialBasis:
    def test_rescaled_endpoint(self):
        b = PolynomialBasis(order=2, domain=(0, 10))
        np.testing.assert_allclose(b.eval(10.0), [[1.0, 1.0]])
        np.testing.assert_allclose(b.eval(0.0), [[0.0, 0.0]])

    def test_domain_enforced(self):
        b = PolynomialBasis(order=3, domain=(0, 10))
        with pytest.raises(ValueError, match="domain"):
            b.eval(10.5)
        b.eval(10.0 + 5e-10)   # within tolerance, clamped


class TestISplineBasis:
    def test_dimension(self):
        assert ISplineBasis(knots=10, degree=3).dim == 11

    def test_endpoint_normalization(self):
        b = ISplineBasis(knots=10, degree=3, domain=(0, 10))
        np.testing.assert_array_equal(b.eval(0.0)[0], np.zeros(11))
        np.testing.assert_array_equal(b.eval(10.0)[0], np.ones(11))

    def test_values_in_unit_interval_and_monotone(self):
        b = ISplineBasis(knots=10, degree=3, domain=(0, 10))
        grid = np.linspace(0, 10, 1000)
        vals = b.eval(grid)
        assert vals.min() >= 0 and vals.max() <= 1 + 1e-12
        assert np.all(np.diff(vals, axis=0) >= -1e-12)

    def test_midpoint_values_interior(self):
        b = ISplineBasis(knots=10, degree=3, domain=(0, 10))
        v = b.eval(5.0)[0]
        assert np.all(v >= 0) and np.all(v <= 1)

    @pytest.mark.parametrize("knots, degree",
                             [(10, 3), (6, 2), (12, 4), (2, 1), (2, 5), (30, 1), (30, 5)])
    def test_one_payoff_has_the_bits_of_its_row_in_a_batch(self, knots, degree):
        # A value must not depend on the payoffs evaluated with it, down to
        # the last bit: one-row callers and stacked callers share bytes.
        b = ISplineBasis(knots=knots, degree=degree, domain=(0, 10))
        zs = np.random.default_rng(knots).uniform(0, 10, 400)
        batch = b.eval(zs)
        for z, row in zip(zs, batch):
            assert b.eval([z])[0].tobytes() == row.tobytes()

    @pytest.mark.parametrize("knots", [2, 3, 5, 10, 12, 20, 30])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_bytes_of_the_member_by_member_sum(self, knots, degree):
        # The running sums of B-splines give the bytes of Ramsay's closed
        # form taken one member at a time, also at every mesh point, one ulp
        # either side of it, and at both ends of the domain.
        for low, high in ((0.0, 10.0), (0.0, 5.0), (-3.0, 7.5)):
            b = ISplineBasis(knots=knots, degree=degree, domain=(low, high))
            mesh = low + np.linspace(0.0, 1.0, knots) * (high - low)
            zs = np.concatenate([np.random.default_rng(knots * 10 + degree).uniform(low, high, 5000),
                                 mesh, np.nextafter(mesh, -np.inf), np.nextafter(mesh, np.inf)])
            zs = np.clip(zs, low, high)
            assert b.eval(zs).tobytes() == reference_ispline_values(b, zs).tobytes()


@pytest.mark.parametrize("basis", [PolynomialBasis(), ISplineBasis()])
def test_nan_payoff_is_outside_the_domain(basis):
    # Every comparison with NaN is false, so the domain test asks for the
    # payoff inside it: a NaN row is rejected, not valued.
    with pytest.raises(ValueError, match="domain"):
        basis.eval([np.nan, 5.0])


class TestBasisFromConfig:
    def test_polynomial(self):
        b = basis_from_config({"kind": "polynomial", "order": 6})
        assert isinstance(b, PolynomialBasis) and b.dim == 6
        assert b.domain == (0.0, 10.0)

    def test_ispline(self):
        b = basis_from_config({"kind": "ispline", "knots": 10, "degree": 3,
                               "domain": [0, 5]})
        assert isinstance(b, ISplineBasis)
        assert b.domain == (0.0, 5.0)

    def test_config_roundtrip(self):
        b = basis_from_config({"kind": "ispline", "knots": 8, "degree": 2})
        b2 = basis_from_config(b.config_dict())
        np.testing.assert_allclose(b2.eval(3.3), b.eval(3.3))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            basis_from_config({"kind": "fourier"})

    def test_unknown_key_raises(self):
        # A misspelt key used to be dropped, leaving the default order 6.
        with pytest.raises(TypeError):
            basis_from_config({"kind": "polynomial", "ordr": 4})

    def test_default_configs_are_the_constructor_defaults(self):
        # The kinds in order, the default first, with their documented defaults.
        assert [cls().config_dict() for cls in BASES] == [
            {"kind": "polynomial", "order": 6, "domain": [0.0, 10.0]},
            {"kind": "ispline", "knots": 10, "degree": 3, "domain": [0.0, 10.0]}]
