import math

import numpy as np
import pytest

from fracbv import (
    ConfigError,
    Decay,
    convexity_defect,
    degeneracy_constant,
    flux_from_config,
    power_law_flux,
    user_flux,
)


class TestPowerLawValues:
    @pytest.mark.parametrize(
        "p,u,expected",
        [(2.0, 0.0, 0.0), (1.0, 1.0, 0.5), (2.0, -1.0, 1.0 / 3.0)],
    )
    def test_value(self, p, u, expected):
        F = power_law_flux(p, M=2.0)
        assert float(F.f(u)) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "p,u,expected",
        [(2.0, 3.0, 9.0), (2.0, -3.0, -9.0), (1.0, 0.4, 0.4)],
    )
    def test_slope(self, p, u, expected):
        F = power_law_flux(p, M=3.0)
        assert float(F.df(u)) == pytest.approx(expected, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            power_law_flux(0.5)


class TestConvexity:
    def test_shipped_fluxes_convex(self):
        for p in (1.0, 1.5, 2.0, 3.0):
            F = power_law_flux(p, M=2.0)
            assert convexity_defect(F, 1000, seed=7) <= 1e-12

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            user_flux(lambda u: np.sin(3.0 * u), lambda u: 3.0 * np.cos(3.0 * u), M=2.0)

    def test_user_convex_accepted(self):
        F = user_flux(lambda u: np.cosh(u) - 1.0, np.sinh, M=1.0)
        assert float(F.f(0.5)) == pytest.approx(math.cosh(0.5) - 1.0)


class TestDegeneracyConstant:
    def test_power_two(self):
        F = power_law_flux(2.0, M=1.0)
        assert degeneracy_constant(F, 2.0, 2001) == pytest.approx(0.5, abs=1e-12)

    def test_burgers_exact(self):
        F = power_law_flux(1.0, M=1.0)
        assert degeneracy_constant(F, 1.0, 401) == pytest.approx(1.0, abs=1e-12)

    def test_power_three(self):
        F = power_law_flux(3.0, M=1.0)
        assert degeneracy_constant(F, 3.0, 2001) == pytest.approx(0.25, abs=1e-12)

    def test_metadata_matches_grid(self):
        for p in (1.5, 2.0, 3.0):
            F = power_law_flux(p, M=1.0)
            grid = degeneracy_constant(F, p, 2001)
            assert grid == pytest.approx(F.degeneracy.c0, rel=1e-10)

    def test_below_exponent_degenerates(self):
        # at an exponent below the true degeneracy the grid infimum collapses
        # toward zero near the sign-split origin pairs
        F = power_law_flux(2.0, M=1.0)
        strong = degeneracy_constant(F, 2.0, 10**4)
        weak = degeneracy_constant(F, 1.5, 10**4)
        assert strong > 10.0 * weak

    def test_invalid_args(self):
        F = power_law_flux(2.0, M=1.0)
        with pytest.raises(ValueError):
            degeneracy_constant(F, 0.9, 100)
        with pytest.raises(ValueError):
            degeneracy_constant(F, 2.0, 1)


class TestConfig:
    def test_power_law(self):
        F = flux_from_config({"kind": "power_law", "p": 2, "M": 1.5})
        assert F.power == 2.0 and F.M == 1.5

    def test_table(self):
        us = np.linspace(-1, 1, 41)
        F = flux_from_config({"kind": "table", "u": list(us), "f": list(us**2 / 2)})
        assert float(F.f(0.5)) == pytest.approx(0.125, abs=1e-3)

    @pytest.mark.parametrize(
        "cfg",
        [
            {},
            {"kind": "mystery"},
            {"kind": "power_law", "p": 2, "M": 1, "extra": 1},
            {"kind": "table", "u": [0, 1], "f": [0, 1]},
            {"kind": "table", "u": [0, 1, 0.5], "f": [0, 1, 2]},
        ],
    )
    def test_rejects_bad_configs(self, cfg):
        with pytest.raises(ConfigError):
            flux_from_config(cfg)
