"""Absorber spectral responses and EIT filter parameters."""

import math

import numpy as np
import pytest

from slowphoton.errors import ValidityError
from slowphoton.media import (
    BroadLine,
    EitMedium,
    MatchedLine,
    eit_params,
    fe57_siderite,
    medium_system,
    spectral_response,
)


class TestConstruction:
    def test_rates_positive(self):
        with pytest.raises(ValueError):
            MatchedLine(gamma=0.0, thickness=1.0)
        with pytest.raises(ValueError):
            BroadLine(gamma_total=-1.0, thickness=1.0)
        with pytest.raises(ValueError):
            MatchedLine(gamma=1.0, thickness=-0.5)

    def test_eit_requires_broadened_upper_line(self):
        with pytest.raises(ValueError, match="gamma_total > gamma_m"):
            EitMedium(gamma_total=1.0, gamma_m=1.0, omega=2.0, thickness=1.0)

    def test_alpha0_l_product(self, eit_example):
        assert MatchedLine(2.0, 5.0).alpha0_l == 10.0
        assert BroadLine(10.0, 3.0).alpha0_l == 30.0
        assert eit_example.alpha0_l == 300.0

    def test_fe57_preset(self):
        med = fe57_siderite()
        assert isinstance(med, EitMedium)
        assert med.gamma_total == 10.0 * med.gamma_m
        assert med.omega == 2.0 * med.gamma_total
        assert med.thickness == 30.0


class TestSpectralResponse:
    def test_matched_at_resonance(self):
        med = MatchedLine(gamma=1.0, thickness=10.0)
        assert spectral_response(med, 0.0) == pytest.approx(10.0 + 0.0j)

    def test_eit_residual_thickness_at_center(self, eit_example):
        # reduced effective thickness 30 * 10/410
        val = spectral_response(eit_example, 0.0)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(30.0 * 10.0 / 410.0)
        assert val.real == pytest.approx(0.7317073170731707)

    def test_broad_wing_decay(self):
        med = BroadLine(gamma_total=2.0, thickness=7.0)
        for nu in (1e3, 1e5, 1e7):
            assert abs(spectral_response(med, nu)) == pytest.approx(
                med.alpha0_l / nu, rel=1e-5
            )

    @pytest.mark.parametrize(
        "med",
        [
            MatchedLine(1.0, 10.0),
            BroadLine(10.0, 10.0),
            EitMedium(10.0, 1.0, 20.0, 30.0),
            EitMedium(10.0, 1.0, 4.0, 5.0),
        ],
    )
    def test_hermitian_symmetry_and_passivity(self, med):
        nu = np.concatenate([np.linspace(-500, 500, 2001), [-1e6, 1e6]])
        resp = spectral_response(med, nu)
        np.testing.assert_allclose(
            spectral_response(med, -nu), np.conj(resp), rtol=1e-14, atol=1e-300
        )
        assert np.all(resp.real >= 0.0)

    def test_passivity_random_parameters(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            gm = rng.uniform(0.1, 2.0)
            g = gm * rng.uniform(1.5, 50.0)
            om = rng.uniform(0.1, 100.0)
            med = EitMedium(g, gm, om, rng.uniform(0.0, 50.0))
            nu = rng.uniform(-1e4, 1e4, size=200)
            assert np.all(spectral_response(med, nu).real >= 0.0)

    def test_eit_depth_ratio(self, eit_example):
        # residual absorption over the uncoupled line-center absorption
        bare = BroadLine(eit_example.gamma_total, eit_example.thickness)
        ratio = spectral_response(eit_example, 0.0).real / spectral_response(bare, 0.0).real
        gm, g, om2 = 1.0, 10.0, 400.0
        assert ratio == pytest.approx(gm * g / (om2 + gm * g), rel=1e-12)
        assert ratio < 0.03


class TestEitParams:
    def test_example_values(self, eit_example):
        p = eit_params(eit_example)
        assert p.t_eit == pytest.approx(300.0 / 410.0, rel=1e-12)
        assert p.t_d == pytest.approx(0.7121, abs=5e-5)
        assert p.delta_eff == pytest.approx(6.919, abs=1e-3)
        assert p.delta_eit == pytest.approx(40.0)
        # headline numbers: window/photon width ratio and delay per lifetime
        assert p.delta_eff / 1.0 == pytest.approx(6.9, abs=0.05)
        assert p.t_d / 0.5 == pytest.approx(1.4, abs=0.05)

    def test_transparency_reduces_absorption(self, eit_example):
        p = eit_params(eit_example)
        assert p.t_eit < eit_example.thickness

    def test_effective_width_narrows_with_thickness(self):
        # delta_eff ~ delta_eit/sqrt(T_b) within a 25% band when Omega^2 >> gm*G
        for tb in (10.0, 30.0, 100.0):
            med = EitMedium(10.0, 1.0, 20.0, tb)
            p = eit_params(med)
            approx = med.delta_eit / math.sqrt(tb)
            assert abs(p.delta_eff - approx) / approx < 0.25

    def test_strong_coupling_limits(self):
        # T_eit and t_d vanish like 1/Omega^2
        med = EitMedium(10.0, 1.0, 2000.0, 30.0)
        p = eit_params(med)
        assert p.t_eit < 1e-4
        assert p.t_d < 1e-3

    def test_validity_gate(self):
        med = EitMedium(10.0, 1.0, 2.0, 30.0)  # Omega^2 = 4 < gm*G = 10
        with pytest.raises(ValidityError, match="Omega"):
            eit_params(med)

    def test_exact_response_still_available_below_gate(self):
        med = EitMedium(10.0, 1.0, 2.0, 30.0)
        val = spectral_response(med, 0.3)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestAdiabaticResponse:
    def test_anchored_at_line_center(self, eit_example):
        # the quadratic expansion T_eit - i*nu*t_d + nu**2/delta_eff**2 is exact at nu = 0
        assert eit_params(eit_example).t_eit == pytest.approx(spectral_response(eit_example, 0.0), abs=1e-14)

    def test_first_derivative_matches(self, eit_example):
        # d/dnu of the exact response at 0 is -i*t_d
        h = 1e-6
        fd = (spectral_response(eit_example, h) - spectral_response(eit_example, -h)) / (2 * h)
        p = eit_params(eit_example)
        assert fd.real == pytest.approx(0.0, abs=1e-6)
        assert fd.imag == pytest.approx(-p.t_d, abs=1e-6)

    def test_second_derivative_matches(self, eit_example):
        h = 1e-4
        sd = (
            spectral_response(eit_example, h)
            - 2 * spectral_response(eit_example, 0.0)
            + spectral_response(eit_example, -h)
        ) / h**2
        p = eit_params(eit_example)
        assert sd.real == pytest.approx(2.0 / p.delta_eff**2, rel=1e-4)


class TestMediumSystem:
    @pytest.mark.parametrize(
        "med",
        [
            MatchedLine(1.3, 4.0),
            BroadLine(7.0, 3.0),
            EitMedium(10.0, 1.0, 20.0, 30.0),
            EitMedium(10.0, 1.0, 3.5, 30.0),  # real, distinct roots
            EitMedium(10.0, 1.0, 4.5, 30.0),  # critical coupling: one double root
        ],
    )
    def test_transfer_function_reproduces_response(self, med):
        # A(s)*l = C (sI - M)^(-1) B with s = -i*nu
        m, b, c = medium_system(med)
        assert np.all(np.linalg.eigvals(m).real < 0)  # causal
        nu = np.linspace(-300.0, 300.0, 601)
        eye = np.eye(len(m))
        got = [(c @ np.linalg.solve(-1j * v * eye - m, b)).item() for v in nu]
        np.testing.assert_allclose(got, spectral_response(med, nu), rtol=1e-13, atol=1e-15)
