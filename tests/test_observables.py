"""Pulse areas, transmitted energies and thickness scans."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import i0e

from slowphoton import observables, propagate
from slowphoton.errors import TruncatedSupportWarning, ValidityError
from slowphoton.media import BroadLine, eit_params
from slowphoton.observables import (
    integrated_intensity,
    pulse_area,
    thickness_scan,
    u_broad,
    u_eit_adiabatic,
    u_gaussian,
    u_matched,
)
from slowphoton.propagate import (
    TimeSeries,
    adiabatic_eit,
    analytic_parts_broad,
    propagate_numeric,
)
from slowphoton.waveforms import (
    PhotonWaveform,
    TimeGrid,
    WaveformKind,
    sample,
    spectral_amplitude,
)

# (x, exp(-x)*I0(x), exp(-x)*I1(x)) from a 40-digit mpmath evaluation
I_SCALED_REFERENCE = [
    (0.5, 0.645035270449150068108, 0.1564208031848716971426),
    (1.0, 0.4657596075936404365019, 0.2079104153497084488694),
    (10.0, 0.1278333371634286073231, 0.121262681384455518719),
    (200.0, 0.02822715994911191567034, 0.02815650339483291782246),
    (1e4, 0.003989472674604732106361, 0.00398927319598366226448),
    (1e6, 0.0003989423302692457787773, 0.0003989421307980307763133),
]

# Gamma/delta_ph and T_b of the broad-line rule checks: T_b = 19.9 is just
# inside the whole-range window at Gamma/delta_ph = 1.2 (20/a = 6.1 there)
# for the wider ratios, and 3,000 is the scan workload's largest thickness.
BROAD_RATIOS = [1.2, 3.0, 10.0, 100.0]
BROAD_THICKNESSES = [0.0, 0.25, 5.0, 19.9, 100.0, 1000.0, 3000.0]


def _mp_broad(delta_ph, gamma_total, t_b):
    """(U_s, U_a) in units of U0(0)/2 by mpmath quad of besseli over all of [0, T_b], 30 digits."""
    with mp.workdps(30):
        d, g, tb = mp.mpf(delta_ph), mp.mpf(gamma_total), mp.mpf(t_b)
        ratio = d / g
        a = 1 / (1 - ratio**2)
        # panel edges at 1 to 40 decay lengths below T_b resolve its boundary layer
        edges = sorted({mp.mpf(0), tb} | {tb - k / a for k in (1, 4, 10, 20, 40) if tb > k / a})
        cache = {}

        def f(x):
            if x not in cache:
                cache[x] = mp.exp(-2 * a * (tb - x) - x) * mp.besseli(0, x)
            return cache[x]

        i1 = mp.quad(f, edges) if tb else 0
        i2 = mp.quad(lambda x: (tb - x) * f(x), edges) if tb else 0
        # in units of U0(0)/2: u1 = 4 a^2 I1, u2 = 8 a^3 I2, u_pm = e^(-2 a T)(1 +- slope)
        u1, u2 = 4 * a**2 * i1, 8 * a**3 * i2
        beer, slope = mp.exp(-2 * a * tb), 4 * a**2 * ratio**2 * tb
        u_s = beer * (1 + slope) - ratio**3 * (u1 - u2)
        u_a = beer * (1 - slope) + ratio * u1 - ratio**3 * u2
        return float(u_s), float(u_a)


def series(grid, amplitude):
    return TimeSeries(grid, amplitude)


class TestPulseArea:
    @pytest.mark.filterwarnings("ignore::slowphoton.errors.TruncatedSupportWarning")
    def test_causal_free_space(self, causal_unit):
        grid = TimeGrid(1e-9, 30.0, 30001)
        area = pulse_area(sample(causal_unit, grid))
        assert type(area) is float
        assert area == pytest.approx(1.0, rel=1e-6)

    def test_antisymmetric_vanishes(self, anti_unit):
        grid = TimeGrid(-30.0, 30.0, 48001)  # symmetric grid, tau=0 included
        area = pulse_area(sample(anti_unit, grid))
        assert abs(area) < 1e-9

    def test_adiabatic_area_conservation(self, causal_unit, eit_example):
        # theta(l) = theta(0) exp(-T_eit): filtering only costs the residual
        # absorption, not the reshaping
        p = eit_params(eit_example)
        grid = TimeGrid(-2.0, 15.0, 3401)
        amp = np.asarray(adiabatic_eit(causal_unit, eit_example, grid.times()))
        area = pulse_area(series(grid, amp))
        assert area.real == pytest.approx(math.exp(-p.t_eit), rel=1e-3)

    def test_truncation_warning(self, causal_unit):
        grid = TimeGrid(-1.0, 2.0, 301)  # exp(-2) tail far above 1e-6
        with pytest.warns(TruncatedSupportWarning):
            pulse_area(sample(causal_unit, grid))


class TestIntegratedIntensity:
    @pytest.mark.filterwarnings("ignore::slowphoton.errors.TruncatedSupportWarning")
    def test_causal_free_space(self, causal_unit):
        grid = TimeGrid(1e-9, 30.0, 30001)
        val = integrated_intensity(sample(causal_unit, grid))
        assert val == pytest.approx(0.5, rel=1e-6)

    def test_symmetric_free_space(self, sym_unit):
        # oracle: int (exp(-|t|)/2)^2 dt = 1/4
        grid = TimeGrid(-25.0, 25.0, 40001)
        val = integrated_intensity(sample(sym_unit, grid))
        assert val == pytest.approx(0.25, rel=1e-5)

    @pytest.mark.filterwarnings("ignore::slowphoton.errors.TruncatedSupportWarning")
    def test_parseval_against_spectrum(self, causal_unit):
        grid = TimeGrid(1e-9, 30.0, 30001)
        time_side = integrated_intensity(sample(causal_unit, grid))
        freq_side = quad(
            lambda nu: abs(spectral_amplitude(causal_unit, nu)) ** 2 / (2 * math.pi),
            -np.inf,
            np.inf,
        )[0]
        assert time_side == pytest.approx(freq_side, rel=1e-6)


class TestUMatched:
    def test_zero_thickness(self):
        assert u_matched(0.0) == (0.5, 0.5, 1.0)

    def test_reference_value(self):
        _, _, total = u_matched(1.0)
        assert total == pytest.approx(0.4657596075936404, rel=1e-12)

    @pytest.mark.parametrize("t_eff", [0.5, 2.0, 10.0])
    def test_frequency_domain_first_principles(self, t_eff):
        d = 1.0

        def freq_energy(spec_sq):
            val, _ = quad(
                lambda nu: spec_sq(nu)
                * math.exp(-2.0 * t_eff * d * d / (d * d + nu * nu))
                / (2 * math.pi),
                -np.inf,
                np.inf,
                limit=800,
            )
            return val

        u_s_f = freq_energy(lambda nu: (d / (d * d + nu * nu)) ** 2)
        u_a_f = freq_energy(lambda nu: (nu / (d * d + nu * nu)) ** 2)
        u_s, u_a, _ = u_matched(t_eff)
        u0 = 0.5 / d
        assert u_s * u0 == pytest.approx(u_s_f, rel=1e-12)
        assert u_a * u0 == pytest.approx(u_a_f, rel=1e-12)

    @pytest.mark.parametrize("t_eff", [0.5, 1.0, 2.0, 5.0, 10.0])
    def test_parts_sum_identity(self, t_eff):
        u_s, u_a, total = u_matched(t_eff)
        assert u_s + u_a == pytest.approx(total, rel=1e-10)
        assert total == pytest.approx(i0e(t_eff), rel=1e-10)

    @pytest.mark.parametrize("t_eff,i0e_ref,i1e_ref", I_SCALED_REFERENCE)
    def test_oracle_values(self, t_eff, i0e_ref, i1e_ref):
        # U_total = exp(-T)*I0(T) and U_a - U_s = exp(-T)*I1(T)
        u_s, u_a, total = u_matched(t_eff)
        assert total == pytest.approx(i0e_ref, rel=1e-10)
        assert u_a - u_s == pytest.approx(i1e_ref, rel=1e-10)

    def test_slow_algebraic_decay(self):
        _, _, t200 = u_matched(200.0)
        assert t200 * math.sqrt(2 * math.pi * 200.0) == pytest.approx(1.0, abs=0.05)
        _, _, t2000 = u_matched(2000.0)
        assert t2000 * math.sqrt(2 * math.pi * 2000.0) == pytest.approx(1.0, abs=0.02)

    def test_negative_thickness_rejected(self):
        with pytest.raises(ValueError):
            u_matched(-1.0)


class TestUBroad:
    def test_zero_thickness_splits_energy(self):
        u_s, u_a = u_broad(1.0, 10.0, 0.0)
        assert u_s == pytest.approx(0.25)
        assert u_a == pytest.approx(0.25)

    def test_requires_broad_line(self):
        with pytest.raises(ValidityError):
            u_broad(2.0, 1.0, 1.0)

    def test_symmetric_part_tracks_beer_exponent(self):
        # the symmetric part follows the exp(-2 a T_b) law in exponent up to
        # T_b ~ 5 (the linear ratio drifts to ~2 by T_b = 5)
        a = 1.0 / (1.0 - 0.01)
        for t_b in (1.0, 2.0, 3.0, 4.0, 5.0):
            u_s, _ = u_broad(1.0, 10.0, t_b)
            exponent_ratio = math.log(u_s / 0.25) / (-2.0 * a * t_b)
            assert abs(exponent_ratio - 1.0) < 0.10

    def test_antisymmetric_part_violates_beer(self):
        for t_b in (5.0, 7.0, 10.0):
            _, u_a = u_broad(1.0, 10.0, t_b)
            assert u_a / 0.25 > 100.0 * math.exp(-2.0 * t_b)

    @pytest.mark.parametrize("t_b", [0.5, 2.0, 5.0])
    def test_frequency_domain_first_principles(self, t_b):
        # the closed forms are exact: they match the spectral-integral
        # energy (1/2pi) int |b(nu)|^2 exp(-2 Re A l) dnu to machine precision
        d, g = 1.0, 10.0

        def freq_energy(spec_sq):
            val, _ = quad(
                lambda nu: spec_sq(nu)
                * math.exp(-2.0 * t_b * g * g / (g * g + nu * nu))
                / (2 * math.pi),
                -np.inf,
                np.inf,
                limit=800,
            )
            return val

        u_s_f = freq_energy(lambda nu: (d / (d * d + nu * nu)) ** 2)
        u_a_f = freq_energy(lambda nu: (nu / (d * d + nu * nu)) ** 2)
        u_s, u_a = u_broad(d, g, t_b)
        assert u_s == pytest.approx(u_s_f, rel=1e-9)
        assert u_a == pytest.approx(u_a_f, rel=1e-9)

    def test_time_domain_cross_check(self):
        # transmitted energies from the time-domain solutions; integrate the
        # two sides of the tau = 0 jump separately (a straddling trapezoid is
        # only first-order accurate in |b|^2) and add the analytic precursor
        # energy exp(-2 T_plus)/(8 d) for tau < 0
        d, g, t_b = 1.0, 10.0, 2.0
        t_plus = t_b * g / (g + d)
        grid = TimeGrid(1e-9, 16.0, 8001)
        tau = grid.times()
        b_s, b_a = analytic_parts_broad(d, g, t_b, tau)
        precursor = math.exp(-2 * t_plus) / (8 * d)
        u_s_time = np.trapezoid(np.abs(b_s) ** 2, dx=grid.spacing) + precursor
        u_a_time = np.trapezoid(np.abs(b_a) ** 2, dx=grid.spacing) + precursor
        u_s, u_a = u_broad(d, g, t_b)
        assert u_s_time == pytest.approx(u_s, rel=1e-3)
        assert u_a_time == pytest.approx(u_a, rel=1e-3)


class TestBroadRule:
    """The windowed Gauss-Legendre rule behind u_broad and the broad thickness scan."""

    @pytest.mark.parametrize("ratio", BROAD_RATIOS)
    def test_matches_mpmath_reference(self, ratio):
        scan = thickness_scan("broad", 1.0, ratio, BROAD_THICKNESSES)
        ref = np.array([_mp_broad(1.0, ratio, t) for t in BROAD_THICKNESSES])
        assert np.abs(scan.u_s - ref[:, 0]).max() <= 1e-12
        assert np.abs(scan.u_a - ref[:, 1]).max() <= 1e-12

    @pytest.mark.parametrize("ratio", [1.01, 1.05])
    def test_near_matched_lines_match_mpmath_reference(self, ratio):
        # a**3 amplifies the rule's round-off, so its error grows like 1/(ratio - 1): here
        # 24 nodes are within 7.3e-13 (1.01) and 6.9e-14 (1.05), and 32 reached 3.7e-12 and 3.6e-13
        thicknesses = [0.25, 0.5, 1.0, 2.0, 5.0, 100.0]
        scan = thickness_scan("broad", 1.0, ratio, thicknesses)
        ref = np.array([_mp_broad(1.0, ratio, t) for t in thicknesses])
        bound = 1.5e-14 / (ratio - 1.0)
        assert np.abs(scan.u_s - ref[:, 0]).max() <= bound
        assert np.abs(scan.u_a - ref[:, 1]).max() <= bound

    @pytest.mark.parametrize(
        "patches",
        [
            [(observables, "_BROAD_NODES", 2 * observables._BROAD_NODES)],
            # a window 60/40 as deep needs more nodes (24 move values by 1.7e-13), so it takes the
            # doubled rule and only the cut at exp(-40) is checked; the 36 nodes of the scaled count
            # move them by 1.3e-13, as scipy's 36-node rule is 1.8e-13 off on exp(30x) by its weights
            [(propagate, "_DEPTH_SPAN", 60.0), (observables, "_BROAD_NODES", 2 * observables._BROAD_NODES)],
        ],
        ids=["double_nodes", "window_exp_minus_60"],
    )
    def test_refining_the_rule_changes_nothing(self, patches, monkeypatch):
        t_values = np.linspace(0.0, 3000.0, 301)
        base = [thickness_scan("broad", 1.0, r, t_values) for r in BROAD_RATIOS]
        for module, name, value in patches:
            monkeypatch.setattr(module, name, value)
        for ratio, old in zip(BROAD_RATIOS, base):
            new = thickness_scan("broad", 1.0, ratio, t_values)
            assert np.abs(new.u_s - old.u_s).max() <= 1e-13
            assert np.abs(new.u_a - old.u_a).max() <= 1e-13

    def test_blocking_moves_values_only_by_round_off(self, monkeypatch):
        t_values = np.linspace(0.0, 3000.0, 501)
        base = thickness_scan("broad", 1.0, 1.2, t_values)
        # one entry per block (so one row), then every row in one block
        for block in (1, t_values.size * 10_000):
            monkeypatch.setattr(propagate, "_RULE_BLOCK", block)
            new = thickness_scan("broad", 1.0, 1.2, t_values)
            assert np.abs(new.u_s - base.u_s).max() <= 1e-15
            assert np.abs(new.u_a - base.u_a).max() <= 1e-15

    def test_u_broad_is_the_scan_row(self):
        d, g = 2.0, 5.0
        scan = thickness_scan("broad", d, g, BROAD_THICKNESSES)
        for i, t in enumerate(BROAD_THICKNESSES):
            u_s, u_a = u_broad(d, g, t)
            assert (u_s / (0.25 / d), u_a / (0.25 / d)) == (scan.u_s[i], scan.u_a[i])
        u_s, u_a = u_broad(d, g, BROAD_THICKNESSES)  # the whole array in one call
        np.testing.assert_array_equal(u_s / (0.25 / d), scan.u_s)
        np.testing.assert_array_equal(u_a / (0.25 / d), scan.u_a)

    def test_matched_scan_is_the_scalar_loop(self):
        t_values = np.linspace(0.0, 3000.0, 3001)
        scan = thickness_scan("matched", 1.0, None, t_values)
        loop = np.array([u_matched(t)[:2] for t in t_values])
        np.testing.assert_array_equal(scan.u_s, 2.0 * loop[:, 0])
        np.testing.assert_array_equal(scan.u_a, 2.0 * loop[:, 1])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        ratio=st.floats(1.2, 100.0),
        thicknesses=st.lists(st.floats(0.0, 3000.0, exclude_min=True), min_size=1, max_size=40, unique=True),
    )
    def test_energy_properties(self, ratio, thicknesses):
        t_values = np.array([0.0] + sorted(thicknesses))
        scan = thickness_scan("broad", 1.0, ratio, t_values)
        # 1e-12 of rounding slack, as the scan benchmark allows
        assert abs(scan.u_total[0] - 2.0) <= 1e-12
        assert np.all(scan.u_s >= 0.0) and np.all(scan.u_a >= 0.0)
        assert np.all(scan.u_total <= 2.0 + 1e-12)
        assert np.all(np.diff(scan.u_total) <= 1e-12)


class TestUEitAdiabatic:
    def test_narrow_photon_limit(self, eit_example):
        p = eit_params(eit_example)
        val = u_eit_adiabatic(1e-6, p)
        assert val == pytest.approx(0.5e6 * math.exp(-2 * p.t_eit), rel=1e-4)

    def test_wide_photon_scaling(self, eit_example):
        # energy reduced by ~ the window/photon width ratio
        p = eit_params(eit_example)
        d = 10.0 * p.delta_eff
        val = u_eit_adiabatic(d, p)
        asym = (0.5 / d) * math.exp(-2 * p.t_eit) * p.delta_eff / (d * math.sqrt(2 * math.pi))
        assert 0.5 < val / asym < 2.0

    def test_time_domain_cross_check(self, causal_unit, eit_example):
        p = eit_params(eit_example)
        grid = TimeGrid(-2.0, 15.0, 3401)
        amp = np.asarray(adiabatic_eit(causal_unit, eit_example, grid.times()))
        val = np.trapezoid(np.abs(amp) ** 2, dx=grid.spacing)
        assert val == pytest.approx(u_eit_adiabatic(1.0, p), rel=1e-2)


class TestUGaussian:
    def test_zero_thickness(self):
        # time integral of exp(-d^2 t^2 / 2) with d = 1
        assert u_gaussian(1.0, 20.0, 0.0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    def test_beer_decay_when_eta_near_one(self):
        u0 = u_gaussian(1.0, 100.0, 0.0)
        for t_eff in (0.5, 1.0, 2.0):
            ratio = u_gaussian(1.0, 100.0, t_eff) / u0
            assert ratio == pytest.approx(math.exp(-2 * t_eff), rel=1e-3)

    def test_validity_gate(self):
        with pytest.raises(ValidityError):
            u_gaussian(1.0, 2.0, 5.0)

    @pytest.mark.parametrize("t_eff", [0.5, 1.0, 2.0])
    def test_against_numeric_propagation(self, t_eff):
        w = PhotonWaveform(WaveformKind.GAUSSIAN, 1.0)
        med = BroadLine(gamma_total=20.0, thickness=t_eff)
        grid = TimeGrid(-8.0, 8.0, 1601)
        num = propagate_numeric(w, med, grid)
        val = integrated_intensity(num)
        assert val == pytest.approx(u_gaussian(1.0, 20.0, t_eff), rel=1e-2)


class TestThicknessScan:
    def test_zero_thickness_row_normalized_to_one(self):
        scan = thickness_scan("broad", 1.0, 10.0, np.linspace(0.0, 10.0, 41))
        assert scan.u_s[0] == pytest.approx(1.0)
        assert scan.u_a[0] == pytest.approx(1.0)
        assert scan.beer_reference[0] == 1.0

    def test_symmetric_below_antisymmetric(self):
        scan = thickness_scan("broad", 1.0, 10.0, np.linspace(0.25, 10.0, 40))
        assert np.all(scan.u_s < scan.u_a)

    def test_matched_total_monotone_decreasing(self):
        scan = thickness_scan("matched", 1.0, None, np.linspace(0.0, 20.0, 81))
        assert np.all(np.diff(scan.u_total) < 0)

    @pytest.mark.parametrize("kind,gamma", [("matched", None), ("broad", 10.0)])
    def test_all_energies_nonnegative_and_decaying(self, kind, gamma):
        scan = thickness_scan(kind, 1.0, gamma, np.linspace(0.0, 12.0, 49))
        for arr in (scan.u_s, scan.u_a, scan.u_total):
            assert np.all(arr >= 0.0)
            assert np.all(np.diff(arr) < 0.0)

    def test_matched_parts_cross_at_origin_only(self):
        scan = thickness_scan("matched", 1.0, None, np.linspace(0.5, 10.0, 20))
        assert np.all(scan.u_s < scan.u_a)

    def test_rows_are_consistent(self):
        scan = thickness_scan("broad", 1.0, 10.0, [0.0, 1.0, 2.0])
        assert len(scan.thickness_values) == len(scan.beer_reference) == 3
        assert scan.thickness_values[1] == 1.0
        assert scan.beer_reference[1] == pytest.approx(math.exp(-2.0))

    def test_nonincreasing_values_rejected(self):
        with pytest.raises(ValueError):
            thickness_scan("matched", 1.0, None, [1.0, 1.0, 2.0])

    @pytest.mark.parametrize("kind,gamma", [("matched", None), ("broad", 10.0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, kind, gamma, bad):
        with pytest.raises(ValueError, match="finite"):
            thickness_scan(kind, 1.0, gamma, [0.0, 1.0, bad])

    @pytest.mark.parametrize("kind,gamma", [("matched", None), ("broad", 10.0)])
    def test_negative_thickness_rejected(self, kind, gamma):
        with pytest.raises(ValueError, match=">= 0"):
            thickness_scan(kind, 1.0, gamma, [-1.0, 0.0, 1.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            thickness_scan("voigt", 1.0, None, [0.0, 1.0])
