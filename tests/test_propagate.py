"""Transmission solutions: closed forms against the spectral oracle."""

import itertools
import math
import multiprocessing
import os
import re
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphoton import propagate
from slowphoton._rational import eval_pole_terms
from slowphoton.errors import ConvergenceError, UnsupportedWaveformError, ValidityError
from slowphoton.media import BroadLine, EitMedium, MatchedLine, eit_params
from slowphoton.propagate import (
    TimeSeries,
    _beat_integral,
    _remainder_direct,
    _subtraction_terms,
    _window_defaults,
    adiabatic_eit,
    analytic_matched,
    analytic_parts_broad,
    analytic_parts_matched,
    approx_broad,
    gaussian_broad,
    phi_plus,
    propagate_numeric,
    total_eit,
)
from slowphoton.waveforms import PhotonWaveform, TimeGrid, WaveformKind, sample, time_amplitude

from conftest import mask_near_zero

C, S, A = (
    WaveformKind.EXPONENTIAL_CAUSAL,
    WaveformKind.SYMMETRIC_PART,
    WaveformKind.ANTISYMMETRIC_PART,
)
# (t_eff, decay, rate, tau_max) of the beat integrals behind the presets.
# A matched line of thickness T calls the rule (T/2, 1, 2*delta_ph): fig2
# (T = 10), fig6b's medium at delta_ph = Gamma (T = 30, rate 20) and the
# sweep's thickest matched line (alpha0*l = 40).  Broad lines call
# (T_-+, 1, Gamma -+ delta_ph): fig3a (T_b = 10, Gamma = 10: T_-+ = 100/9,
# 100/11), fig6a and fig7 (EIT nonadiabatic part, T_b = 30: T_-+ = 300/9,
# 300/11).
BEAT_SETS = [
    (5.0, 1.0, 2.0, 10.0),
    (100.0 / 9.0, 1.0, 9.0, 2.5),
    (100.0 / 11.0, 1.0, 11.0, 2.5),
    (300.0 / 9.0, 1.0, 9.0, 15.0),
    (300.0 / 11.0, 1.0, 11.0, 15.0),
    (15.0, 1.0, 20.0, 15.0),
    (20.0, 1.0, 2.0, 10.0),
]
ROUTING_MEDIA = [MatchedLine(1.0, 5.0), BroadLine(10.0, 2.0), EitMedium(10.0, 1.0, 20.0, 3.0)]

J0_FIRST_ROOT = 2.404825557695772768622
EXP_M5_HALF = math.exp(-5.0) / 2.0  # boundary value at T = 10

# (x, J0(x)) from a 40-digit mpmath series evaluation
J0_REFERENCE = [
    (0.5, 0.9384698072408129042284),
    (1.0, 0.7651976865579665514497),
    (2.0, 0.2238907791412356680518),
    (5.0, -0.1775967713143383043474),
    (10.0, -0.2459357644513483351978),
    (25.0, 0.0962667832759581161735),
    (50.0, 0.05581232766925181500475),
    (100.0, 0.01998585030422312242423),
    (1000.0, 0.02478668615242017456133),
    (10000.0, -0.007096160353388801477265),
]


class TestAnalyticMatched:
    def test_leading_edge_is_unity(self):
        assert analytic_matched(1.0, 10.0, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_midpoint_at_zero(self):
        assert analytic_matched(1.0, 10.0, 0.0) == pytest.approx(0.5)

    def test_zero_thickness_is_free_decay(self):
        tau = np.linspace(-1, 5, 301)
        got = analytic_matched(2.0, 0.0, tau)
        want = np.exp(-2.0 * np.clip(tau, 0, None)) * np.heaviside(tau, 0.5)
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_first_beat_zero_crossing(self):
        # first null at tau = j01^2/(4*T*delta)
        tau_zero = J0_FIRST_ROOT**2 / 40.0
        assert tau_zero == pytest.approx(0.14458, abs=1e-5)
        assert abs(analytic_matched(1.0, 10.0, tau_zero)) < 1e-12

    def test_no_gain(self):
        tau = np.linspace(0, 30, 3001)
        assert np.abs(analytic_matched(1.0, 10.0, tau)).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("x,j0", J0_REFERENCE)
    def test_bessel_factor_oracle_values(self, x, j0):
        # delta = tau = 1 and T = x**2/4 put the Bessel argument exactly at x;
        # the absolute floor covers the conditioning near the zeros of J0
        got = analytic_matched(1.0, x * x / 4.0, 1.0)
        assert got.real == pytest.approx(math.exp(-1.0) * j0, rel=1e-12, abs=1e-13)
        assert got.imag == 0.0


class TestAnalyticPartsMatched:
    def test_boundary_values(self):
        b_s_p, b_a_p = analytic_parts_matched(1.0, 10.0, 1e-12)
        b_s_m, b_a_m = analytic_parts_matched(1.0, 10.0, -1e-12)
        assert b_s_p.real == pytest.approx(EXP_M5_HALF, abs=1e-9)
        assert b_s_m.real == pytest.approx(EXP_M5_HALF, abs=1e-9)
        assert b_a_m.real == pytest.approx(-EXP_M5_HALF, abs=1e-9)
        assert b_a_p.real == pytest.approx(1.0 - EXP_M5_HALF, abs=1e-9)

    def test_antisymmetric_midpoint_at_zero(self):
        _, b_a = analytic_parts_matched(1.0, 10.0, 0.0)
        assert b_a.real == pytest.approx(0.5 * (1.0 - math.exp(-5.0)), rel=1e-12)

    def test_decomposition_identity(self):
        tau = np.linspace(0.01, 8.0, 400)
        b_s, b_a = analytic_parts_matched(1.0, 10.0, tau)
        total = analytic_matched(1.0, 10.0, tau)
        np.testing.assert_allclose(b_s + b_a, total, atol=1e-9)

    def test_precursor_branch(self):
        tau = np.array([-2.0, -0.5])
        b_s, b_a = analytic_parts_matched(1.0, 10.0, tau)
        np.testing.assert_allclose(b_s, 0.5 * np.exp(tau - 5.0), rtol=1e-14)
        np.testing.assert_allclose(b_a, -b_s, rtol=1e-14)


class TestAnalyticPartsBroad:
    def test_requires_broad_line(self):
        with pytest.raises(ValidityError):
            analytic_parts_broad(2.0, 1.0, 5.0, 0.5)

    def test_precursor_and_jump(self):
        d, g, tb = 1.0, 10.0, 10.0
        t_plus = tb * g / (g + d)
        tau = np.array([-1.0, -0.2])
        b_s, b_a = analytic_parts_broad(d, g, tb, tau)
        np.testing.assert_allclose(b_s, 0.5 * np.exp(d * tau - t_plus), rtol=1e-14)
        np.testing.assert_allclose(b_a, -b_s, rtol=1e-14)
        _, b_a0 = analytic_parts_broad(d, g, tb, 0.0)
        assert b_a0.real == pytest.approx(0.5 * (1 - math.exp(-t_plus)), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_near_matched_line_tends_to_matched(self, eps):
        # Gamma = delta_ph*(1 + eps) at alpha0*l = 10: T_- = 10/eps grows
        # without bound, but the rule's depth window and node count do not
        tau = np.linspace(-4.0, 10.0, 1401)
        got = analytic_parts_broad(1.0, 1.0 + eps, 10.0 / (1.0 + eps), tau)
        want = analytic_parts_matched(1.0, 10.0, tau)
        for part, ref in zip(got, want):
            assert np.abs(part - ref).max() <= eps

    def test_sum_matches_numeric(self, causal_unit):
        grid = TimeGrid(-0.5, 2.5, 1501)
        tau = grid.times()
        med = BroadLine(gamma_total=10.0, thickness=10.0)
        num = propagate_numeric(causal_unit, med, grid)
        b_s, b_a = analytic_parts_broad(1.0, 10.0, 10.0, tau)
        mask = mask_near_zero(tau, grid.spacing)
        assert np.abs(num.amplitude - (b_s + b_a))[mask].max() < 1e-4


def _mp_beat(t_eff, decay, rate, tau):
    """The beat integral by mpmath Gauss-Legendre at 30 digits over 40 panels."""
    with mp.workdps(30):
        t_eff, decay, rate, tau = (mp.mpf(v) for v in (t_eff, decay, rate, tau))

        def f(x):
            return mp.exp(-decay * (t_eff - x)) * mp.besselj(0, 2 * mp.sqrt(x * rate * tau))

        return float(mp.quad(f, mp.linspace(0, t_eff, 41), method="gauss-legendre"))


class TestBeatIntegral:
    @pytest.mark.parametrize("t_eff, decay, rate, tau_max", BEAT_SETS)
    def test_matches_mpmath_reference(self, t_eff, decay, rate, tau_max):
        # tau_max sets the node count, so the rule here is the one the presets use
        tau = np.array([0.05, 0.4 * tau_max, tau_max])
        got = _beat_integral(t_eff, decay, rate, tau)
        ref = np.array([_mp_beat(t_eff, decay, rate, t) for t in tau])
        assert np.abs(got - ref).max() <= 1e-12

    @pytest.mark.parametrize("t_eff, decay, rate, tau_max", BEAT_SETS)
    def test_doubling_the_nodes_changes_nothing(self, t_eff, decay, rate, tau_max, monkeypatch):
        tau = np.linspace(0.01, tau_max, 400)
        base = _beat_integral(t_eff, decay, rate, tau)
        order = propagate._beat_order
        monkeypatch.setattr(propagate, "_beat_order", lambda *args: 2 * order(*args))
        assert np.abs(_beat_integral(t_eff, decay, rate, tau) - base).max() <= 1e-12

    def test_thick_line_matches_mpmath_reference(self):
        # the rule runs on [t_eff - 80, t_eff] only; over all of [0, 2000]
        # its weights' round-off reached 5.6e-12
        tau = np.array([0.05, 1.0, 5.0, 15.0])
        got = _beat_integral(2000.0, 0.5, 9.0, tau)
        ref = np.array([_mp_beat(2000.0, 0.5, 9.0, t) for t in tau])
        assert np.abs(got - ref).max() <= 1e-12

    def test_blocking_moves_values_only_by_round_off(self, monkeypatch):
        tau = np.linspace(0.01, 15.0, 700)
        base = _beat_integral(300.0 / 9.0, 1.0, 9.0, tau)
        # one row per block, then every row in one block
        for block in (1, tau.size * 10_000):
            monkeypatch.setattr(propagate, "_RULE_BLOCK", block)
            assert np.abs(_beat_integral(300.0 / 9.0, 1.0, 9.0, tau) - base).max() <= 1e-15

    def test_zero_thickness_gives_zeros(self):
        out = _beat_integral(0.0, 1.0, 9.0, np.array([0.5, 1.0, 2.0]))
        np.testing.assert_array_equal(out, np.zeros(3))
        assert _beat_integral(0.0, 1.0, 9.0, 0.5).shape == ()

    @pytest.mark.parametrize("tau", [0.7, np.array([0.7]), np.full((2, 3), 0.7)], ids=["scalar", "1d", "2d"])
    def test_output_shape_follows_tau(self, tau):
        out = _beat_integral(10.0, 0.5, 1.0, tau)
        assert out.shape == np.shape(tau)
        np.testing.assert_allclose(out, _beat_integral(10.0, 0.5, 1.0, 0.7), rtol=0, atol=1e-15)


class TestApproxBroad:
    def test_leading_edge(self):
        assert approx_broad(1.0, 10.0, 100.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_leading_term_independent_of_photon_width(self):
        # the two-term form differs across delta_ph only via (Gamma - delta)
        tau = np.linspace(1e-4, 1.0, 300)
        g, a0l = 10.0, 100.0
        full = np.asarray(approx_broad(1.0, g, a0l, tau))
        narrow = np.asarray(approx_broad(0.1, g, a0l, tau))
        second_unit = (narrow - full) / (1.0 - 0.1)  # exp(-g tau) tau 2J1(x)/x
        reconstructed = np.asarray(approx_broad(g, g, a0l, tau)) + (g - 1.0) * second_unit
        np.testing.assert_allclose(full, reconstructed, atol=1e-12)

    def test_against_parts_sum(self):
        # measured deviation of the two-term form from the exact parts sum
        # at Gamma = 10 delta, T_b = 10 is ~0.010 over tau in [0, 2/Gamma]
        tau = np.linspace(0.0, 0.2, 401)
        b_s, b_a = analytic_parts_broad(1.0, 10.0, 10.0, tau)
        dev = np.abs((b_s + b_a) - np.asarray(approx_broad(1.0, 10.0, 100.0, tau)))
        assert dev.max() < 0.012

    def test_small_argument_series_branch(self):
        val = approx_broad(1.0, 10.0, 100.0, 1e-10)
        assert np.isfinite(val.real)


class TestPropagateNumeric:
    def test_zero_thickness_reproduces_input(self, causal_unit):
        grid = TimeGrid(-1.0, 5.0, 601)
        out = propagate_numeric(causal_unit, MatchedLine(1.0, 0.0), grid)
        np.testing.assert_array_equal(out.amplitude, sample(causal_unit, grid).amplitude)

    def test_no_medium_allowed(self, causal_unit):
        grid = TimeGrid(-1.0, 5.0, 601)
        out = propagate_numeric(causal_unit, None, grid)
        np.testing.assert_array_equal(out.amplitude, sample(causal_unit, grid).amplitude)

    @pytest.mark.parametrize("thickness", [1.0, 10.0])
    def test_matched_oracle_agreement(self, causal_unit, thickness):
        grid = TimeGrid(-2.0, 12.0, 2801)
        tau = grid.times()
        num = propagate_numeric(causal_unit, MatchedLine(1.0, thickness), grid)
        ana = analytic_matched(1.0, thickness, tau)
        mask = mask_near_zero(tau, grid.spacing)
        assert np.abs(num.amplitude - ana)[mask].max() < 1e-4

    def test_symmetric_through_matched_at_zero(self, sym_unit):
        # continuous at tau = 0 with value exp(-T/2)/2
        grid = TimeGrid(-2.0, 6.0, 1601)
        num = propagate_numeric(sym_unit, MatchedLine(1.0, 10.0), grid)
        i0 = np.argmin(np.abs(grid.times()))
        assert num.amplitude[i0].real == pytest.approx(0.0033690, abs=1e-5)

    def test_matched_parts_oracle_agreement(self, sym_unit, anti_unit):
        grid = TimeGrid(-2.0, 8.0, 2001)
        tau = grid.times()
        med = MatchedLine(1.0, 10.0)
        b_s, b_a = analytic_parts_matched(1.0, 10.0, tau)
        num_s = propagate_numeric(sym_unit, med, grid).amplitude
        num_a = propagate_numeric(anti_unit, med, grid).amplitude
        mask = mask_near_zero(tau, grid.spacing)
        assert np.abs(num_s - b_s)[mask].max() < 1e-4
        assert np.abs(num_a - b_a)[mask].max() < 1e-4

    def test_gaussian_through_eit_runs_numeric(self, eit_example):
        # no closed form exists for this pairing; the numeric route must
        # carry it: delayed output, no gain, energy below the input energy
        w = PhotonWaveform(WaveformKind.GAUSSIAN, 1.0)
        grid = TimeGrid(-6.0, 12.0, 1801)
        out = propagate_numeric(w, eit_example, grid)
        tau = grid.times()
        peak = tau[np.argmax(np.abs(out.amplitude))]
        p = eit_params(eit_example)
        assert 0.0 < peak < p.t_d + 2.0 / p.delta_eff
        assert np.abs(out.amplitude).max() <= 1.0 + 1e-9
        energy_out = np.trapezoid(np.abs(out.amplitude) ** 2, dx=grid.spacing)
        energy_in = math.sqrt(2.0 * math.pi)
        assert energy_out < energy_in

    def test_linearity_of_decomposition(self, causal_unit, sym_unit, anti_unit):
        grid = TimeGrid(-1.0, 4.0, 1001)
        med = BroadLine(gamma_total=10.0, thickness=10.0)
        out_c = propagate_numeric(causal_unit, med, grid)
        out_s = propagate_numeric(sym_unit, med, grid)
        out_a = propagate_numeric(anti_unit, med, grid)
        np.testing.assert_allclose(
            out_s.amplitude + out_a.amplitude, out_c.amplitude, atol=1e-9
        )

    @pytest.mark.parametrize(
        "med",
        [
            MatchedLine(1.0, 10.0),
            BroadLine(10.0, 10.0),
            EitMedium(10.0, 1.0, 20.0, 30.0),
        ],
    )
    def test_causality(self, causal_unit, med):
        grid = TimeGrid(-2.0, 8.0, 2001)
        out = propagate_numeric(causal_unit, med, grid)
        tau = grid.times()
        assert np.abs(out.amplitude[tau < -2 * grid.spacing]).max() < 1e-4

    def test_noncausal_parts_show_precursor(self, sym_unit):
        med = BroadLine(gamma_total=10.0, thickness=10.0)
        grid = TimeGrid(-2.0, 2.0, 1001)
        out = propagate_numeric(sym_unit, med, grid)
        tau = grid.times()
        t_plus = 100.0 / 11.0
        pick = np.argmin(np.abs(tau + 0.5))
        assert out.amplitude[pick].real == pytest.approx(
            0.5 * math.exp(tau[pick] - t_plus), rel=1e-3
        )

    @pytest.mark.parametrize(
        "med",
        [
            MatchedLine(1.0, 10.0),
            BroadLine(10.0, 10.0),
            EitMedium(10.0, 1.0, 20.0, 30.0),
        ],
    )
    def test_no_gain_for_unit_peak_causal_input(self, causal_unit, med):
        grid = TimeGrid(-2.0, 12.0, 2801)
        out = propagate_numeric(causal_unit, med, grid)
        assert np.abs(out.amplitude).max() <= 1.0 + 1e-9

    @pytest.mark.parametrize("n_points", [101, 601, 1200])
    @pytest.mark.parametrize("kind", [C, S, A], ids=lambda k: k.value)
    @pytest.mark.parametrize("medium", ROUTING_MEDIA, ids=lambda m: type(m).__name__)
    def test_small_grids_take_the_fft(self, medium, kind, n_points):
        # small grids take the FFT too; direct summation over the accepted
        # level's window is the reference it must reproduce
        w = PhotonWaveform(kind, 1.0)
        grid = TimeGrid(-1.0, 6.0, n_points)
        tau = grid.times()
        out = propagate_numeric(w, medium, grid)
        conv = out.convergence
        assert conv["strategy"] == "fft"
        nu_max, period = _window_defaults(w, medium, grid)
        scale = 2 ** conv["iterations"]
        rem, _ = _remainder_direct(w, medium, grid, nu_max * scale, period * scale)
        closed = eval_pole_terms(_subtraction_terms(w, medium), tau)
        assert np.abs(out.amplitude - (time_amplitude(w, tau) + closed + rem)).max() <= 1e-6
        if isinstance(medium, MatchedLine):
            b_s, b_a = analytic_parts_matched(1.0, medium.thickness, tau)
        elif isinstance(medium, BroadLine):
            b_s, b_a = analytic_parts_broad(1.0, medium.gamma_total, medium.thickness, tau)
        else:
            return
        ana = {C: b_s + b_a, S: b_s, A: b_a}[kind]
        mask = mask_near_zero(tau, grid.spacing)
        assert np.abs(out.amplitude - ana)[mask].max() <= 1e-4

    def test_spectrum_slicing_moves_values_only_by_round_off(self, causal_unit, monkeypatch):
        grid = TimeGrid(-1.0, 6.0, 601)
        med = EitMedium(10.0, 1.0, 20.0, 3.0)
        base = propagate_numeric(causal_unit, med, grid)
        n_freq = base.convergence["n_freq"]
        # 1,000 divides no lattice size (short last slice); n_freq is one slice per level
        for chunk in (1000, n_freq):
            monkeypatch.setattr(propagate, "_FFT_CHUNK", chunk)
            out = propagate_numeric(causal_unit, med, grid)
            assert np.abs(out.amplitude - base.amplitude).max() <= 1e-13

    @pytest.mark.parametrize("medium", ROUTING_MEDIA, ids=lambda m: type(m).__name__)
    def test_parallel_fill_equals_serial_fill_bitwise(self, causal_unit, medium, monkeypatch):
        grid = TimeGrid(-1.0, 6.0, 601)
        parallel = propagate_numeric(causal_unit, medium, grid)
        monkeypatch.setattr(propagate._FILL_POOL, "map", map)
        serial = propagate_numeric(causal_unit, medium, grid)
        assert np.array_equal(parallel.amplitude, serial.amplitude)
        assert parallel.convergence == serial.convergence

    def test_slice_error_reaches_caller_and_pool_survives(self, causal_unit, monkeypatch):
        grid = TimeGrid(-1.0, 6.0, 601)
        med = MatchedLine(1.0, 5.0)
        base = propagate_numeric(causal_unit, med, grid)
        pool = propagate._FILL_POOL
        integrand = propagate._remainder_integrand
        calls = itertools.count()

        def failing(w, a, nu):
            if next(calls) == 2:
                raise FloatingPointError("slice 2 failed")
            return integrand(w, a, nu)

        monkeypatch.setattr(propagate, "_remainder_integrand", failing)
        with pytest.raises(FloatingPointError, match="slice 2 failed"):
            propagate_numeric(causal_unit, med, grid)
        monkeypatch.setattr(propagate, "_remainder_integrand", integrand)
        again = propagate_numeric(causal_unit, med, grid)
        assert propagate._FILL_POOL is pool
        assert np.array_equal(again.amplitude, base.amplitude)

    def test_fill_pool_uses_the_usable_cpus(self):
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        assert 1 <= propagate._FILL_POOL._max_workers <= usable

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_builds_its_own_fill_pool(self, causal_unit):
        # the child inherits the parent's running pool without its threads
        med = MatchedLine(1.0, 10.0)
        grid = TimeGrid(-4.0, 10.0, 1401)
        base = propagate_numeric(causal_unit, med, grid)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(propagate_numeric, (causal_unit, med, grid)).get(timeout=60)
        assert np.array_equal(child.amplitude, base.amplitude)

    @pytest.mark.parametrize(
        "med, grid",
        [
            # the window alone asks for 5.9e8 frequencies at level 0
            (MatchedLine(1.0, 1e6), TimeGrid(-4.0, 10.0, 1401)),
            # the period alone overflows any lattice
            (MatchedLine(1.0, 10.0), TimeGrid(-4.0, 1e300, 1401)),
        ],
        ids=["thick", "long"],
    )
    def test_unbounded_direct_summation_is_refused(self, causal_unit, med, grid):
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"needs \d+ frequencies x 1401 points") as info:
            propagate_numeric(causal_unit, med, grid)
        assert time.perf_counter() - start < 5.0
        assert int(re.search(r"needs (\d+)", str(info.value)).group(1)) > propagate._MAX_FFT_SAMPLES
        assert f"{propagate._MAX_FFT_SAMPLES} frequencies" in str(info.value)
        assert f"{propagate._MAX_DIRECT_WORK} products" in str(info.value)

    def test_direct_summation_work_cap(self, causal_unit, monkeypatch):
        # the fine grid below needs 3.3e7 products at its accepted level
        med = MatchedLine(1.0, 10.0)
        zoom = TimeGrid(-1e-3, 1e-3, 2001)
        monkeypatch.setattr(propagate, "_MAX_DIRECT_WORK", 10**7)
        with pytest.raises(ConvergenceError, match="10000000 products"):
            propagate_numeric(causal_unit, med, zoom)

    def test_fine_grid_falls_back_to_direct_summation(self, causal_unit):
        # many points at micro spacing: FFT alignment would need > 2**22
        # samples, so the direct path must take over and stay accurate
        med = MatchedLine(1.0, 10.0)
        zoom = TimeGrid(-1e-3, 1e-3, 2001)
        out = propagate_numeric(causal_unit, med, zoom)
        assert out.convergence["strategy"] == "direct"
        tau = zoom.times()
        ana = analytic_matched(1.0, 10.0, tau)
        mask = np.abs(tau) > 2 * zoom.spacing
        assert np.abs(out.amplitude - ana)[mask].max() < 1e-4

    def test_critical_eit_coupling_stays_passive(self, causal_unit):
        # Omega = (Gamma - gamma_m)/2: the medium's two poles are one double pole
        grid = TimeGrid(-2.0, 15.0, 1701)
        out = propagate_numeric(causal_unit, EitMedium(10.0, 1.0, 4.5, 30.0), grid)
        b = out.amplitude
        assert np.all(np.isfinite(b))
        assert np.abs(b).max() <= 1.0
        energy_in = np.trapezoid(np.abs(sample(causal_unit, grid).amplitude) ** 2, dx=grid.spacing)
        assert np.trapezoid(np.abs(b) ** 2, dx=grid.spacing) <= energy_in

    @pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_near_critical_eit_coupling_is_continuous(self, causal_unit, factor):
        # two simple poles 0.13 apart against the one double pole: 7.1e-7 apart
        grid = TimeGrid(-2.0, 15.0, 1701)
        critical = propagate_numeric(causal_unit, EitMedium(10.0, 1.0, 4.5, 30.0), grid)
        near = propagate_numeric(causal_unit, EitMedium(10.0, 1.0, 4.5 * factor, 30.0), grid)
        assert np.abs(near.amplitude - critical.amplitude).max() <= 1e-5

    @pytest.mark.parametrize(
        "med, grid",
        [(BroadLine(1.0 + eps, 10.0 / (1.0 + eps)), TimeGrid(-4.0, 10.0, 1401))
         for eps in (1e-5, 1e-7, 1e-9)]
        + [(EitMedium(10.0, 1.0, 4.5 * (1.0 + 1e-7), 30.0), TimeGrid(-2.0, 15.0, 1701))],
        ids=["eps_1e-5", "eps_1e-7", "eps_1e-9", "critical_eit"],
    )
    def test_near_double_pole_round_off_is_refused(self, causal_unit, med, grid):
        # the partial-fraction terms cancel; off from analytic_matched by
        # 9.8e-5, 1.13 and 8.2e3 for the three eps, with a drift of 5e-7.
        # The EIT poles, 4e-3 apart, stay outside the merge tolerance (bound 2.6e-3)
        with pytest.raises(ConvergenceError, match=r"pole subtraction round-off bound \S+ > 1\.0e-05"):
            propagate_numeric(causal_unit, med, grid)

    def test_convergence_diagnostics_recorded(self, causal_unit):
        grid = TimeGrid(-1.0, 5.0, 1501)
        out = propagate_numeric(causal_unit, MatchedLine(1.0, 5.0), grid)
        conv = out.convergence
        assert conv["drift"] <= 1e-5
        assert conv["iterations"] >= 1
        assert conv["n_freq"] >= 2**18

    def test_nonconvergence_raises(self, causal_unit, monkeypatch):
        grid = TimeGrid(-1.0, 5.0, 1501)
        monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-16)
        with pytest.raises(ConvergenceError, match="drift"):
            propagate_numeric(causal_unit, MatchedLine(1.0, 10.0), grid)


def _assert_parts_match_oracle(kind, delta_ph, medium, b_s, b_a, grid):
    w = PhotonWaveform(kind, delta_ph)
    num = propagate_numeric(w, medium, grid).amplitude
    ana = {C: b_s + b_a, S: b_s, A: b_a}[kind]
    mask = mask_near_zero(grid.times(), grid.spacing)
    assert np.abs(num - ana)[mask].max() <= 1e-4


def _property_grid(delta_ph):
    # about 8 source decay times before tau = 0 and 10 after, as the sweep runs
    return TimeGrid(-8.0 / delta_ph, 10.0 / delta_ph, 601)


class TestClosedFormPartsProperties:
    """analytic_parts_* against the oracle over parameter space, not only the presets."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        delta_ph=st.floats(0.5, 2.0),
        thickness=st.floats(1.0, 40.0),
        kind=st.sampled_from([C, S, A]),
    )
    def test_matched(self, delta_ph, thickness, kind):
        grid = _property_grid(delta_ph)
        b_s, b_a = analytic_parts_matched(delta_ph, thickness, grid.times())
        _assert_parts_match_oracle(kind, delta_ph, MatchedLine(delta_ph, thickness), b_s, b_a, grid)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        delta_ph=st.floats(0.5, 2.0),
        ratio=st.floats(1.2, 20.0),
        thick_frac=st.floats(0.0, 1.0),
        kind=st.sampled_from([C, S, A]),
    )
    def test_broad(self, delta_ph, ratio, thick_frac, kind):
        # T_b from 2 to 30 with alpha0*l = T_b*Gamma <= 200*delta_ph, the sweep's range
        gamma = ratio * delta_ph
        t_b = 2.0 + thick_frac * (min(30.0, 200.0 / ratio) - 2.0)
        grid = _property_grid(delta_ph)
        b_s, b_a = analytic_parts_broad(delta_ph, gamma, t_b, grid.times())
        _assert_parts_match_oracle(kind, delta_ph, BroadLine(gamma, t_b), b_s, b_a, grid)


class TestAdiabaticEit:
    def test_requires_causal(self, sym_unit, eit_example):
        with pytest.raises(UnsupportedWaveformError):
            adiabatic_eit(sym_unit, eit_example, 1.0)

    def test_validity_gate_propagates(self, causal_unit):
        med = EitMedium(10.0, 1.0, 2.0, 30.0)
        with pytest.raises(ValidityError):
            adiabatic_eit(causal_unit, med, 1.0)

    def test_late_time_tail(self, causal_unit, eit_example):
        # for tau >> t_d + 2/delta_eff the edge function saturates at
        # exp(r^2) ~ 1 and the envelope is the delayed, residually
        # absorbed exponential
        p = eit_params(eit_example)
        r_sq = (1.0 / p.delta_eff) ** 2
        tau = p.t_d + 2.0 / p.delta_eff + np.array([1.0, 2.0, 3.0])
        got = np.asarray(adiabatic_eit(causal_unit, eit_example, tau))
        want = math.exp(r_sq) * np.exp(-p.t_eit - (tau - p.t_d))
        np.testing.assert_allclose(got.real, want, rtol=2e-2)

    def test_early_time_suppression(self, causal_unit, eit_example):
        p = eit_params(eit_example)
        tau = p.t_d - 2.0 / p.delta_eff - 0.3
        assert abs(adiabatic_eit(causal_unit, eit_example, tau)) < 5e-3

    def test_gaussian_shape_when_window_narrow(self):
        # delta_ph >> delta_eff: envelope ~ exp(-delta_eff^2 (tau-t_d)^2/4)
        med = EitMedium(10.0, 1.0, 5.0, 100.0)
        p = eit_params(med)
        w = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 10.0 * p.delta_eff)
        y = np.linspace(-1.0, 1.0, 9) / p.delta_eff
        got = np.asarray(adiabatic_eit(w, med, p.t_d + y)).real
        shape = got / got[4]
        want = np.exp(-0.25 * p.delta_eff**2 * y**2)
        want /= want[4]
        np.testing.assert_allclose(shape, want, rtol=0.15)

    def test_simplified_form_close_at_matched_width(self, causal_unit, eit_example):
        # the reduced form phi_+ * exp(-d*tau) drops the nearly cancelling
        # residual-absorption and delay-damping exponents (delta_ph == gamma_m)
        tau = np.linspace(-2.0, 12.0, 1001)
        full = np.asarray(adiabatic_eit(causal_unit, eit_example, tau))
        p = eit_params(eit_example)
        d = causal_unit.delta_ph
        simp = phi_plus(d, p, tau) * np.exp(-d * tau)
        bound = math.exp(abs(p.t_eit - p.t_d)) - 1.0
        assert np.abs(full - simp).max() <= max(bound, 0.05)
        assert np.abs(full - simp).max() < 0.05


class TestAdiabaticKernels:
    def test_stable_forms_match_naive_formula(self, eit_example):
        # at the example parameters the naive erf expression is well
        # conditioned, so the erfcx-based branches must reproduce it exactly
        from scipy.special import erf as _erf

        from slowphoton.propagate import _r_pm

        p = eit_params(eit_example)
        d = 1.0
        r = d / p.delta_eff
        tau = np.linspace(-3.0, 12.0, 601)
        y = tau - p.t_d
        for sign in (+1, -1):
            naive = (
                0.5
                * math.exp(r * r)
                * (1.0 + sign * _erf(0.5 * p.delta_eff * y - sign * r))
                * np.exp(-p.t_eit - sign * d * y)
            )
            got = _r_pm(sign, d, p, tau)
            # the naive form underflows to 0 once 1 +- erf rounds off; the
            # erfcx branches stay finite there, hence the absolute floor
            np.testing.assert_allclose(got, naive, rtol=1e-12, atol=1e-14)


class TestPhiPlus:
    def test_rises_from_zero_to_one(self, eit_example):
        p = eit_params(eit_example)
        early = phi_plus(0.0, p, p.t_d - 4.0 / p.delta_eff)
        late = phi_plus(0.0, p, p.t_d + 4.0 / p.delta_eff)
        assert early < 5e-3
        assert late == pytest.approx(1.0, abs=5e-3)

    def test_halfway_at_delay_for_zero_width(self, eit_example):
        p = eit_params(eit_example)
        assert phi_plus(0.0, p, p.t_d) == pytest.approx(0.5)


class TestTotalEit:
    def test_gaussian_rejected(self, eit_example):
        w = PhotonWaveform(WaveformKind.GAUSSIAN, 1.0)
        with pytest.raises(UnsupportedWaveformError, match="numeric"):
            total_eit(w, eit_example, TimeGrid(-1.0, 5.0, 101))

    def test_wide_photon_rejected(self, eit_example):
        w = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 20.0)
        with pytest.raises(ValidityError):
            total_eit(w, eit_example, TimeGrid(-1.0, 5.0, 101))

    @pytest.mark.parametrize("delta_ph", [1.0, 10.0])
    def test_oracle_agreement_measured_band(self, eit_example, delta_ph):
        # the two-component closed form deviates from the exact propagation
        # by up to ~6e-2 in the beat region (the broad part neglects the
        # coupling); late times agree much more tightly
        w = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, delta_ph)
        grid = TimeGrid(-2.0, 12.0, 2801)
        tau = grid.times()
        num = propagate_numeric(w, eit_example, grid)
        tot = total_eit(w, eit_example, grid)
        err = np.abs(num.amplitude - tot.amplitude)
        mask = mask_near_zero(tau, grid.spacing)
        assert err[mask].max() < 8e-2
        assert err[tau > 2.5].max() < 2e-2

    def test_split_inputs_oracle_agreement_measured_band(
        self, sym_unit, anti_unit, eit_example
    ):
        # symmetric total: no spike, little beat content, agrees to ~3e-3;
        # antisymmetric total carries the beats and their ~6e-2 mismatch
        grid = TimeGrid(-2.0, 12.0, 2801)
        tau = grid.times()
        mask = mask_near_zero(tau, grid.spacing)
        late = tau > 2.5
        for w, band in ((sym_unit, 5e-3), (anti_unit, 8e-2)):
            num = propagate_numeric(w, eit_example, grid)
            tot = total_eit(w, eit_example, grid)
            err = np.abs(num.amplitude - tot.amplitude)
            assert err[mask].max() < band
            assert err[late].max() < 2e-3

    def test_positive_start_grid(self, causal_unit):
        # grids that begin after the jump are legitimate and accurate
        grid = TimeGrid(0.5, 5.0, 1801)
        num = propagate_numeric(causal_unit, MatchedLine(1.0, 10.0), grid)
        ana = analytic_matched(1.0, 10.0, grid.times())
        assert np.abs(num.amplitude - ana).max() < 1e-6

    def test_fast_parts_of_both_widths_nearly_identical(self, eit_example):
        # the spike does not depend on the photon width: compare the
        # numeric envelopes for delta_ph = gamma_m and delta_ph = Gamma
        # just after tau = 0
        zoom = TimeGrid(-2e-3, 8e-3, 501)
        w1 = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 1.0)
        w2 = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 10.0)
        out1 = propagate_numeric(w1, eit_example, zoom)
        out2 = propagate_numeric(w2, eit_example, zoom)
        t = zoom.times()
        spike = t > 2 * zoom.spacing
        assert np.abs(out1.amplitude - out2.amplitude)[spike].max() < 0.06

    def test_spike_duration_scales_with_inverse_alpha0l(self):
        # duration ~ 1/(alpha0*l): time of the first null of the spike
        w = PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 1.0)

        def first_null(thickness):
            med = EitMedium(10.0, 1.0, 20.0, thickness)
            zoom = TimeGrid(0.0, 40.0 / med.alpha0_l, 2001)
            out = total_eit(w, med, zoom)
            sign = np.sign(out.amplitude.real)
            flips = np.nonzero(np.diff(sign) != 0)[0]
            return zoom.times()[flips[0]]

        t30, t60 = first_null(30.0), first_null(60.0)
        assert t30 / t60 == pytest.approx(2.0, rel=0.05)

    def test_spike_sits_in_antisymmetric_part(self, sym_unit, anti_unit, eit_example):
        zoom = TimeGrid(-5e-4, 5e-4, 401)
        t = zoom.times()
        iL = np.argmin(np.abs(t + 2 * zoom.spacing))
        iR = np.argmin(np.abs(t - 2 * zoom.spacing))
        out_s = total_eit(sym_unit, eit_example, zoom)
        out_a = total_eit(anti_unit, eit_example, zoom)
        jump_s = abs(out_s.amplitude[iR] - out_s.amplitude[iL])
        jump_a = abs(out_a.amplitude[iR] - out_a.amplitude[iL])
        assert jump_s < 0.1
        assert jump_a > 0.9

    @pytest.mark.parametrize("kind", [C, S, A])
    def test_near_matched_width_stays_bounded(self, eit_example, kind):
        # delta_ph = Gamma*(1 - 1e-9) puts T_- = 3e10 into the broad-line
        # parts; the result must approach the matched delta_ph = Gamma one
        grid = TimeGrid(-2.0, 15.0, 1701)
        near = total_eit(PhotonWaveform(kind, 10.0 * (1.0 - 1e-9)), eit_example, grid)
        at = total_eit(PhotonWaveform(kind, 10.0), eit_example, grid)
        assert np.abs(near.amplitude - at.amplitude).max() < 1e-8


class TestGaussianBroad:
    def test_zero_thickness_reproduces_input(self):
        tau = np.linspace(-5, 5, 101)
        got = gaussian_broad(1.0, 20.0, 0.0, tau)
        np.testing.assert_allclose(got.real, np.exp(-0.25 * tau**2), rtol=1e-14)

    def test_validity_gate(self):
        with pytest.raises(ValidityError, match="f\\*T"):
            gaussian_broad(1.0, 2.0, 5.0, 0.0)

    def test_beer_attenuation_and_advance(self):
        # narrow photon: peak eta*exp(-T) sits at tau = -T/Gamma
        d, g, t_eff = 1.0, 100.0, 2.0
        eta = 1.0 / math.sqrt(1.0 - (d / g) ** 2 * t_eff)
        peak_tau = -t_eff / g
        val = gaussian_broad(d, g, t_eff, peak_tau)
        assert val.real == pytest.approx(eta * math.exp(-t_eff), rel=1e-12)
        left = gaussian_broad(d, g, t_eff, peak_tau - 0.3)
        right = gaussian_broad(d, g, t_eff, peak_tau + 0.3)
        assert left.real == pytest.approx(right.real, rel=1e-12)

    def test_against_numeric(self):
        w = PhotonWaveform(WaveformKind.GAUSSIAN, 1.0)
        med = BroadLine(gamma_total=20.0, thickness=2.0)
        grid = TimeGrid(-8.0, 8.0, 1601)
        num = propagate_numeric(w, med, grid)
        ana = gaussian_broad(1.0, 20.0, 2.0, grid.times())
        assert np.abs(num.amplitude - ana).max() < 1e-2


class TestTimeSeries:
    def test_length_mismatch_rejected(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            TimeSeries(grid, np.zeros(5))
