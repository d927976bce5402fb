"""Transmission solutions: closed forms against the spectral oracle."""

import itertools
import math
import multiprocessing
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.special import j0, roots_legendre

from slowphoton import propagate
from slowphoton.cli import Scenario, validate
from slowphoton.errors import ConvergenceError, UnsupportedWaveformError, ValidityError
from slowphoton.media import BroadLine, EitMedium, MatchedLine, eit_params, spectral_response
from slowphoton.propagate import (
    TimeSeries,
    _beat_integral,
    _fast_len,
    _remainder_integrand,
    _subtraction,
    _window,
    adiabatic_eit,
    analytic_matched,
    analytic_parts_broad,
    analytic_parts_matched,
    approx_broad,
    gaussian_broad,
    phi_plus,
    propagate_numeric,
    spectral_lattice,
    total_eit,
)
from slowphoton.waveforms import (
    PhotonWaveform,
    TimeGrid,
    WaveformKind,
    _from_parts,
    sample,
    spectral_amplitude,
    time_amplitude,
)

from conftest import mask_near_zero

C, S, A, G = (
    WaveformKind.EXPONENTIAL_CAUSAL,
    WaveformKind.SYMMETRIC_PART,
    WaveformKind.ANTISYMMETRIC_PART,
    WaveformKind.GAUSSIAN,
)
# (t_eff, decay, rate, tau_max) of the beat integrals behind the presets.
# A matched line of thickness T calls the rule (T/2, 1, 2*delta_ph): fig2
# (T = 10), fig6b's medium at delta_ph = Gamma (T = 30, rate 20) and the
# sweep's thickest matched line (alpha0*l = 40).  Broad lines call
# (T_-+, 1, Gamma -+ delta_ph): fig3a (T_b = 10, Gamma = 10: T_-+ = 100/9,
# 100/11), fig6a and fig7 (EIT nonadiabatic part, T_b = 30: T_-+ = 300/9,
# 300/11).  The last is a thin matched line (T = 0.1) to tau = 39, where each
# term of `_beat_order` rounds up to one or two nodes.
BEAT_SETS = [
    (5.0, 1.0, 2.0, 10.0),
    (100.0 / 9.0, 1.0, 9.0, 2.5),
    (100.0 / 11.0, 1.0, 11.0, 2.5),
    (300.0 / 9.0, 1.0, 9.0, 15.0),
    (300.0 / 11.0, 1.0, 11.0, 15.0),
    (15.0, 1.0, 20.0, 15.0),
    (20.0, 1.0, 2.0, 10.0),
    (0.05, 1.0, 2.0, 39.0),
]
ROUTING_MEDIA = [MatchedLine(1.0, 5.0), BroadLine(10.0, 2.0), EitMedium(10.0, 1.0, 20.0, 3.0)]
# Grids of the fill tests: ROUTING_MEDIA fill one slice a level on each, except
# level 0 on FILL_GRID, read off level 1's lattice (no fill of its own);
# THICK_EIT reads level 0 off level 1's 17 slices on FILL_GRID and fills 9 and
# 33 slices on ZOOM_FILL_GRID.
FILL_GRID = TimeGrid(-1.0, 6.0, 601)
ZOOM_FILL_GRID = TimeGrid(-1e-3, 1e-3, 2001)
THICK_EIT = EitMedium(10.0, 1.0, 20.0, 300.0)
# Grids finer than ~pi/nu_max whose aligned FFT lattice would exceed the cap,
# so the chirp-z zoom transforms them; small enough that an exact-phase sum
# over the same lattice (m frequencies x n points) stays below ~2e7 terms.
ZOOM_CASES = [
    (C, MatchedLine(1.0, 10.0), TimeGrid(-1e-3, 1e-3, 2001)),
    (A, BroadLine(10.0, 10.0), TimeGrid(-2e-4, 2e-4, 401)),
    (C, EitMedium(10.0, 1.0, 20.0, 30.0), TimeGrid(0.0, 1e-3, 201)),
    (G, BroadLine(10.0, 1.0), TimeGrid(-1e-3, 1e-3, 2001)),
]

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
        assert type(got) is float
        assert got == pytest.approx(math.exp(-1.0) * j0, rel=1e-12, abs=1e-13)


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


class TestBeatCut:
    # (delta_ph, Gamma, alpha0*l): a matched line, cut at tau = 40, and a
    # broad one, cut at tau = 4
    LINES = [(1.0, 1.0, 10.0), (1.0, 10.0, 100.0)]

    @pytest.mark.parametrize("d, g, alpha0_l", LINES, ids=["matched", "broad"])
    def test_past_the_cut_only_exp_minus_40_is_dropped(self, d, g, alpha0_l):
        tau = 40.0 / g * np.array([1.01, 1.2, 1.5, 3.0])
        got = propagate._line_parts(d, g, alpha0_l, tau)
        g_plus = _beat_integral(alpha0_l / (g + d), 1.0, g + d, tau)
        if g > d:
            t_minus = alpha0_l / (g - d)
            g_minus = _beat_integral(t_minus, 1.0, g - d, tau)
            slow = 0.5 * np.exp(-d * tau - t_minus)
        else:
            g_minus, slow = j0(2.0 * np.sqrt(alpha0_l * tau)), 0.0
        fast = 0.5 * np.exp(-g * tau)
        for part, sign in zip(got, (-1.0, 1.0)):
            assert np.abs(part - (slow + fast * (g_minus + sign * g_plus))).max() <= math.exp(-40.0)

    @pytest.mark.parametrize(
        "analytic_parts",
        [lambda t: analytic_parts_matched(1.0, 10.0, t), lambda t: analytic_parts_broad(1.0, 10.0, 10.0, t)],
        ids=["matched", "broad"],
    )
    def test_rule_is_bounded_in_tau(self, analytic_parts):
        # a rule sized from the largest tau took 34 s at t_end = 1e8
        tau = TimeGrid(-1.0, 1e12, 1401).times()
        start = time.perf_counter()
        parts = analytic_parts(tau)
        assert time.perf_counter() - start < 5.0
        assert all(np.all(np.isfinite(part)) for part in parts)

    @pytest.mark.parametrize("d, g, alpha0_l", LINES, ids=["matched", "broad"])
    @pytest.mark.parametrize(
        "grid", [TimeGrid(-4.0, 10.0, 1401), TimeGrid(0.3, 60.0, 777)], ids=["across_zero", "after_zero"]
    )
    def test_checked_work_bounds_the_rules_j0_evaluations(self, d, g, alpha0_l, grid, monkeypatch):
        monkeypatch.setattr(propagate, "_MAX_BEAT_WORK", 0)
        with pytest.raises(ConvergenceError, match=r"need (\d+) J0 evaluations") as info:
            propagate._check_beat_work(d, g, alpha0_l, grid)
        checked = int(re.search(r"need (\d+)", str(info.value)).group(1))
        rule_j0 = []  # the tau x node matrices of the beat rules, not the matched line's own J0
        bessel = propagate._sp.j0
        monkeypatch.setattr(propagate._sp, "j0", lambda x: rule_j0.append(x.size * (x.ndim == 2)) or bessel(x))
        propagate._line_parts(d, g, alpha0_l, grid.times())
        assert 0 < sum(rule_j0) <= checked
        monkeypatch.setattr(propagate, "_MAX_BEAT_WORK", checked)
        propagate._check_beat_work(d, g, alpha0_l, grid)


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

    def test_kept_rules_are_read_only(self):
        # the rules are shared between calls, so a write in place must fail, not leak into the next call
        nodes, weights = propagate._legendre(72)
        assert propagate._legendre(72)[0] is nodes
        for part in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                part[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                part *= 2.0
        np.testing.assert_array_equal(nodes, roots_legendre(72)[0])
        np.testing.assert_array_equal(weights, roots_legendre(72)[1])


class TestBeatIntegralProperties:
    """The beat rules against mpmath over the lines `validate` accepts, not only the presets'."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        d=st.floats(0.5, 5.0),
        ratio=st.one_of(st.just(1.0), st.floats(1.01, 20.0)),
        alpha0_l=st.floats(-2.0, 2.5).map(lambda e: 10.0**e),
        slow=st.booleans(),
        cut=st.floats(0.01, 1.0),
        share=st.floats(0.001, 1.0),
        decay=st.floats(0.5, 2.0),
    )
    def test_matches_mpmath_reference(self, d, ratio, alpha0_l, slow, cut, share, decay):
        # a line (d, Gamma, alpha0*l) calls the rules (alpha0*l/(Gamma -+ d), 1, Gamma -+ d) on
        # tau <= 40/Gamma, the matched line only the fast one; decay is drawn around that 1.
        # The rule is sized for tau_max, a share `cut` of that range, and checked at a share of it.
        g = ratio * d
        tau_max = cut * propagate._DEPTH_SPAN / g
        propagate._check_beat_work(d, g, alpha0_l, TimeGrid(0.0, tau_max, 1001))
        rate = g - d if slow and g > d else g + d
        tau = np.array([share * tau_max, tau_max])
        got = _beat_integral(alpha0_l / rate, decay, rate, tau)[0]
        assert abs(got - _mp_beat(alpha0_l / rate, decay, rate, tau[0])) <= 1e-12


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
        # small grids take the FFT too; a rotation sum over the accepted
        # level's window is the reference it must reproduce
        w = PhotonWaveform(kind, 1.0)
        grid = TimeGrid(-1.0, 6.0, n_points)
        tau = grid.times()
        out = propagate_numeric(w, medium, grid)
        conv = out.convergence
        assert conv["strategy"] == "fft"
        nu_max, period, _ = _window(w, medium, grid)
        scale = 2 ** conv["iterations"]
        rem = _rotation_sum(w, medium, grid, nu_max * scale, period * scale)
        closed, _ = _subtraction(w, medium, grid)
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
        for block in (1000, n_freq):
            monkeypatch.setattr(propagate, "_RULE_BLOCK", block)
            out = propagate_numeric(causal_unit, med, grid)
            assert np.abs(out.amplitude - base.amplitude).max() <= 1e-13

    @pytest.mark.parametrize(
        "medium, grid, strategy, slices",
        [
            pytest.param(medium, grid, strategy, slices, id=f"{type(medium).__name__}-{strategy}")
            for grid, strategy, routed in [(FILL_GRID, "fft", [[0, 1]] * 3),
                                           (ZOOM_FILL_GRID, "zoom", [[1, 1]] * 3)]
            for medium, slices in zip(ROUTING_MEDIA, routed)
        ]
        + [
            pytest.param(THICK_EIT, FILL_GRID, "fft", [0, 17], id="thick_EitMedium-fft"),
            pytest.param(THICK_EIT, ZOOM_FILL_GRID, "zoom", [9, 33], id="thick_EitMedium-zoom"),
        ],
    )
    def test_parallel_fill_equals_serial_fill_bitwise(
        self, causal_unit, medium, grid, strategy, slices, monkeypatch
    ):
        parallel = propagate_numeric(causal_unit, medium, grid)
        assert parallel.convergence["strategy"] == strategy
        assert _fill_slices(causal_unit, medium, grid) == slices
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = propagate_numeric(causal_unit, medium, grid)
        assert np.array_equal(parallel.amplitude, serial.amplitude)
        assert parallel.convergence == serial.convergence

    def test_one_slice_level_starts_no_fill_thread(self, causal_unit, monkeypatch):
        med = MatchedLine(1.0, 10.0)
        base = propagate_numeric(causal_unit, med, FILL_GRID)
        assert _fill_slices(causal_unit, med, FILL_GRID) == [0, 1]

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-slice level started a fill pool")

        monkeypatch.setattr(propagate, "ThreadPoolExecutor", no_pool)
        out = propagate_numeric(causal_unit, med, FILL_GRID)
        assert np.array_equal(out.amplitude, base.amplitude)

    @pytest.mark.parametrize("thickness, slices, pooled", [(30.0, [0, 2], False), (50.0, [0, 3], False),
                                                           (60.0, [0, 4], True)])
    def test_fill_is_pooled_from_four_slices(self, causal_unit, monkeypatch, thickness, slices, pooled):
        # fig6a's medium, thickened: a pool of the 2 usable CPUs for 4 slices of level 1, which
        # also completes level 0, none for 2 or 3
        med, grid = EitMedium(10.0, 1.0, 20.0, thickness), TimeGrid(-2.0, 15.0, 1701)
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(propagate, "ThreadPoolExecutor", Recording)
        propagate_numeric(causal_unit, med, grid)
        assert _fill_slices(causal_unit, med, grid) == slices
        assert sizes == ([2] if pooled else [])

    @staticmethod
    def _failing_slice(monkeypatch):
        """Make the third integrand call, the third slice of the first fill, raise."""
        integrand = propagate._remainder_integrand
        calls = itertools.count()

        def failing(w, a, nu):
            if next(calls) == 2:
                raise FloatingPointError("slice 2 failed")
            return integrand(w, a, nu)

        monkeypatch.setattr(propagate, "_remainder_integrand", failing)

    def test_slice_error_reaches_caller_and_pool_survives(self, causal_unit, monkeypatch):
        grid = TimeGrid(-1.0, 6.0, 601)
        med = EitMedium(10.0, 1.0, 20.0, 300.0)
        # level 0 is read off level 1's lattice, whose fill is the first and raises: columns
        # 0..3,240 of 170 rows, 192 columns a slice, 17 slices
        assert _fill_slices(causal_unit, med, grid) == [0, 17]
        base = propagate_numeric(causal_unit, med, grid)
        with monkeypatch.context() as patch:
            self._failing_slice(patch)
            with pytest.raises(FloatingPointError, match="slice 2 failed"):
                propagate_numeric(causal_unit, med, grid)
        again = propagate_numeric(causal_unit, med, grid)
        assert np.array_equal(again.amplitude, base.amplitude)

    def test_no_fill_thread_outlives_the_call(self, causal_unit, monkeypatch):
        def fill_threads():
            return [t for t in threading.enumerate() if t.name.startswith("slowphoton-fill")]

        grid = TimeGrid(-1.0, 6.0, 601)
        med = EitMedium(10.0, 1.0, 20.0, 300.0)
        propagate_numeric(causal_unit, med, grid)
        assert fill_threads() == []
        self._failing_slice(monkeypatch)
        with pytest.raises(FloatingPointError, match="slice 2 failed"):
            propagate_numeric(causal_unit, med, grid)
        assert fill_threads() == []

    @pytest.mark.parametrize(
        "affinity, cpu_count, workers",
        [(True, None, None), (False, 3, 3), (False, None, 1)],
        ids=["sched_getaffinity", "cpu_count", "no_count"],
    )
    def test_fill_pool_uses_the_usable_cpus(
        self, causal_unit, monkeypatch, affinity, cpu_count, workers
    ):
        if affinity:
            if not hasattr(os, "sched_getaffinity"):
                pytest.skip("no sched_getaffinity")
            workers = len(os.sched_getaffinity(0))
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        sizes = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(propagate, "ThreadPoolExecutor", Recording)
        propagate_numeric(causal_unit, THICK_EIT, FILL_GRID)  # 5 and 17 slices
        # one usable CPU fills on the calling thread
        assert sizes == [workers] * len(sizes) and bool(sizes) == (workers > 1)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_forked_child_builds_its_own_fill_pool(self, causal_unit):
        # a forked child fills its 5- and 17-slice lattices on threads of its own
        base = propagate_numeric(causal_unit, THICK_EIT, FILL_GRID)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(propagate_numeric, (causal_unit, THICK_EIT, FILL_GRID)).get(timeout=60)
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
        with pytest.raises(ConvergenceError, match=r"of \d+ frequencies onto 1401 points") as info:
            propagate_numeric(causal_unit, med, grid)
        assert time.perf_counter() - start < 5.0
        assert int(re.search(r"needs (\d+)", str(info.value)).group(1)) > propagate._MAX_FFT_SAMPLES
        assert f"cap of {propagate._MAX_FFT_SAMPLES}" in str(info.value)

    @pytest.mark.parametrize("slack, refused", [(-1, True), (0, False)], ids=["below", "at"])
    def test_zoom_cap_counts_frequencies_plus_points(self, causal_unit, monkeypatch, slack, refused):
        # a cap of the accepted level's zoom frequencies plus its 2,001 points, or one sample less
        med = MatchedLine(1.0, 10.0)
        zoom = TimeGrid(-1e-3, 1e-3, 2001)
        level = propagate_numeric(causal_unit, med, zoom).convergence["iterations"]
        strategy, _, _, m, _ = spectral_lattice(causal_unit, med, zoom, level)
        assert strategy == "zoom"
        monkeypatch.setattr(propagate, "_MAX_FFT_SAMPLES", m + 2000 + slack)
        if refused:
            with pytest.raises(ConvergenceError, match=f"onto 2001 points needs {m + 2000} samples"):
                propagate_numeric(causal_unit, med, zoom)
        else:
            assert propagate_numeric(causal_unit, med, zoom).convergence["n_freq"] == m

    @pytest.mark.parametrize(
        "kind, medium, grid", ZOOM_CASES, ids=["matched", "broad", "eit", "gaussian"]
    )
    def test_zoom_matches_exact_phase_sum(self, kind, medium, grid):
        # level 0's lattice and its closing point nu = +nu_max, the two ends
        # at half weight, summed with exact integer phases j*k mod p
        w = PhotonWaveform(kind, 1.0)
        strategy, _, p, m, nu_max = spectral_lattice(w, medium, grid, 0)
        values, info = _own_fill(w, medium, grid, 0)
        assert info["strategy"] == strategy == "zoom"
        assert values.dtype == np.float64
        dnu = 2.0 * math.pi / (p * grid.spacing)
        k = np.arange(m + 1)
        g = _remainder_integrand(w, medium, dnu * (k - m / 2)) * np.exp(-1j * dnu * grid.t_start * k)
        g[[0, m]] *= 0.5
        tau = grid.times()
        exact = (dnu / (2.0 * math.pi)) * np.exp(1j * nu_max * tau) * _exact_phase_sum(g, tau.size, p)
        assert np.abs(values - exact).max() <= 1e-13

    @pytest.mark.parametrize(
        "kind, medium, grid, short_period",
        [
            # t_start/spacing = -200, mdiv = 1 at level 0
            (C, MatchedLine(1.0, 5.0), TimeGrid(-2.0, 15.0, 1701), False),
            # t_start/spacing = -85.71..., mdiv = 2 at level 0
            (A, BroadLine(10.0, 2.0), TimeGrid(-1.0, 6.0, 601), False),
            # t_start/spacing = +30.58..., mdiv = 4 at level 0
            (S, EitMedium(10.0, 1.0, 20.0, 3.0), TimeGrid(0.37, 4.0, 301), False),
            # a period of p = n_points steps: the bins (j + s0) mod p wrap
            (C, BroadLine(10.0, 2.0), TimeGrid(-1.0, 4.99, 600), True),
            # odd p = 675: no self-mirrored column p/2
            (C, BroadLine(10.0, 2.0), TimeGrid(-1.0, 5.74, 675), True),
            # odd m = 3*675 at level 0: no lattice point at nu = 0
            (S, BroadLine(10.0, 2.0), TimeGrid(-1.0, 9.11, 675), True),
        ],
        ids=["integer_offset", "negative_offset", "positive_offset", "p_is_n", "odd_p", "odd_m"],
    )
    @pytest.mark.parametrize("level", [0, 1])
    def test_fold_matches_exact_phase_sum(self, kind, medium, grid, short_period, level, monkeypatch):
        # the lattice and its closing point nu = +nu_half summed point by point,
        # the two ends at half weight, each phase reduced mod 2p in integers
        w = PhotonWaveform(kind, 1.0)
        if short_period:
            nu_max = _window(w, medium, grid)[0]
            monkeypatch.setattr(propagate, "_window", lambda *_: (nu_max, 1.0, None))
        strategy, mdiv, p, m, _ = spectral_lattice(w, medium, grid, level)
        assert strategy == "fft"
        # level 1 doubles level 0's p: the wrapping bins and the odd p are level 0's cases
        assert p == grid.n_points << level if short_period else p > grid.n_points
        values, info = _own_fill(w, medium, grid, level)
        assert info["n_freq"] == m
        x = grid.t_start / grid.spacing
        s0, f = math.floor(x), x - math.floor(x)
        k = np.arange(m + 1, dtype=np.int64)
        dnu = 2.0 * math.pi / (p * grid.spacing)
        h = _remainder_integrand(w, medium, dnu * (k - m / 2))
        h[[0, m]] *= 0.5
        # -nu_k*tau_j = (pi/p)*(mdiv*p - 2k)*(s0 + j + f)
        turns = mdiv * p - 2 * k
        exact = [
            h @ np.exp(1j * math.pi / p * ((turns * (s0 + j)) % (2 * p) + turns * f))
            for j in range(grid.n_points)
        ]
        assert np.abs(values - (dnu / (2.0 * math.pi)) * np.array(exact)).max() <= 1e-13

    @pytest.mark.parametrize(
        "grid", [TimeGrid(-2.0, 15.0, 1701), TimeGrid(-1.0, 6.0, 601)], ids=["integer_offset", "offset"]
    )
    @pytest.mark.parametrize("medium", ROUTING_MEDIA, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("kind", [C, S, A, G], ids=lambda k: k.value)
    def test_folded_oracle_is_real(self, kind, medium, grid):
        # real sources through real impulse responses: the folded spectrum is
        # Hermitian, and its real-output transform gives real samples
        out = propagate_numeric(PhotonWaveform(kind, 1.0), medium, grid)
        assert out.convergence["strategy"] == "fft"
        assert out.amplitude.dtype == np.float64

    def test_fig6a_period_doubling_is_stable(self, monkeypatch):
        # fig6a's level 1 moved by 4.0e-11 at tau = 0.39 when its period
        # doubled while the lattice was filled at -nu_half + k*dnu
        w = PhotonWaveform(C, 1.0)
        medium, grid = EitMedium(10.0, 1.0, 20.0, 30.0), TimeGrid(-2.0, 15.0, 1701)
        base, _ = _own_fill(w, medium, grid, 1)
        nu_max, period, images = _window(w, medium, grid)
        monkeypatch.setattr(propagate, "_window", lambda *_: (nu_max, 2.0 * period, images))
        doubled, info = _own_fill(w, medium, grid, 1)
        assert info["strategy"] == "fft"
        assert np.abs(doubled - base).max() <= 1e-12

    def test_fine_grid_falls_back_to_direct_summation(self, causal_unit):
        # many points at micro spacing: FFT alignment would need > 2**22
        # samples, so the chirp-z zoom must take over and stay accurate
        med = MatchedLine(1.0, 10.0)
        zoom = TimeGrid(-1e-3, 1e-3, 2001)
        out = propagate_numeric(causal_unit, med, zoom)
        assert out.convergence["strategy"] == "zoom"
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
    def test_near_double_pole_runs(self, causal_unit, med, grid):
        # near-coincident poles, whose partial fractions cancel to round-off
        # bounds of 2.2e-4 to 2.2e4; the chain matrix's exponential does not
        out = propagate_numeric(causal_unit, med, grid)
        assert out.convergence["roundoff"] <= 1e-12
        tau = grid.times()
        if isinstance(med, BroadLine):
            b_s, b_a = analytic_parts_broad(1.0, med.gamma_total, med.thickness, tau)
            mask = mask_near_zero(tau, grid.spacing)
            assert np.abs(out.amplitude - (b_s + b_a))[mask].max() <= 1e-4
        else:
            critical = propagate_numeric(causal_unit, EitMedium(10.0, 1.0, 4.5, 30.0), grid)
            assert np.abs(out.amplitude - critical.amplitude).max() <= 1e-5

    def test_convergence_diagnostics_recorded(self, causal_unit):
        grid = TimeGrid(-1.0, 5.0, 1501)
        out = propagate_numeric(causal_unit, MatchedLine(1.0, 5.0), grid)
        conv = out.convergence
        assert conv["drift"] <= 1e-5
        assert conv["iterations"] == 1
        _, mdiv, p, _, _ = spectral_lattice(causal_unit, MatchedLine(1.0, 5.0), grid, 1)
        assert conv["n_freq"] == mdiv * p

    @pytest.mark.parametrize("kind", [C, S, A])
    @pytest.mark.parametrize(
        "med",
        [MatchedLine(1.0, 1.0), MatchedLine(1.0, 10.0), MatchedLine(1.0, 100.0),
         BroadLine(1.5, 4.0), BroadLine(10.0, 10.0), BroadLine(3.0, 30.0)],
        ids=["matched_1", "matched_10", "matched_100", "broad_1.5_4", "broad_10_10", "broad_3_30"],
    )
    def test_error_within_recorded_tail_bound(self, kind, med):
        # the closed-form parts are exact, so what is left is the dropped tail
        # and the round-off of adding the subtracted orders back
        grid = TimeGrid(-4.0, 10.0, 1401)
        tau = grid.times()
        out = propagate_numeric(PhotonWaveform(kind, 1.0), med, grid)
        conv = out.convergence
        assert conv["tail_bound"] <= propagate._TAIL_TOL
        b_s, b_a = propagate._line_parts(1.0, med.linewidth, med.alpha0_l, tau)
        exact = {C: b_s + b_a, S: b_s, A: b_a}[kind]
        mask = mask_near_zero(tau, grid.spacing)
        assert np.abs(out.amplitude - exact)[mask].max() <= conv["tail_bound"] + conv["roundoff"]

    @pytest.mark.parametrize(
        "med", [MatchedLine(1.0, 100.0), EitMedium(10.0, 1.0, 20.0, 30.0)], ids=["matched", "eit"]
    )
    def test_tighter_tail_tolerance_moves_within_the_bound(self, causal_unit, monkeypatch, med):
        # a wider window adds only the band that the first run dropped
        grid = TimeGrid(-2.0, 15.0, 1701)
        out = propagate_numeric(causal_unit, med, grid)
        monkeypatch.setattr(propagate, "_TAIL_TOL", 1e-9)
        propagate._window.cache_clear()  # the kept window was sized by the old tolerance
        wide = propagate_numeric(causal_unit, med, grid)
        assert wide.convergence["nu_max"] > out.convergence["nu_max"]
        bound = sum(r.convergence["tail_bound"] + r.convergence["roundoff"] for r in (out, wide))
        assert np.abs(out.amplitude - wide.amplitude).max() <= bound

    def test_window_reaches_past_the_eit_lines(self, causal_unit):
        # Autler-Townes lines at +-2000, past 50*Gamma, the alpha0*l window and,
        # at level 1, the 0.01 grid's own +-2*pi/spacing; a 0.001 grid covers them
        med = EitMedium(2.0, 1.0, 2000.0, 1.0)
        out = propagate_numeric(causal_unit, med, TimeGrid(-2.0, 15.0, 1701))
        fine = propagate_numeric(causal_unit, med, TimeGrid(-2.0, 15.0, 17001))
        # both bounds are below 1e-16 here: the FFTs' own round-off, ~1e-16, is the floor
        bound = sum(r.convergence["tail_bound"] + r.convergence["roundoff"] for r in (out, fine))
        assert np.abs(out.amplitude - fine.amplitude[::10]).max() <= bound + 1e-15

    def test_nonconvergence_raises(self, causal_unit, monkeypatch):
        grid = TimeGrid(-1.0, 5.0, 1501)
        monkeypatch.setattr(propagate, "_DRIFT_TOL", 1e-16)
        with pytest.raises(ConvergenceError, match="drift"):
            propagate_numeric(causal_unit, MatchedLine(1.0, 10.0), grid)

    @pytest.mark.parametrize(
        "kind, delta_ph, med, grid, drift",
        [
            # a third, refined level once accepted this thick line's trace 2.0e-5 off analytic_parts,
            # further off than levels 0 and 1
            (A, 7.181946415776719, MatchedLine(7.181946415776719, 1794.4192954532461),
             TimeGrid(-0.23443496233427555, 1.2639388414906871, 51), 1.776e-5),
            # a third level's chirp-z zoom once passed the cap, and its error named the cap, not the drift
            (C, 2.1426250512176748, BroadLine(2.4605549629879584, 2002.395866220482),
             TimeGrid(-0.8661201126205796, 17.442371093718336, 86), 1.490e-4),
        ],
        ids=["matched_antisymmetric", "broad_causal"],
    )
    def test_thick_line_drift_is_named(self, kind, delta_ph, med, grid, drift):
        # configs that validate accepts: the run fills two levels and names their drift
        w = PhotonWaveform(kind, delta_ph)
        assert validate(Scenario("thick", "gamma", w, med, grid, ["numeric"], ["time_trace"]))[0] == []
        with pytest.raises(ConvergenceError, match=r"drift \S+ between levels 0 and 1") as info:
            propagate_numeric(w, med, grid)
        assert float(re.search(r"drift (\S+)", str(info.value)).group(1)) == pytest.approx(drift, rel=1e-3)


def _rotation_sum(w, a, grid, nu_max, period):
    """Remainder sum over [-nu_max, nu_max) at step 2pi/period, one phase rotation per grid step."""
    dnu = 2.0 * math.pi / period
    nu = -nu_max + dnu * np.arange(math.ceil(2.0 * nu_max / dnu))
    phase = _remainder_integrand(w, a, nu) * (dnu / (2.0 * math.pi)) * np.exp(-1j * nu * grid.t_start)
    step = np.exp(-1j * nu * grid.spacing)
    values = np.empty(grid.n_points, dtype=complex)
    for j in range(grid.n_points):
        values[j] = phase.sum()
        phase *= step
    return values


def _exact_phase_sum(g, n, p):
    """sum_k g[k] * exp(-2i*pi*j*k/p) for j < n, with j*k reduced mod p in integers."""
    k = np.arange(g.size, dtype=np.int64)
    return np.array([g @ np.exp(-2j * np.pi * ((j * k) % p) / p) for j in range(n)])


def _assert_parts_match_oracle(kind, delta_ph, medium, b_s, b_a, grid):
    w = PhotonWaveform(kind, delta_ph)
    num = propagate_numeric(w, medium, grid).amplitude
    ana = {C: b_s + b_a, S: b_s, A: b_a}[kind]
    mask = mask_near_zero(grid.times(), grid.spacing)
    assert np.abs(num - ana)[mask].max() <= 1e-4


def _fill_slices(w, a, grid):
    """The number of `_row_blocks` slices that fill levels 0 and 1 of the oracle's lattice.

    Level 0 counts 0 where level 1 is an aligned FFT: its columns are completed within level 1's slices.
    """
    slices = []
    for level in (0, 1):
        strategy, mdiv, p, m, _ = spectral_lattice(w, a, grid, level)
        blocks = propagate._row_blocks(p // 2 + 1, mdiv) if strategy == "fft" else propagate._row_blocks(m, 1)
        slices.append(len(blocks))
    if strategy == "fft":
        slices[0] = 0
    return slices


def _own_fill(w, a, grid, level):
    """(values, info) of the oracle's lattice at `level`, filled on its own rather than read off another."""
    return propagate._fill(w, a, grid, spectral_lattice(w, a, grid, level))[-1]


def _property_grid(delta_ph):
    # about 8 source decay times before tau = 0 and 10 after, as the sweep runs
    return TimeGrid(-8.0 / delta_ph, 10.0 / delta_ph, 601)


class TestFastLen:
    """The lattice's FFT lengths: scipy's real-transform lengths, from a table, up to the cap."""

    def test_every_small_length(self):
        assert [_fast_len(n) for n in range(1, 20_001)] == [next_fast_len(n, real=True) for n in range(1, 20_001)]

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, propagate._MAX_FFT_SAMPLES))
    def test_sampled_lengths(self, n):
        assert _fast_len(n) == next_fast_len(n, real=True)

    def test_the_cap(self):
        assert _fast_len(propagate._MAX_FFT_SAMPLES) == next_fast_len(2**22, real=True) == 2**22


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


class TestOracleInvariantsProperties:
    """The oracle's own invariants over EIT media, near-critical couplings included."""

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.floats(6.0, 12.0),
        omega_frac=st.floats(0.0, 1.0),
        critical=st.one_of(st.none(), st.floats(-12.0, -2.0)),
        alpha0_l=st.floats(1.0, 300.0),
        delta_ph=st.floats(1.0, 2.0),
    )
    def test_eit(self, gamma, omega_frac, critical, alpha0_l, delta_ph):
        # gamma_m = 1; Omega from sqrt(gamma_m*Gamma) to 1.5*Gamma, or 1e-12 to
        # 1e-2 off the critical coupling (Gamma - gamma_m)/2, on either side
        if critical is None:
            omega = math.sqrt(gamma) + omega_frac * (1.5 * gamma - math.sqrt(gamma))
        else:
            offset = math.copysign(10.0**critical, omega_frac - 0.5)
            omega = 0.5 * (gamma - 1.0) * (1.0 + offset)
        medium = EitMedium(gamma, 1.0, omega, alpha0_l / gamma)
        grid = _property_grid(delta_ph)
        tau = grid.times()
        sources = [PhotonWaveform(k, delta_ph) for k in (C, S, A)]
        thin = EitMedium(gamma, 1.0, omega, 0.0)
        for w in sources:
            assert np.array_equal(propagate_numeric(w, thin, grid).amplitude, time_amplitude(w, tau))
        out_c, out_s, out_a = [propagate_numeric(w, medium, grid) for w in sources]
        b_c, b_s, b_a = out_c.amplitude, out_s.amplitude, out_a.amplitude
        assert np.abs(b_c).max() <= 1.0 + 1e-9
        assert np.abs(b_c[tau < -2 * grid.spacing]).max() <= 1e-5
        assert np.abs(b_c - b_s - b_a).max() <= 1e-5


# The integrand's arithmetic as plain complex expressions, the references that
# spectral_response, spectral_amplitude and _exp_remainder match bit for bit
# without complex casts or complex divisions by reals
def _plain_response(a, nu):
    if isinstance(a, EitMedium):
        gm, g = a.gamma_m, a.gamma_total
        num = a.alpha0_l * (gm - 1j * nu)
        den = (g - 1j * nu) * (gm - 1j * nu) + a.omega**2
        return num / den
    return a.alpha0_l / (a.linewidth - 1j * nu)


def _plain_amplitude(w, nu):
    d = w.delta_ph
    if w.kind is C:
        return 1.0 / (d - 1j * nu)
    if w.kind is S:
        return d / (d * d + nu * nu) + 0j
    if w.kind is A:
        return 1j * nu / (d * d + nu * nu)
    return (2.0 * math.sqrt(math.pi) / d) * np.exp(-(nu / d) ** 2) + 0j


def _plain_exp_remainder(x, orders):
    taylor = np.ones_like(x)
    for k in range(orders, 0, -1):
        taylor *= x
        taylor /= k
        taylor += 1.0
    return np.exp(x) - taylor


# detunings at the signed zeros, the least subnormal and far past any window
SPECIAL_NU = [0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150]
_NU = st.one_of(st.sampled_from(SPECIAL_NU), st.floats(-1e4, 1e4), st.floats(-1e150, 1e150))


@st.composite
def _source_and_medium(draw):
    """A source and a matched, broad (or near-matched), EIT (or near-critical) medium."""
    d = draw(st.floats(0.05, 20.0))
    w = PhotonWaveform(draw(st.sampled_from([C, S, A, G])), d)
    thickness = draw(st.floats(0.0, 100.0))
    shape = draw(st.sampled_from(["matched", "broad", "near_matched", "eit", "near_critical"]))
    if shape == "matched":
        return w, MatchedLine(d, thickness)
    if shape in ("broad", "near_matched"):
        ratio = draw(st.floats(1.0, 50.0)) if shape == "broad" else 1.0 + draw(st.sampled_from([1e-12, 1e-8, 1e-4]))
        return w, BroadLine(ratio * d, thickness)
    gamma_m = draw(st.floats(0.05, 5.0))
    gamma = gamma_m * (1.0 + draw(st.floats(0.01, 50.0)))
    if shape == "eit":
        omega = draw(st.floats(0.01, 100.0))
    else:  # (Gamma - gamma_m)/2, on it or 1e-12 to 1e-4 off it
        omega = 0.5 * (gamma - gamma_m) * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-4, -1e-4])))
    return w, EitMedium(gamma, gamma_m, omega, thickness)


class TestIntegrandArithmetic:
    """spectral_response, spectral_amplitude and the integrand keep the bits of the plain expressions."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(pair=_source_and_medium(), nu=st.lists(_NU, min_size=1, max_size=40))
    def test_arrays_match_plain_expressions(self, pair, nu):
        w, a = pair
        nu = np.array(nu + SPECIAL_NU)
        orders = propagate._SUBTRACT_ORDERS if w.kind in propagate.PART_WEIGHTS else 0
        response, amplitude = _plain_response(a, nu), _plain_amplitude(w, nu)
        assert np.array_equal(spectral_response(a, nu), response)
        assert np.array_equal(spectral_amplitude(w, nu), amplitude)
        got = _remainder_integrand(w, a, nu.reshape(2, -1) if nu.size % 2 == 0 else nu)
        assert np.array_equal(got.ravel(), _plain_exp_remainder(-response, orders) * amplitude)
        # the image model's real arguments are still divided by each order
        real = np.concatenate([response.real, np.clip(nu, -700.0, 700.0)])
        assert np.array_equal(propagate._exp_remainder(real.copy(), orders), _plain_exp_remainder(real, orders))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(pair=_source_and_medium(), nu=_NU, zero_d=st.booleans())
    def test_scalars_return_complex(self, pair, nu, zero_d):
        w, a = pair
        arg = np.array(nu) if zero_d else nu
        for got, plain in [
            (spectral_response(a, arg), _plain_response(a, np.asarray(nu))),
            (spectral_amplitude(w, arg), _plain_amplitude(w, np.asarray(nu))),
        ]:
            assert type(got) is complex
            assert got == complex(plain)


# h(nu) = b(0, nu)*(exp(x) - sum_{k<=K} x**k/k!), x = -A(nu)*l, K = 3 (0 for the
# Gaussian): (kind, medium, nu, Re h, Im h) from a 40-digit mpmath evaluation of
# the waveform and medium formulas, at |A l| >> 1 where the orders cancel, and at
# +-nu_half of fig6a's level-1 lattice, where h is ~3e-7 of their summed moduli
INTEGRAND_REFERENCE = [
    (C, MatchedLine(1.0, 10.0), 0.3, 33.82605611078123, 100.00236761574571),
    (S, MatchedLine(1.0, 10.0), -2.5, -0.36271764683303637, 0.6600658951994923),
    (A, MatchedLine(1.0, 10.0), 7.0, 0.016261186604219092, 0.014628692433398477),
    (C, MatchedLine(1.0, 4000.0), 0.5, -1912488747.4666667, 6547970559.6),
    (S, MatchedLine(1.0, 4000.0), -30.0, -33.84843178389154, 436.0636937494681),
    (A, BroadLine(10.0, 10.0), 1.0, -19.77741948950516, 58.64421853364115),
    (C, BroadLine(10.0, 10.0), -40.0, 0.029832493580346887, -0.004194193566424618),
    (G, BroadLine(10.0, 1.0), 1.5, -0.2346306335562794, -0.020538729403490847),
    (C, EitMedium(10.0, 1.0, 20.0, 30.0), 19.5, 47.71099568535181, 143.88979698087465),
    (S, EitMedium(10.0, 1.0, 20.0, 30.0), -0.2, 0.007961668883141669, 0.007302580814866566),
    (G, EitMedium(10.0, 1.0, 20.0, 30.0), 2.0, -0.06100247678291892, 0.028423773818857287),
    (A, EitMedium(10.0, 1.0, 3.2, 30.0), 3.0, 18.34339577755117, 904.1999685059089),
    (C, EitMedium(10.0, 1.0, 20.0, 30.0), 5026.548245743669, 2.113188102030308e-12, 1.0515500291823022e-10),
    (A, EitMedium(10.0, 1.0, 20.0, 30.0), -5026.548245743669, 2.0922680960896935e-12, -1.0515541916174243e-10),
]
# (kind, delta_ph, medium, grid) whose images the EIT alias test checks: fig6a and
# fig6b on a coarser grid, an overdamped coupling (poles -2.3 and -8.7), the
# critical one, a bell delayed to t_d = 13.3 past t_end = 10, a grid wholly
# before tau = 0 and Autler-Townes lines far past the linewidth
EIT_IMAGE_CASES = [
    (C, 1.0, EitMedium(10.0, 1.0, 20.0, 30.0), TimeGrid(-2.0, 15.0, 171)),
    (C, 10.0, EitMedium(10.0, 1.0, 20.0, 30.0), TimeGrid(-2.0, 15.0, 171)),
    (S, 1.0, EitMedium(10.0, 1.0, 3.2, 30.0), TimeGrid(-1.0, 4.0, 101)),
    (A, 1.0, EitMedium(10.0, 1.0, 4.5, 30.0), TimeGrid(1.0, 5.0, 81)),
    (C, 1.0, EitMedium(10.0, 1.0, 4.0, 60.0), TimeGrid(-2.0, 10.0, 121)),
    (A, 1.0, EitMedium(10.0, 1.0, 20.0, 30.0), TimeGrid(-12.0, -4.0, 81)),
    (C, 1.0, EitMedium(2.0, 1.0, 2000.0, 1.0), TimeGrid(-2.0, 15.0, 171)),
]


def _line_images(w, a, grid, period, count=3):
    """(max_j sum_{0 < |n| <= count} |r(tau_j + n*period)|, its round-off) for the exact remainder behind a line.

    r = _line_parts - time_amplitude - _subtraction on each image grid; the
    round-off is 4 eps per unit of the pieces' moduli, scaled by
    1 + linewidth*|tau| for the rounding of exp's arguments, plus the
    subtraction's own round-off.
    """
    total, slack = np.zeros(grid.n_points), 0.0
    for n in [k for k in range(-count, count + 1) if k]:
        image = TimeGrid(grid.t_start + n * period, grid.t_end + n * period, grid.n_points)
        tau = image.times()
        line = _from_parts(w.kind, *propagate._line_parts(w.delta_ph, a.linewidth, a.alpha0_l, tau))
        free = time_amplitude(w, tau)
        orders, roundoff = _subtraction(w, a, image)
        total += np.abs(line - free - orders)
        moduli = (1.0 + a.linewidth * np.abs(tau)) * (np.abs(line) + np.abs(free))
        slack += 4.0 * (np.finfo(float).eps * moduli.max() + roundoff)
    return total.max(), slack


class TestAliasBound:
    """The period's stated bound on the remainder's images, against exact images."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([C, S, A]),
        ratio=st.one_of(st.just(1.0), st.floats(1.2, 20.0)),
        log_alpha0_l=st.floats(-1.0, math.log10(4000.0)),
        t_start=st.floats(-15.0, 10.0),
        span=st.floats(3.0, 20.0),
        n_points=st.integers(31, 301),
    )
    def test_line_images_within_bound(self, kind, ratio, log_alpha0_l, t_start, span, n_points):
        # matched (ratio 1) and broad lines up to alpha0*l = 4,000, on grids
        # from 3 units long to ones wholly before or after tau = 0
        w = PhotonWaveform(kind, 1.0)
        alpha0_l = 10.0**log_alpha0_l
        med = MatchedLine(1.0, alpha0_l) if ratio == 1.0 else BroadLine(ratio, alpha0_l / ratio)
        grid = TimeGrid(t_start, t_start + span, n_points)
        images = propagate._image_model(w, med)
        for level in (0, 1):
            period = spectral_lattice(w, med, grid, level)[2] * grid.spacing
            bound = propagate._alias_bound(images, grid, period)
            exact, slack = _line_images(w, med, grid, period)
            assert exact <= bound + slack
            assert exact <= propagate._ALIAS_TOL + slack

    @pytest.mark.parametrize(
        "kind, med, grid",
        [
            (S, MatchedLine(1.0, 10.0), TimeGrid(-4.0, 10.0, 1401)),  # fig2
            (A, BroadLine(10.0, 10.0), TimeGrid(-0.5, 2.5, 1501)),  # fig3a
            (C, MatchedLine(1.0, 1000.0), TimeGrid(-4.0, 10.0, 1401)),
        ],
        ids=["fig2", "fig3a", "thick"],
    )
    def test_recorded_bound_is_the_accepted_levels(self, kind, med, grid):
        w = PhotonWaveform(kind, 1.0)
        conv = propagate_numeric(w, med, grid).convergence
        period = spectral_lattice(w, med, grid, conv["iterations"])[2] * grid.spacing
        assert conv["alias_bound"] == propagate._alias_bound(propagate._image_model(w, med), grid, period)
        assert conv["alias_bound"] <= propagate._ALIAS_TOL
        exact, slack = _line_images(w, med, grid, period)
        assert exact <= conv["alias_bound"] + slack

    @pytest.mark.parametrize(
        "kind, delta_ph, medium, grid",
        EIT_IMAGE_CASES,
        ids=["fig6a", "fig6b", "overdamped", "critical", "delayed_bell", "before_zero", "far_lines"],
    )
    def test_eit_images_within_bound(self, kind, delta_ph, medium, grid, monkeypatch):
        # the reference is the remainder on the grid widened by one period each
        # way, from a lattice of 4x the period with _TAIL_TOL = 1e-10: samples
        # j and j + 2p are the images n = -1, +1 of tau_j, and its own images
        # lie 3 periods out
        w = PhotonWaveform(kind, delta_ph)
        period = spectral_lattice(w, medium, grid, 0)[2] * grid.spacing
        bound = propagate._alias_bound(propagate._image_model(w, medium), grid, period)
        assert bound <= propagate._ALIAS_TOL
        p = round(period / grid.spacing)
        wide = TimeGrid(grid.t_start - period, grid.t_end + period, grid.n_points + 2 * p)
        monkeypatch.setattr(propagate, "_TAIL_TOL", 1e-10)
        nu_max = _window(w, medium, wide)[0]
        monkeypatch.setattr(propagate, "_window", lambda *_: (nu_max, 4.0 * period, None))
        ref, info = _own_fill(w, medium, wide, 0)
        images = np.abs(ref[: grid.n_points]) + np.abs(ref[2 * p :])
        # the reference's tail, twice, and its FFT's round-off, ~1e-13
        allowance = 2.0 * propagate._tail_bound(w, medium.alpha0_l, info["nu_max"]) + 1e-12
        assert images.max() <= bound + allowance

    def test_window_made_once_per_call(self, causal_unit, monkeypatch):
        # not once a level, and kept for the last (w, a, grid): a second call on the same
        # medium computes no window nor image model, a call on another medium its own
        models, model = [], propagate._image_model
        monkeypatch.setattr(propagate, "_image_model", lambda *args: models.append(args) or model(*args))
        grid = TimeGrid(-4.0, 10.0, 1401)
        for med, computed in [(MatchedLine(1.0, 10.0), 1), (MatchedLine(1.0, 10.0), 1), (MatchedLine(1.0, 20.0), 2)]:
            assert propagate_numeric(causal_unit, med, grid).convergence["iterations"] >= 1
            assert (_window.cache_info().misses, len(models)) == (computed, computed)

    def test_images_on_the_wrong_side_of_zero_have_no_bound(self, causal_unit):
        # the bound needs every image n > 0 past tau = 0 and every n < 0 at or before it
        images = propagate._image_model(causal_unit, MatchedLine(1.0, 10.0))
        grid = TimeGrid(-4.0, 10.0, 1401)
        assert propagate._alias_bound(images, grid, 9.0) == math.inf  # t_end - period > 0
        assert propagate._alias_bound(images, grid, 3.0) == math.inf  # t_start + period < 0
        assert propagate._alias_bound(images, grid, 100.0) < propagate._ALIAS_TOL

    def test_kept_window_is_immutable(self, causal_unit, eit_example):
        grid = TimeGrid(-2.0, 15.0, 1701)
        nu_max, period, images = _window(causal_unit, eit_example, grid)
        d, c0, terms = images
        assert isinstance(images, tuple) and isinstance(terms, tuple)
        assert all(isinstance(term, tuple) for term in terms)
        assert _window(causal_unit, eit_example, grid)[2] is images

    def test_gaussian_keeps_the_period_rule(self):
        # no bound is stated for the Gaussian source: its period is 1.5*span + 50/rate
        w, med, grid = PhotonWaveform(G, 1.0), BroadLine(10.0, 1.0), TimeGrid(-4.0, 10.0, 1401)
        assert _window(w, med, grid)[1:] == (1.5 * 14.0 + 50.0, None)
        assert propagate_numeric(w, med, grid).convergence["alias_bound"] is None

    @pytest.mark.parametrize("kind, medium, nu, re, im", INTEGRAND_REFERENCE)
    def test_integrand_matches_frozen_values(self, kind, medium, nu, re, im):
        # within 2*(orders + 1) roundings per unit of the summed moduli of exp(x) and its orders
        orders = 0 if kind is G else propagate._SUBTRACT_ORDERS
        w = PhotonWaveform(kind, 1.0)
        got = _remainder_integrand(w, medium, np.array([nu]))[0]
        x = abs(spectral_response(medium, nu))
        moduli = abs(spectral_amplitude(w, nu)) * (math.exp(-spectral_response(medium, nu).real)
                                                   + sum(x**k / math.factorial(k) for k in range(orders + 1)))
        assert abs(got - complex(re, im)) <= 2 * (orders + 1) * np.finfo(float).eps * moduli


def _nested_case(kind, delta_ph, medium, ratio, thickness, t_start, span, n_points):
    """(source, medium, grid) of a drawn scenario: delta_ph and the spans in units of the photon's rate."""
    w, g = PhotonWaveform(kind, delta_ph), ratio * delta_ph
    med = {
        "matched": lambda: MatchedLine(delta_ph, thickness),
        "broad": lambda: BroadLine(g, thickness),
        "eit": lambda: EitMedium(g, 0.1 * g, 2.0 * g, thickness),
    }[medium]()
    return w, med, TimeGrid(t_start / delta_ph, (t_start + span) / delta_ph, n_points)


class TestNestedLevels:
    """Level 0 read off level 1's lattice (`_fill`), the two levels of accepted runs, and the image bound's kept
    contour, against fresh ones."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([C, S, A, G]),
        delta_ph=st.floats(0.2, 5.0),
        medium=st.sampled_from(["matched", "broad", "eit"]),
        ratio=st.floats(1.2, 20.0),
        thickness=st.floats(0.1, 60.0),
        t_start=st.floats(-6.0, 1.0),
        span=st.floats(3.0, 20.0),
        n_points=st.integers(31, 401),
        block=st.sampled_from([2**15, 96]),
        cpus=st.sampled_from([1, 2]),
    )
    # (mdiv0, p0) = (4, 135), pooled: even mdiv0, 12 level-1 slices of 96 samples on 2 CPUs
    @example(kind=C, delta_ph=1.0, medium="matched", ratio=4.1, thickness=6.6, t_start=0.6, span=13.2,
             n_points=56, block=96, cpus=2)
    # (56, 90), pooled: 91 slices, every column of either level alone in its slice
    @example(kind=A, delta_ph=2.2, medium="matched", ratio=7.8, thickness=49.9, t_start=0.0, span=15.1,
             n_points=34, block=96, cpus=2)
    # (77, 36), pooled: odd mdiv0 and even p0, so nu = 0 is a level-0 sample that is its own mirror
    @example(kind=A, delta_ph=0.8, medium="eit", ratio=8.9, thickness=1.3, t_start=-2.8, span=16.3,
             n_points=31, block=96, cpus=2)
    # (1, 360), serial: odd mdiv0 and even p0 on the calling thread, 8 slices
    @example(kind=G, delta_ph=2.6, medium="matched", ratio=7.0, thickness=3.5, t_start=0.9, span=9.1,
             n_points=52, block=96, cpus=1)
    # (59, 125), serial: odd mdiv0 and odd p0, one slice of the default size
    @example(kind=S, delta_ph=2.8, medium="broad", ratio=10.4, thickness=9.0, t_start=-5.4, span=11.4,
             n_points=45, block=2**15, cpus=1)
    def test_nested_level_zero_is_its_own_fill(self, kind, delta_ph, medium, ratio, thickness, t_start, span,
                                               n_points, block, cpus):
        w, med, grid = _nested_case(kind, delta_ph, medium, ratio, thickness, t_start, span, n_points)
        assume(validate(Scenario("nested", "gamma", w, med, grid, ["numeric"], ["time_trace"]))[0] == [])
        coarse, fine = spectral_lattice(w, med, grid, 0), spectral_lattice(w, med, grid, 1)
        assume(fine[0] == "fft")  # a zoomed level 1 fills its levels apart
        assert coarse[0] == "fft" and fine[1:3] == (2 * coarse[1], 2 * coarse[2])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagate, "_RULE_BLOCK", block)
            patch.setattr(os, "sched_getaffinity", lambda _: set(range(cpus)), raising=False)
            own = [_own_fill(w, med, grid, level) for level in (0, 1)]
            nested = propagate._fill(w, med, grid, fine, coarse)
        for (got, got_info), (want, info) in zip(nested, own):
            assert got.tobytes() == want.tobytes()
            assert got_info == info
        mdiv0, p0 = coarse[1:3]
        if mdiv0 % 2 and not p0 % 2:  # nu = 0 is level 0's sample m0/2, its own mirror, read conjugated
            assert _remainder_integrand(w, med, np.zeros(1))[0].imag == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from([C, S, A, G]),
        delta_ph=st.floats(0.05, 50.0),
        medium=st.sampled_from(["matched", "broad", "eit"]),
        ratio=st.floats(1.01, 100.0),
        log_thickness=st.one_of(st.floats(-2.0, math.log10(3000.0)), st.floats(2.0, math.log10(3000.0))),
        t_start=st.floats(-10.0, 1.0),
        span=st.floats(2.0, 40.0),
        n_points=st.integers(31, 301),
    )
    # a thick matched line on 41 points, level 1 of 751,872 samples: drift 2.6e-5
    @example(kind=A, delta_ph=1.0, medium="matched", ratio=1.2, log_thickness=math.log10(1500.0), t_start=-1.7,
             span=10.8, n_points=41)
    def test_accepted_run_ends_at_level_one_or_names_its_error(self, kind, delta_ph, medium, ratio, log_thickness,
                                                              t_start, span, n_points):
        # coarse grids through thick media: the run returns level 1 within the drift tolerance, or
        # names the drift or the round-off, never a lattice cap, which validate checked at level 1
        w, med, grid = _nested_case(kind, delta_ph, medium, ratio, 10.0**log_thickness, t_start, span, n_points)
        assume(validate(Scenario("accepted", "gamma", w, med, grid, ["numeric"], ["time_trace"]))[0] == [])
        coarse, fine = spectral_lattice(w, med, grid, 0), spectral_lattice(w, med, grid, 1)
        assume(fine[3] <= 2**20)  # each draw's cost, by level 1's sample count
        if fine[0] == "fft":
            assert fine[1:3] == (2 * coarse[1], 2 * coarse[2])
        try:
            conv = propagate_numeric(w, med, grid).convergence
        except ConvergenceError as exc:
            assert re.search(r"drift \S+ between levels 0 and 1|round-off", str(exc)), str(exc)
            assert "cap" not in str(exc)
            return
        assert conv["iterations"] == 1 and conv["drift"] <= propagate._DRIFT_TOL

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        delta_ph=st.floats(0.05, 50.0),
        medium=st.sampled_from(["matched", "broad", "eit"]),
        ratio=st.floats(1.01, 100.0),
        thickness=st.floats(0.01, 3000.0),
    )
    def test_kept_contour_gives_fresh_image_models(self, delta_ph, medium, ratio, thickness):
        # the parts of one photon share one contour: each model equals one from a fresh contour
        _, med, _ = _nested_case(C, delta_ph, medium, ratio, thickness, 0.0, 1.0, 2)
        sources = [PhotonWaveform(kind, delta_ph) for kind in (C, S, A)]
        propagate._contour.cache_clear()
        kept = [propagate._image_model(w, med) for w in sources]
        assert propagate._contour.cache_info()[:2] == (2, 1)
        for w, model in zip(sources, kept):
            propagate._contour.cache_clear()
            assert propagate._image_model(w, med) == model

    def test_kept_contour_is_immutable(self, causal_unit, eit_example):
        e_d, paths = propagate._contour(causal_unit.delta_ph, eit_example)
        assert isinstance(paths, tuple) and len(paths) == len(propagate._IMAGE_SIGMAS)
        for sigma, *arrays, reached in paths:
            assert isinstance(sigma, float) and isinstance(reached, bool)
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
        assert propagate._contour(causal_unit.delta_ph, eit_example)[1] is paths


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
