"""Waveform envelopes, their spectra, and the transform identities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from slowphoton.waveforms import (
    PhotonWaveform,
    TimeGrid,
    TimeSeries,
    WaveformKind,
    sample,
    spectral_amplitude,
    time_amplitude,
)

ALL_KINDS = list(WaveformKind)


def make(kind, d=1.0):
    return PhotonWaveform(kind, d)


class TestConstruction:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_delta_ph_positive(self, bad):
        with pytest.raises(ValueError):
            PhotonWaveform(WaveformKind.GAUSSIAN, bad)

    def test_string_kind_accepted(self):
        w = PhotonWaveform("gaussian", 2.0)
        assert w.kind is WaveformKind.GAUSSIAN
        assert w.tau_ph == 0.5
        assert w.tau_life == 0.25

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        g = TimeGrid(-1.0, 1.0, 201)
        assert g.spacing == pytest.approx(0.01)


class TestTimeAmplitude:
    def test_causal_leading_edge_is_unity(self):
        w = make(WaveformKind.EXPONENTIAL_CAUSAL)
        eps = np.nextafter(0.0, 1.0)
        assert time_amplitude(w, eps) == 1.0

    def test_causal_midpoint_at_zero(self):
        # step convention Theta(0) = 1/2 so the parts identity holds at 0
        w = make(WaveformKind.EXPONENTIAL_CAUSAL)
        assert time_amplitude(w, 0.0) == 0.5

    def test_symmetric_value_at_zero(self):
        assert time_amplitude(make(WaveformKind.SYMMETRIC_PART), 0.0) == 0.5

    def test_antisymmetric_value_at_zero(self):
        assert time_amplitude(make(WaveformKind.ANTISYMMETRIC_PART), 0.0) == 0.0

    def test_gaussian_peak(self):
        assert time_amplitude(make(WaveformKind.GAUSSIAN), 0.0) == 1.0

    def test_decomposition_identity_everywhere(self):
        t = np.linspace(-5, 5, 1001)  # includes t = 0
        d = 1.7
        causal = time_amplitude(make(WaveformKind.EXPONENTIAL_CAUSAL, d), t)
        parts = time_amplitude(make(WaveformKind.SYMMETRIC_PART, d), t) + time_amplitude(
            make(WaveformKind.ANTISYMMETRIC_PART, d), t
        )
        np.testing.assert_allclose(parts, causal, atol=1e-15)

    def test_values_are_real(self):
        t = np.linspace(-3, 3, 101)
        for kind in ALL_KINDS:
            assert time_amplitude(make(kind), t).dtype == np.float64
            assert type(time_amplitude(make(kind), 0.5)) is float

    def test_no_overflow_at_large_negative_t(self):
        w = make(WaveformKind.EXPONENTIAL_CAUSAL, 2.0)
        assert time_amplitude(w, -1e6) == 0.0


class TestSpectralAmplitude:
    def test_causal_at_zero(self):
        w = make(WaveformKind.EXPONENTIAL_CAUSAL, 2.0)
        assert spectral_amplitude(w, 0.0) == 0.5

    def test_antisymmetric_vanishes_at_zero(self):
        assert spectral_amplitude(make(WaveformKind.ANTISYMMETRIC_PART), 0.0) == 0.0

    def test_symmetric_half_maximum(self):
        d = 3.0
        w = make(WaveformKind.SYMMETRIC_PART, d)
        assert spectral_amplitude(w, d) == pytest.approx(1 / (2 * d))

    def test_parity(self):
        nus = np.linspace(-20, 20, 401)
        ws = make(WaveformKind.SYMMETRIC_PART, 1.3)
        wa = make(WaveformKind.ANTISYMMETRIC_PART, 1.3)
        np.testing.assert_allclose(
            spectral_amplitude(ws, -nus), spectral_amplitude(ws, nus), rtol=0, atol=0
        )
        np.testing.assert_allclose(
            spectral_amplitude(wa, -nus), -spectral_amplitude(wa, nus), rtol=0, atol=0
        )

    def test_parts_sum_to_causal_spectrum(self):
        nus = np.linspace(-50, 50, 777)
        d = 0.8
        total = spectral_amplitude(make(WaveformKind.EXPONENTIAL_CAUSAL, d), nus)
        parts = spectral_amplitude(make(WaveformKind.SYMMETRIC_PART, d), nus) + spectral_amplitude(
            make(WaveformKind.ANTISYMMETRIC_PART, d), nus
        )
        np.testing.assert_allclose(parts, total, rtol=1e-15, atol=1e-18)

    def test_gaussian_value(self):
        d = 2.0
        w = make(WaveformKind.GAUSSIAN, d)
        assert spectral_amplitude(w, 0.0) == pytest.approx(2 * math.sqrt(math.pi) / d)


class TestFourierConsistency:
    """Inverse-transforming the spectrum must reproduce the time envelope."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_numeric_inverse_transform(self, kind):
        d = 1.0
        w = make(kind, d)
        # FFT quadrature of (1/2pi) int b(nu) exp(-i nu t) dnu, self-contained
        n = 2**22
        dnu = 0.05
        nu = (np.arange(n) - n // 2) * dnu
        spec = spectral_amplitude(w, nu)
        dt = 2 * math.pi / (n * dnu)
        # evaluate on times t_j = (j - n/2) * dt via FFT index algebra
        phases = np.exp(1j * math.pi * np.arange(n))  # (-1)^j both sides
        vals = np.fft.fft(spec * phases) * phases * (dnu / (2 * math.pi))
        t = (np.arange(n) - n // 2) * dt
        # compare on a scenario-scale grid (spacing ~0.025) inside |t| <= 6
        stride = max(1, round(0.025 / dt))
        keep = slice(None, None, stride)
        t = t[keep]
        got = vals[keep]
        sel = np.abs(t) <= 6.0
        t, got = t[sel], got[sel]
        want = time_amplitude(w, t)
        err = np.abs(got - want)
        if kind in (WaveformKind.EXPONENTIAL_CAUSAL, WaveformKind.ANTISYMMETRIC_PART):
            err = err[np.abs(t) > 2 * stride * dt]
        assert err.max() < 1e-4

    @pytest.mark.parametrize(
        "kind,energy",
        [
            (WaveformKind.EXPONENTIAL_CAUSAL, 0.5),
            (WaveformKind.SYMMETRIC_PART, 0.25),
            (WaveformKind.ANTISYMMETRIC_PART, 0.25),
            (WaveformKind.GAUSSIAN, math.sqrt(2 * math.pi)),
        ],
    )
    def test_parseval(self, kind, energy):
        # (1/2pi) int |b(nu)|^2 dnu == int |b(t)|^2 dt, d = 1
        w = make(kind, 1.0)
        freq_side = quad(
            lambda nu: abs(spectral_amplitude(w, nu)) ** 2 / (2 * math.pi),
            -np.inf,
            np.inf,
            limit=400,
        )[0]
        time_side = quad(lambda t: abs(time_amplitude(w, t)) ** 2, -np.inf, np.inf, limit=400)[0]
        assert freq_side == pytest.approx(time_side, rel=1e-6)
        assert time_side == pytest.approx(energy, rel=1e-9)


class TestSample:
    def test_causal_zero_before_onset(self, causal_unit):
        grid = TimeGrid(-1.0, 5.0, 601)
        ts = sample(causal_unit, grid)
        t = grid.times()
        assert np.all(ts.amplitude[t < 0] == 0)

    def test_parts_sum_pointwise(self, causal_unit, sym_unit, anti_unit):
        grid = TimeGrid(-2.0, 6.0, 801)  # tau = 0 on the grid
        total = sample(causal_unit, grid).amplitude
        parts = sample(sym_unit, grid).amplitude + sample(anti_unit, grid).amplitude
        np.testing.assert_allclose(parts, total, atol=1e-15)

    def test_integrated_intensity_of_input(self, causal_unit):
        # wide, fine grid starting just inside the support so the trapezoid
        # rule is second order (a grid straddling the jump is only first order
        # in |b|^2 whatever value the jump sample takes)
        grid = TimeGrid(1e-9, 26.0, 26001)
        ts = sample(causal_unit, grid)
        val = np.trapezoid(np.abs(ts.amplitude) ** 2, dx=grid.spacing)
        assert val == pytest.approx(0.5, rel=1e-6)


@pytest.mark.parametrize(
    "amplitude", [[1.0, 0.5j, 0.0], np.zeros(3, dtype=complex)], ids=["imaginary", "zero_imag"]
)
def test_time_series_refuses_complex_samples(amplitude):
    # a float cast would drop the imaginary part with only a ComplexWarning
    with pytest.raises(TypeError, match="must be real"):
        TimeSeries(TimeGrid(0.0, 1.0, 3), amplitude)
