"""Source photon envelope models in time and frequency domains.

All rates are dimensionless in a per-scenario reference rate, all
envelopes are real slowly-varying amplitudes in the rotating frame (the
optical carrier is dropped).  The causal envelope exp(-delta_ph*t) for
t > 0 splits exactly into a symmetric (two-sided exponential) and an
antisymmetric (sign-flipped exponential) part; the step at t = 0 uses the
midpoint convention Theta(0) = 1/2 so the decomposition identity holds at
every sample, including t = 0.

Fourier convention: b(t) = (1/2pi) * integral b(nu) exp(-i*nu*t) dnu.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "WaveformKind",
    "PART_WEIGHTS",
    "PhotonWaveform",
    "TimeGrid",
    "TimeSeries",
    "time_amplitude",
    "spectral_amplitude",
    "sample",
]


class WaveformKind(str, enum.Enum):
    EXPONENTIAL_CAUSAL = "exponential_causal"
    SYMMETRIC_PART = "symmetric_part"
    ANTISYMMETRIC_PART = "antisymmetric_part"
    GAUSSIAN = "gaussian"


# Weights (w_s, w_a) that build each decomposable kind as w_s*symmetric +
# w_a*antisymmetric part; the Gaussian has no such decomposition.
PART_WEIGHTS = {
    WaveformKind.EXPONENTIAL_CAUSAL: (1.0, 1.0),
    WaveformKind.SYMMETRIC_PART: (1.0, 0.0),
    WaveformKind.ANTISYMMETRIC_PART: (0.0, 1.0),
}


@dataclass(frozen=True)
class PhotonWaveform:
    """A source envelope: kind plus spectral halfwidth delta_ph.

    delta_ph is the halfwidth of the photon spectrum; the coherence time
    is tau_ph = 1/delta_ph and the emitter lifetime tau_life = tau_ph/2.
    """

    kind: WaveformKind
    delta_ph: float

    def __post_init__(self):
        object.__setattr__(self, "kind", WaveformKind(self.kind))
        if not (self.delta_ph > 0 and math.isfinite(self.delta_ph)):
            raise ValueError(f"delta_ph must be positive, got {self.delta_ph}")

    @property
    def tau_ph(self) -> float:
        return 1.0 / self.delta_ph

    @property
    def tau_life(self) -> float:
        return 0.5 / self.delta_ph


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid in units of the reference rate."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.t_end - self.t_start):  # also an infinite or nan bound
            raise ValueError(
                f"t_start, t_end and their span must be finite (got {self.t_start}, {self.t_end})"
            )
        if not (self.t_start < self.t_end):
            raise ValueError("t_start must be < t_end")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass
class TimeSeries:
    """Complex envelope samples on a grid, with the oracle's convergence record."""

    grid: TimeGrid
    amplitude: np.ndarray
    convergence: Optional[dict] = None

    def __post_init__(self):
        self.amplitude = np.asarray(self.amplitude, dtype=complex)
        if self.amplitude.shape != (self.grid.n_points,):
            raise ValueError("amplitude length does not match the grid")


def _step(t):
    """Heaviside step with the midpoint convention Theta(0) = 1/2."""
    return np.heaviside(t, 0.5)


def time_amplitude(w: PhotonWaveform, t):
    """Time-domain envelope of the waveform at time(s) t.

    Values are real; the jump of the causal and antisymmetric envelopes
    at t = 0 takes the two-sided midpoint.
    """
    d = w.delta_ph
    tv = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tv)):
        raise ValueError("t must be finite")
    if w.kind is WaveformKind.EXPONENTIAL_CAUSAL:
        # exp argument clipped to the causal side; the step zeroes t < 0
        out = np.exp(-d * np.clip(tv, 0.0, None)) * _step(tv)
    elif w.kind is WaveformKind.SYMMETRIC_PART:
        out = 0.5 * np.exp(-d * np.abs(tv))
    elif w.kind is WaveformKind.ANTISYMMETRIC_PART:
        out = np.sign(tv) * 0.5 * np.exp(-d * np.abs(tv))
    elif w.kind is WaveformKind.GAUSSIAN:
        out = np.exp(-0.25 * d * d * tv * tv)
    else:  # pragma: no cover
        raise AssertionError(w.kind)
    out = out.astype(complex)
    return out if np.ndim(t) else complex(out)


def spectral_amplitude(w: PhotonWaveform, nu):
    """Fourier transform of the time envelope at angular detuning(s) nu."""
    d = w.delta_ph
    nv = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(nv)):
        raise ValueError("nu must be finite")
    if w.kind is WaveformKind.EXPONENTIAL_CAUSAL:
        out = 1.0 / (d - 1j * nv)
    elif w.kind is WaveformKind.SYMMETRIC_PART:
        out = d / (d * d + nv * nv) + 0j
    elif w.kind is WaveformKind.ANTISYMMETRIC_PART:
        out = 1j * nv / (d * d + nv * nv)
    elif w.kind is WaveformKind.GAUSSIAN:
        out = (2.0 * math.sqrt(math.pi) / d) * np.exp(-(nv / d) ** 2) + 0j
    else:  # pragma: no cover
        raise AssertionError(w.kind)
    return out if np.ndim(nu) else complex(out)


def sample(w: PhotonWaveform, grid: TimeGrid) -> TimeSeries:
    """Sample the free-space envelope on a grid, as a TimeSeries."""
    return TimeSeries(grid, time_amplitude(w, grid.times()))
