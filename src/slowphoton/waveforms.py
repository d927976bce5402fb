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


def _from_parts(kind: WaveformKind, b_s, b_a):
    """A decomposable kind's envelope from its symmetric part b_s and antisymmetric part b_a."""
    w_s, w_a = PART_WEIGHTS[kind]
    return w_s * b_s + w_a * b_a


def _exponential_weights(kind: WaveformKind):
    """(c_p, c_m): the kind as c_p*exp(-d*t)Theta(t) + c_m*exp(d*t)Theta(-t).

    Read off PART_WEIGHTS: the symmetric part is the half-sum of the causal
    and anticausal exponentials, the antisymmetric part their half-difference.
    """
    w_s, w_a = PART_WEIGHTS[kind]
    return 0.5 * (w_s + w_a), 0.5 * (w_s - w_a)


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
    """Real envelope samples on a grid, with the oracle's convergence record."""

    grid: TimeGrid
    amplitude: np.ndarray
    convergence: Optional[dict] = None

    def __post_init__(self):
        if np.iscomplexobj(self.amplitude):
            raise TypeError("TimeSeries amplitude must be real, got complex samples")
        self.amplitude = np.asarray(self.amplitude, dtype=float)
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
    if w.kind is WaveformKind.GAUSSIAN:
        out = np.exp(-0.25 * d * d * tv * tv)
    else:
        c_p, c_m = _exponential_weights(w.kind)
        out = (c_p * _step(tv) + c_m * _step(-tv)) * np.exp(-d * np.abs(tv))
    return out if np.ndim(t) else float(out)


def _nu_array(nu):
    """nu as a float array of at least one dimension, so that results can be built in place."""
    nv = np.array(nu, dtype=float, copy=None, ndmin=1)
    if not np.all(np.isfinite(nv)):
        raise ValueError("nu must be finite")
    return nv


def _complex(real, imag):
    """A new complex array from its real and imaginary parts, with no complex cast or product."""
    out = np.empty(np.broadcast_shapes(np.shape(real), np.shape(imag)), dtype=complex)
    out.real, out.imag = real, imag
    return out


def _s_plus(c, nv):
    """c + s, s = -i*nu, as a new complex array with the bits of c - 1j*nu (0 - nu is +0 at nu = +-0, as there)."""
    out = np.empty(nv.shape, dtype=complex)
    out.real = c
    np.subtract(0.0, nv, out=out.imag)
    return out


def spectral_amplitude(w: PhotonWaveform, nu):
    """Fourier transform of the time envelope at angular detuning(s) nu.

    Each value has the bits of the plain complex expression, built without
    complex casts or complex divisions by real numbers.
    """
    d = w.delta_ph
    nv = _nu_array(nu)
    if w.kind is WaveformKind.EXPONENTIAL_CAUSAL:  # 1/(d - i*nu)
        out = _s_plus(d, nv)
        np.divide(1.0, out, out=out)
    elif w.kind is WaveformKind.GAUSSIAN:
        out = _complex((2.0 * math.sqrt(math.pi) / d) * np.exp(-(nv / d) ** 2), 0.0)
    else:  # d/(d**2 + nu**2) and i*nu/(d**2 + nu**2)
        q = nv * nv
        q += d * d
        if w.kind is WaveformKind.SYMMETRIC_PART:
            out = _complex(np.divide(d, q, out=q), 0.0)
        else:  # numpy divides i*nu by q + 0j by Smith's method: nu*(1/q)
            out = _complex(0.0, np.multiply(nv, np.divide(1.0, q, out=q), out=q))
    return out if np.ndim(nu) else complex(out[0])


def sample(w: PhotonWaveform, grid: TimeGrid) -> TimeSeries:
    """Sample the free-space envelope on a grid, as a TimeSeries."""
    return TimeSeries(grid, time_amplitude(w, grid.times()))
