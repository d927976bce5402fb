"""Integral observables: pulse area, transmitted energy, thickness scans.

Time integrals use the trapezoid rule on the uniform grid and warn when an
end sample exceeds _EDGE_TOL = 1e-6 (truncated support) instead of silently
losing tail contributions; `validate` advises by the same test, `_truncation`,
on the source at the grid's ends.  The closed-form transmitted energies
use exponentially scaled Bessel functions throughout so the Beer's-law
violation can be followed to thicknesses of a few thousand.  The broad-line
energies of a whole thickness scan take the closed forms' depth-windowed
Gauss-Legendre rule (`propagate._legendre`, built on first use) on the window
where exp(-2a(T_b - x)) exceeds exp(-40); the part below is under exp(-40)/(2a).
Its _BROAD_NODES = 24 nodes keep the scan within 7.3e-13 of 30-digit mpmath
from Gamma/delta_ph = 1.01 up; nearer the matched line the rule's round-off,
amplified by a**3, grows like 1/(Gamma/delta_ph - 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as _sp

from .errors import TruncatedSupportWarning
from .media import EitParams
from .propagate import _check_broad, _depth_rule, _gaussian_eta, _legendre, _row_blocks
from .waveforms import TimeSeries

# unused: perfbench's tracing.wrap_table wraps this name, so it stays until
# the benchmark takes its timings from the library (ROADMAP item 1 B)
quad = None

__all__ = [
    "pulse_area",
    "integrated_intensity",
    "u_matched",
    "u_broad",
    "u_eit_adiabatic",
    "u_gaussian",
    "ThicknessScan",
    "thickness_scan",
]

_EDGE_TOL = 1e-6
# u_broad's depth rule, the least count the measured error supports.  i0e is
# entire, and Gauss-Legendre on exp(20x), the window's widest exponential, is
# at round-off from 20 nodes on (7.7e-16 relative), which then grows with the
# count through scipy's weights (8.9e-15 at 24, 4.6e-14 at 32).  Against
# 30-digit mpmath over Gamma/delta_ph = 1.01-1000 and T = 0-3,000, the scan is
# within 7.3e-13 at 24 nodes, while 32 reach 3.7e-12 and 20 reach 1.6e-11, each
# worst at Gamma/delta_ph = 1.01; 22 still truncate at small T (6.2e-13 at
# T = 0.1 there, against 1.5e-13 at 24).
_BROAD_NODES = 24
# Most thicknesses a scan config may ask of thickness_scan, which bounds its
# work (a broad scan this long took 3.5 s on a 2-vCPU VM) and its ~100 MB CSV.
MAX_SCAN_POINTS = 10**6
# Most samples a time grid may hold, checked before anything samples it: a
# trace CSV this long is ~100 MB, and the oracle's lattice for it (2^20 at
# one FFT step per grid step) stays within the FFT's cap.
MAX_GRID_POINTS = 10**6


def _truncation(amplitude) -> Optional[str]:
    """The time integrals' truncation test: its text if an end sample exceeds _EDGE_TOL, else None."""
    edge = max(abs(amplitude[0]), abs(amplitude[-1]))
    if edge > _EDGE_TOL:
        return f"boundary amplitude {edge:.2e} exceeds {_EDGE_TOL:g}; the grid truncates the envelope support"


def _warn_truncated(ts: TimeSeries, what: str):
    if (text := _truncation(ts.amplitude)) is not None:
        warnings.warn(f"{what}: {text}", TruncatedSupportWarning, stacklevel=3)


def pulse_area(ts: TimeSeries) -> float:
    """Time integral of the envelope (units 1/reference rate).

    For the free-space causal exponential this is 1/delta_ph; the EIT
    filter only multiplies it by exp(-T_eit).
    """
    _warn_truncated(ts, "pulse_area")
    return float(np.trapezoid(ts.amplitude, dx=ts.grid.spacing))


def integrated_intensity(ts: TimeSeries) -> float:
    """Time-integrated intensity (transmitted energy per unit area)."""
    _warn_truncated(ts, "integrated_intensity")
    return float(np.trapezoid(np.abs(ts.amplitude) ** 2, dx=ts.grid.spacing))


def u_matched(thickness):
    """Transmitted energies behind a matched line, in units of U0(0).

    Returns (U_s, U_a, U_total) for the symmetric part, the antisymmetric
    part and the full causal photon, elementwise for an array of
    thicknesses; U_total = exp(-T)*I0(T) decays only like 1/sqrt(2*pi*T)
    instead of Beer's exp(-2T).
    """
    if np.any(np.asarray(thickness) < 0):
        raise ValueError("thickness must be >= 0")
    i0e = _sp.i0e(thickness)
    i1e = _sp.i1e(thickness)
    u_s = 0.5 * (i0e - i1e)
    u_a = 0.5 * (i0e + i1e)
    return u_s, u_a, u_s + u_a


def u_broad(delta_ph: float, gamma_total: float, thickness):
    """Transmitted energies (U_s, U_a) behind a broad line, absolute units.

    thickness is T_b = alpha0*l/Gamma, a float or an array (then U_s and U_a
    are arrays).  The symmetric part initially follows the Beer-like
    exp(-2*a*T_b) law while the antisymmetric part decays only algebraically.
    The inner integrals I1 = int_0^T exp(-2a(T-x)) i0e(x) dx and
    I2 = int_0^T (T-x) exp(-2a(T-x)) i0e(x) dx take the beat integral's depth
    rule (`propagate._depth_rule`) on `_legendre(_BROAD_NODES)`, one row per
    thickness, filled in bounded blocks.
    """
    _check_broad(delta_ph, gamma_total)
    tb = np.atleast_1d(np.asarray(thickness, dtype=float))
    if not np.all(tb >= 0):
        raise ValueError("thickness must be >= 0")
    u0 = 0.5 / delta_ph
    ratio = delta_ph / gamma_total
    a = 1.0 / (1.0 - ratio**2)
    depth, w = _depth_rule(_legendre(_BROAD_NODES), tb, 2.0 * a)
    i1 = np.empty(tb.shape)
    i2 = np.empty(tb.shape)
    for blk in _row_blocks(tb.size, depth.shape[1]):
        wi = w[blk] * _sp.i0e(tb[blk, None] - depth[blk])
        i1[blk] = wi.sum(axis=1)
        i2[blk] = (wi * depth[blk]).sum(axis=1)
    u1 = 2.0 * a**2 * u0 * i1
    u2 = 4.0 * a**3 * u0 * i2
    beer = np.exp(-2.0 * a * tb) * 0.5 * u0
    slope = 4.0 * a**2 * ratio**2 * tb
    u_s = beer * (1.0 + slope) - ratio**3 * (u1 - u2)
    u_a = beer * (1.0 - slope) + ratio * u1 - ratio**3 * u2
    return (u_s, u_a) if np.ndim(thickness) else (float(u_s[0]), float(u_a[0]))


def u_eit_adiabatic(delta_ph: float, params: EitParams) -> float:
    """Transmitted energy of the adiabatic EIT component, absolute units.

    U0(0) * exp(-2*T_eit) * erfcx(sqrt(2)*delta_ph/delta_eff): the window
    costs the residual absorption plus a broadening factor that tends to
    delta_eff/delta_ph when the window is much narrower than the photon.
    """
    u0 = 0.5 / delta_ph
    r = delta_ph / params.delta_eff
    return u0 * math.exp(-2.0 * params.t_eit) * float(_sp.erfcx(math.sqrt(2.0) * r))


def u_gaussian(delta_ph: float, gamma_total: float, thickness: float) -> float:
    """Transmitted energy of a Gaussian envelope behind a broad line.

    sqrt(2*pi)*eta/delta_ph * exp(-2T): plain Beer attenuation up to the
    small broadening factor eta.  Valid for f*T < 1; the prefactor is the
    time integral of the squared exp(-d**2 t**2/4) input convention.
    """
    eta = _gaussian_eta(delta_ph, gamma_total, thickness)
    return math.sqrt(2.0 * math.pi) * eta / delta_ph * math.exp(-2.0 * thickness)


# every ThicknessScan energy is in units of half the input energy
SCAN_NORMALIZATION = "U0(0)/2"


@dataclass
class ThicknessScan:
    """Energies versus thickness, in units of SCAN_NORMALIZATION."""

    thickness_values: np.ndarray
    u_s: np.ndarray
    u_a: np.ndarray
    u_total: np.ndarray
    beer_reference: np.ndarray


def thickness_scan(kind: str, delta_ph: float, gamma_total, t_values) -> ThicknessScan:
    """Scan transmitted energies over thickness for a matched or broad line.

    kind is "matched" (gamma_total ignored) or "broad".  Values are
    normalized to half the input energy, matching the usual thickness-
    dependence plots, with exp(-2T) as the Beer reference.
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or len(t_values) < 1:
        raise ValueError("t_values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(t_values)):
        raise ValueError("t_values must be finite")
    if np.any(np.diff(t_values) <= 0):
        raise ValueError("t_values must be strictly increasing")
    if kind == "matched":
        s, a, _ = u_matched(t_values)
        # u_matched is in units of U0(0): rescale to U0(0)/2
        u_s, u_a = 2.0 * s, 2.0 * a
    elif kind == "broad":
        if gamma_total is None:
            raise ValueError("broad scan needs gamma_total")
        s, a = u_broad(delta_ph, gamma_total, t_values)
        u0_half = 0.25 / delta_ph
        u_s, u_a = s / u0_half, a / u0_half
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    return ThicknessScan(
        thickness_values=t_values,
        u_s=u_s,
        u_a=u_a,
        u_total=u_s + u_a,
        beer_reference=np.exp(-2.0 * t_values),
    )
