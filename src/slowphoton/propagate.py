"""Transmitted envelope b(l, tau): spectral-integral oracle and closed forms.

The numeric route evaluates the propagation integral

    b(l, tau) = (1/2pi) * integral b(0, nu) exp(-i*nu*tau - A(nu)*l) dnu

on a uniform frequency grid.  The incident spectra fall off only like
1/nu, so the integrand is split into pieces with known closed-form
inverse transforms (the free-space term plus the first two orders of the
medium response, which are small rational functions of nu) and a fast
remainder decaying like (alpha0*l/nu)**3 that the FFT handles accurately.
The split also keeps the oracle independent of the Bessel-function closed
forms it is used to check.

All closed-form solutions from the transmission analysis live here as
well: the matched-line dynamical-beat envelope, the thick-broad-line
two-term approximation, the adiabatic EIT solution with its nonadiabatic
spike, and the Gaussian-envelope approximation for a broad line.  The
symmetric and antisymmetric parts behind a Lorentzian line of halfwidth
Gamma >= delta_ph come from one solution, `_line_parts`: the matched line
Gamma = delta_ph is its limit, and the EIT medium's nonadiabatic part
reuses it.  Its inner beat integrals and the broad-line thickness scan
share one Gauss-Legendre rule placed in depth below the upper limit
(`_depth_rule`), whose size does not grow with the effective thickness.

Local time tau = t - l/c; jumps at tau = 0 take the midpoint value
(Theta(0) = 1/2), consistent with the waveform module.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
from scipy import special as _sp
from scipy.integrate import quad  # noqa: F401 -- unused; the benchmark tracer wraps propagate.quad

from ._rational import eval_pole_terms, merge_poles, partial_fractions
from .errors import ConvergenceError, UnsupportedWaveformError, ValidityError
from .media import (
    AbsorberSpec,
    EitMedium,
    EitParams,
    eit_params,
    medium_poles,
    spectral_response,
)
from .waveforms import (
    PART_WEIGHTS,
    PhotonWaveform,
    TimeGrid,
    TimeSeries,
    WaveformKind,
    _step,
    spectral_amplitude,
    time_amplitude,
)

__all__ = [
    "TimeSeries",
    "propagate_numeric",
    "analytic_matched",
    "analytic_parts_matched",
    "analytic_parts_broad",
    "approx_broad",
    "phi_plus",
    "adiabatic_eit",
    "total_eit",
    "gaussian_broad",
]

# Orders of the medium expansion subtracted in closed form before the FFT.
_SUBTRACT_ORDERS = 2
# propagate_numeric doubles the window and period up to _MAX_DOUBLINGS times,
# until successive levels agree to _DRIFT_TOL in max-abs.
_DRIFT_TOL = 1e-5
_MAX_DOUBLINGS = 3
# Window scale: truncating the remainder tail ~ (alpha0*l/nu)**3/nu at
# nu_max = _WINDOW_PER_ALPHA0L * alpha0*l bounds the error by ~1e-6.
_WINDOW_PER_ALPHA0L = 26.0
# Only lattices above _MAX_FFT_SAMPLES (grids finer than ~pi/nu_max) fall back
# to direct summation, bounded by the same lattice cap and by _MAX_DIRECT_WORK
# frequency x point products: 2-8 ns each on 2 vCPUs, so 3.5 s for a level of
# 2**20 frequencies x 1,024 points.  _remainder_fft fills its lattice in
# _FFT_CHUNK slices, concurrently on the usable CPUs.  Each running slice holds
# its integrand's temporaries (a few complex arrays of _FFT_CHUNK entries), so
# the slice size times the worker count bounds the memory the fill adds to the
# lattice.  On 2 vCPUs, 2**15 adds about 5 MB (3-4%) to the peak RSS of a
# figure or sweep run; 2**16 added 8-10%, and 2**14 gave up a third of the
# speed-up.
_MIN_FFT_SAMPLES = 2**18
_MAX_FFT_SAMPLES = 2**22
_MAX_DIRECT_WORK = 2**30
_FFT_CHUNK = 2**15
# _depth_rule drops depths u > _DEPTH_SPAN/decay below the upper limit, where
# the weight exp(-decay*u) is below exp(-40): at most exp(-40)/decay =
# 4e-18/decay for an integrand bounded by 1 (J0, i0e).
_DEPTH_SPAN = 40.0
# Entries of a row x node matrix (J0 of the beat integral, i0e of the
# thickness scan) evaluated at once.
_RULE_BLOCK = 2**16


# ---------------------------------------------------------------------------
# numeric spectral propagator
# ---------------------------------------------------------------------------

def _exponential_weights(kind: WaveformKind):
    """(c_p, c_m): the kind as c_p*exp(-d*t)Theta(t) + c_m*exp(d*t)Theta(-t).

    Read off PART_WEIGHTS: the symmetric part is the half-sum of the causal
    and anticausal exponentials, the antisymmetric part their half-difference.
    """
    w_s, w_a = PART_WEIGHTS[kind]
    return 0.5 * (w_s + w_a), 0.5 * (w_s - w_a)


def _product_terms(left, right):
    """Pole terms of the product of two sums of c/(s - z)^j, like (z, j) terms summed."""
    acc: dict[tuple[complex, int], complex] = {}
    for z1, j1, c1 in left:
        for z2, j2, c2 in right:
            for z, j, c in partial_fractions(c1 * c2, merge_poles([z1] * j1 + [z2] * j2)):
                acc[z, j] = acc.get((z, j), 0) + c
    return [(z, j, c) for (z, j), c in acc.items()]


def _subtraction_terms(w: PhotonWaveform, a: AbsorberSpec):
    """Pole terms of b(s) * sum_{k=1.._SUBTRACT_ORDERS} (-A(s)l)^k / k!.

    Order k is order k - 1 times -A(s)l/k, the recurrence that
    _remainder_integrand runs on the lattice, starting from the source's
    c_p/(s + d) - c_m/(s - d).
    """
    if w.kind not in PART_WEIGHTS:
        return []
    c_p, c_m = _exponential_weights(w.kind)
    d = w.delta_ph
    term = [(z, 1, c) for z, c in ((complex(-d), c_p), (complex(d), -c_m)) if c != 0]
    med = medium_poles(a)
    terms = []
    for k in range(1, _SUBTRACT_ORDERS + 1):
        term = [(z, j, -c / k) for z, j, c in _product_terms(term, med)]
        terms += term
    return terms


def _remainder_integrand(w, a, nu):
    b = spectral_amplitude(w, nu)
    al = spectral_response(a, nu)
    acc = np.exp(-al) - 1.0
    if w.kind is not WaveformKind.GAUSSIAN:
        power = np.ones_like(al)
        for k in range(1, _SUBTRACT_ORDERS + 1):
            power = power * (-al) / k
            acc = acc - power
    return b * acc


def _window_defaults(w: PhotonWaveform, a: AbsorberSpec, grid: TimeGrid):
    d = w.delta_ph
    if w.kind is WaveformKind.GAUSSIAN:
        nu_max = max(15.0 * d, 3.0 * a.linewidth)
    else:
        nu_max = max(50.0 * a.linewidth, 50.0 * d, _WINDOW_PER_ALPHA0L * a.alpha0_l)
    rate_min = min(d, a.linewidth)
    if isinstance(a, EitMedium):
        rate_min = min(rate_min, a.gamma_m)
    span = grid.t_end - grid.t_start
    period = 1.5 * span + 50.0 / rate_min
    return nu_max, period


def _build_fill_pool():
    """Build _FILL_POOL, the thread pool filling the FFT lattice, one worker per usable CPU.

    A ThreadPoolExecutor starts no thread before its first task, so importing
    the module starts none.  One pool serves the process; a forked child
    inherits it without its threads, and would wait on it, so builds its own.
    """
    global _FILL_POOL
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    _FILL_POOL = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="slowphoton-fill")


_build_fill_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_build_fill_pool)


def _remainder_fft(w, a, grid, mdiv, period):
    """Remainder transform on the scenario grid via an aligned FFT.

    The FFT time step is grid.spacing/mdiv, so scenario samples land
    exactly on FFT samples; the frequency window is pi/dtau.  The spectrum
    is filled in _FFT_CHUNK slices, concurrently on the usable CPUs
    (`_FILL_POOL`; the elementwise numpy work releases the GIL), each
    worker writing its own disjoint slice, then transformed in place.
    Every element is computed as it would be serially, so the result does
    not depend on the CPU count.  Memory grows by one slice's temporaries
    per worker, which the slice size keeps small beside the lattice.
    """
    h_grid = grid.spacing
    dtau = h_grid / mdiv
    n = 1 << max(
        math.ceil(math.log2(period / dtau)),
        math.ceil(math.log2((grid.n_points + 1) * mdiv)),
        int(math.log2(_MIN_FFT_SAMPLES)),
    )
    if n > _MAX_FFT_SAMPLES:
        return None
    dnu = 2.0 * math.pi / (n * dtau)
    nu_half = math.pi / dtau
    tau0 = grid.t_start
    spect = np.empty(n, dtype=complex)

    def fill(start):
        stop = min(start + _FFT_CHUNK, n)
        k = np.arange(start, stop)
        h = _remainder_integrand(w, a, -nu_half + dnu * k)
        spect[start:stop] = h * np.exp(-1j * dnu * tau0 * k)

    # reading every result re-raises a slice's error here
    for _ in _FILL_POOL.map(fill, range(0, n, _FFT_CHUNK)):
        pass
    r_fft = np.fft.fft(spect, out=spect)
    j = np.arange(grid.n_points) * mdiv
    tau_j = tau0 + j * dtau
    values = (dnu / (2.0 * math.pi)) * np.exp(1j * nu_half * tau_j) * r_fft[j]
    info = {"nu_max": nu_half, "n_freq": n, "strategy": "fft"}
    return values, info


def _remainder_direct(w, a, grid, nu_max, period):
    """Remainder transform by direct summation, for grids beyond the FFT cap.

    The phase factors exp(-i*nu*tau_j) advance by a constant rotation per
    grid step, so one rotation vector replaces the full phase matrix.  The
    m frequencies obey the FFT's lattice cap, and the m*n_points products
    _MAX_DIRECT_WORK; above either, ConvergenceError is raised before any
    array is allocated.
    """
    dnu = 2.0 * math.pi / period
    m = math.ceil(2.0 * nu_max / dnu)
    if m > _MAX_FFT_SAMPLES or m * grid.n_points > _MAX_DIRECT_WORK:
        raise ConvergenceError(
            f"direct summation needs {m} frequencies x {grid.n_points} points, above "
            f"the caps of {_MAX_FFT_SAMPLES} frequencies and {_MAX_DIRECT_WORK} products"
        )
    nu = -nu_max + dnu * np.arange(m)
    h = _remainder_integrand(w, a, nu) * (dnu / (2.0 * math.pi))
    tau = grid.times()
    phase = h * np.exp(-1j * nu * tau[0])
    step = np.exp(-1j * nu * grid.spacing)
    values = np.empty(tau.shape, dtype=complex)
    for j in range(tau.size):
        values[j] = phase.sum()
        phase *= step
    info = {"nu_max": nu_max, "n_freq": m, "strategy": "direct"}
    return values, info


def propagate_numeric(w: PhotonWaveform, a: Optional[AbsorberSpec], grid: TimeGrid) -> TimeSeries:
    """Numerically propagate the envelope through the absorber.

    Evaluates the spectral integral with analytic tail subtraction and a
    self-convergence check: the frequency window and period are doubled
    until successive evaluations agree to _DRIFT_TOL in max-abs, else
    ConvergenceError is raised after _MAX_DOUBLINGS doublings.  It is also
    raised when the subtracted pole terms, which cancel near a double pole,
    could lose more than _DRIFT_TOL to round-off: machine epsilon times their
    summed moduli.  A missing medium or zero thickness reproduces the sampled
    input exactly.
    """
    tau = grid.times()
    free = time_amplitude(w, tau)
    if a is None or a.thickness == 0.0:
        return TimeSeries(grid, free, {"drift": 0.0, "iterations": 0})
    nu_max, period = _window_defaults(w, a, grid)
    # bounds every level's window, period and lattice size (~ period x
    # max(nu_max, 1/spacing), x4 per doubling), so that none overflows
    rate = max(nu_max, 1.0 / grid.spacing, 1.0)
    if not math.isfinite(2.0 * 4**_MAX_DOUBLINGS * rate * max(period, 1.0)):
        raise ConvergenceError(f"spectral lattice overflows: window {nu_max:.3g}, period {period:.3g}")
    mdiv = max(1, math.ceil(grid.spacing * nu_max / math.pi))
    prev = None
    drift = math.inf
    # level k doubles the window and the period k times
    for level in range(_MAX_DOUBLINGS + 1):
        scale = 1 << level
        cur, info = (_remainder_fft(w, a, grid, mdiv * scale, period * scale)
                     or _remainder_direct(w, a, grid, nu_max * scale, period * scale))
        if prev is not None:
            drift = float(np.max(np.abs(cur - prev)))
            if drift <= _DRIFT_TOL:
                break
        prev = cur
    else:
        raise ConvergenceError(
            f"spectral quadrature drift {drift:.3e} > {_DRIFT_TOL:.1e} after "
            f"{_MAX_DOUBLINGS} refinements"
        )
    info = dict(info)
    info.update({"drift": drift, "iterations": level, "tol": _DRIFT_TOL})
    magnitude = np.zeros(tau.shape)
    closed = eval_pole_terms(_subtraction_terms(w, a), tau, magnitude)
    roundoff = np.finfo(float).eps * float(magnitude.max(initial=0.0))
    if roundoff > _DRIFT_TOL:
        raise ConvergenceError(
            f"pole subtraction round-off bound {roundoff:.3e} > {_DRIFT_TOL:.1e}: "
            "its terms nearly cancel"
        )
    return TimeSeries(grid, free + closed + cur, info)


# ---------------------------------------------------------------------------
# two-level line closed forms: matched (Gamma = delta_ph) and broad lines
# ---------------------------------------------------------------------------

def analytic_matched(delta_ph: float, thickness: float, tau):
    """Dynamical-beat envelope exp(-d*tau) * J0(2*sqrt(T*d*tau)) for tau > 0.

    Matched condition: absorber halfwidth equals the photon halfwidth.
    """
    tv = np.asarray(tau, dtype=float)
    tp = np.clip(tv, 0.0, None)
    out = np.exp(-delta_ph * tp) * _sp.j0(2.0 * np.sqrt(thickness * delta_ph * tp))
    out = out * _step(tv)
    out = out.astype(complex)
    return out if np.ndim(tau) else complex(out)


def _depth_rule(rule, t_eff, decay):
    """Gauss-Legendre rule in depth u = t_eff - x on [0, min(t_eff, _DEPTH_SPAN/decay)].

    rule is (nodes, weights) on [-1, 1].  Returns the depths u and the
    weights w*exp(-decay*u) for integral_0^t_eff exp(-decay*(t_eff - x)) f(x) dx;
    an array t_eff gives one row of each per entry.  Placing the nodes in
    depth keeps the weights exact however large t_eff is.
    """
    x, w = rule
    half = 0.5 * np.minimum(t_eff, _DEPTH_SPAN / decay)[..., None]
    u = half * (1.0 - x)
    return u, half * w * np.exp(-decay * u)


def _row_blocks(n_rows, n_nodes):
    """Row slices whose row x node matrices hold at most _RULE_BLOCK entries."""
    step = max(1, _RULE_BLOCK // n_nodes)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _beat_order(t_eff, decay, rate, tau_max):
    """Gauss-Legendre node count for _beat_integral.

    The integrand is entire in x: one node per radian of half the Bessel
    phase 2*sqrt(t_eff*rate*tau_max) resolves its oscillations, and
    4*sqrt(decay*window) the exponential's boundary layer over the depth
    window of _depth_rule.  Both stay bounded on a near-matched line, where
    t_eff grows without bound but t_eff*rate = alpha0*l does not.
    """
    n = 16 + math.ceil(math.sqrt(t_eff * rate * tau_max))
    return n + math.ceil(4.0 * math.sqrt(min(decay * t_eff, _DEPTH_SPAN)))


def _beat_integral(t_eff, decay, rate, tau_values):
    """integral_0^t_eff exp(-decay*(t_eff - x)) * J0(2*sqrt(x*rate*tau)) dx for tau > 0.

    Inner integral of the symmetric/antisymmetric transmission solutions, a
    Lommel function of two variables.  One Gauss-Legendre rule from
    _depth_rule, with `_beat_order` nodes, serves every tau; J0 on the
    tau x node matrix, filled in blocks of at most _RULE_BLOCK entries,
    times the weight vector gives the integrals.  Accurate to ~1e-13
    absolute on the presets, which matters because downstream combinations
    nearly cancel.
    """
    tv = np.asarray(tau_values, dtype=float)
    if t_eff == 0.0:
        return np.zeros(tv.shape)
    flat = tv.reshape(-1)
    n = _beat_order(t_eff, decay, rate, float(flat.max()))
    u, w = _depth_rule(_sp.roots_legendre(n), t_eff, decay)
    phase = 2.0 * np.sqrt((t_eff - u) * rate)
    root_tau = np.sqrt(flat)
    out = np.empty(flat.shape)
    for rows in _row_blocks(flat.size, u.size):
        out[rows] = _sp.j0(root_tau[rows, None] * phase) @ w
    return out.reshape(tv.shape)


def _line_parts(d, g, alpha0_l, tau):
    """(b_s, b_a) behind a Lorentzian line of halfwidth g >= d (g <= d: matched).

    With T_pm = alpha0*l/(g +- d), for tau > 0
        b_s, b_a = exp(-d*tau - T_-)/2 + exp(-g*tau)/2 * (g_- -+ g_+),
    g_pm = _beat_integral(T_pm, 1, g +- d, tau).  The matched line g = d is
    the limit T_- -> inf: the slow term vanishes and g_- becomes
    J0(2*sqrt(alpha0*l*tau)).  For tau < 0 both parts show the attenuated
    precursor exp(d*tau - T_+)/2 with opposite signs; at tau = 0 the
    antisymmetric jump takes its midpoint value (1 - exp(-T_+))/2.
    """
    t_plus = alpha0_l / (g + d)
    tv = np.atleast_1d(np.asarray(tau, dtype=float))
    b_s = np.zeros(tv.shape, dtype=complex)
    b_a = np.zeros(tv.shape, dtype=complex)

    neg = tv < 0
    pre = 0.5 * np.exp(d * tv[neg] - t_plus)
    b_s[neg] = pre
    b_a[neg] = -pre

    pos = tv > 0
    if np.any(pos):
        tp = tv[pos]
        g_plus = _beat_integral(t_plus, 1.0, g + d, tp)
        if g > d:
            t_minus = alpha0_l / (g - d)
            g_minus = _beat_integral(t_minus, 1.0, g - d, tp)
            slow = 0.5 * np.exp(-d * tp - t_minus)
        else:
            g_minus = _sp.j0(2.0 * np.sqrt(alpha0_l * tp))
            slow = 0.0
        fast = 0.5 * np.exp(-g * tp)
        b_s[pos] = slow + fast * (g_minus - g_plus)
        b_a[pos] = slow + fast * (g_minus + g_plus)

    zero = tv == 0
    if np.any(zero):
        b_s[zero] = 0.5 * math.exp(-t_plus)
        b_a[zero] = 0.5 * -math.expm1(-t_plus)

    if np.ndim(tau) == 0:
        return complex(b_s[0]), complex(b_a[0])
    return b_s, b_a


def analytic_parts_matched(delta_ph: float, thickness: float, tau):
    """Symmetric and antisymmetric components behind a matched line.

    Returns (b_s, b_a).  For tau < 0 both show the attenuated precursor
    exp(d*tau - T/2)/2 with opposite signs; at tau = 0 the antisymmetric
    jump takes its midpoint value (1 - exp(-T/2))/2.
    """
    return _line_parts(delta_ph, delta_ph, thickness * delta_ph, tau)


def _check_broad(delta_ph, gamma_total):
    if not gamma_total > delta_ph:
        raise ValidityError(
            "broad-line solution requires Gamma > delta_ph "
            f"(got Gamma={gamma_total}, delta_ph={delta_ph})"
        )


def analytic_parts_broad(delta_ph: float, gamma_total: float, thickness: float, tau):
    """Symmetric and antisymmetric components behind a broad line.

    thickness is T_b = alpha0*l/Gamma; the two effective thicknesses
    T_pm = alpha0*l/(Gamma +- delta_ph) are derived here.  Returns
    (b_s, b_a).
    """
    _check_broad(delta_ph, gamma_total)
    return _line_parts(delta_ph, gamma_total, thickness * gamma_total, tau)


def approx_broad(delta_ph: float, gamma_total: float, alpha0_l: float, tau):
    """Two-term thick-broad-line approximation of the total envelope.

    exp(-Gamma*tau) * [J0(2*sqrt(a0l*tau))
                       + (Gamma-delta_ph)*tau*J1(2*sqrt(a0l*tau))/sqrt(a0l*tau)]
    for tau > 0.  The leading term carries no dependence on the photon
    width; intended for delta_ph << Gamma (documented, not enforced).
    """
    tv = np.atleast_1d(np.asarray(tau, dtype=float))
    tp = np.clip(tv, 0.0, None)
    x = 2.0 * np.sqrt(alpha0_l * tp)
    # J1(x)/x -> 1/2 as x -> 0; series below x = 1e-3 avoids 0/0
    small = x < 1e-3
    ratio = np.empty_like(x)
    ratio[small] = 0.5 - x[small] ** 2 / 16.0
    ratio[~small] = _sp.j1(x[~small]) / x[~small]
    second = (gamma_total - delta_ph) * tp * 2.0 * ratio
    out = (np.exp(-gamma_total * tp) * (_sp.j0(x) + second) * _step(tv)).astype(complex)
    return out if np.ndim(tau) else complex(out[0])


# ---------------------------------------------------------------------------
# EIT closed forms
# ---------------------------------------------------------------------------

def phi_plus(delta_ph: float, params: EitParams, tau):
    """Leading-edge smoothing function of the EIT-filtered envelope.

    0.5*exp(r**2)*[1 + erf(de/2*(tau - t_d) - r)] with r = delta_ph/delta_eff;
    rises from 0 to ~1 around the group delay over a width ~4/delta_eff.
    delta_ph = 0 gives the pure window-limited edge.
    """
    de = params.delta_eff
    r = delta_ph / de
    tv = np.asarray(tau, dtype=float)
    z = 0.5 * de * (tv - params.t_d) - r
    out = 0.5 * math.exp(r * r) * (1.0 + _sp.erf(z))
    return out if np.ndim(tau) else float(out)


def _r_pm(sign: int, delta_ph: float, p: EitParams, tau):
    """Adiabatic response R_+- to the causal/anticausal unit exponential.

    R_+ = phi_+ * exp(-T_eit - d*(tau-t_d)), R_- the anticausal mirror.
    Evaluated through erfcx so both the deep Gaussian flank and the
    exponential tail stay accurate without overflow.
    """
    de = p.delta_eff
    d = delta_ph
    r = d / de
    y = np.asarray(tau, dtype=float) - p.t_d
    base = np.exp(-0.25 * (de * y) ** 2 - p.t_eit)
    z = 0.5 * de * y - sign * r
    out = np.where(
        sign * z <= 0,
        0.5 * _sp.erfcx(np.abs(z)) * base,
        np.exp(np.minimum(r * r - p.t_eit - sign * d * y, 0.0))
        - 0.5 * _sp.erfcx(np.abs(z)) * base,
    )
    return out


def adiabatic_eit(w: PhotonWaveform, a: EitMedium, tau):
    """Adiabatic (window-filtered, delayed) part of the causal envelope."""
    if w.kind is not WaveformKind.EXPONENTIAL_CAUSAL:
        raise UnsupportedWaveformError(
            "adiabatic_eit is defined for the causal exponential envelope"
        )
    out = np.asarray(_r_pm(+1, w.delta_ph, eit_params(a), tau), dtype=complex)
    return out if np.ndim(tau) else complex(out)


def _check_nonadiabatic(delta_ph, gamma_total):
    if delta_ph > gamma_total and not math.isclose(delta_ph, gamma_total, rel_tol=1e-12):
        raise ValidityError(
            "nonadiabatic part needs delta_ph <= Gamma "
            f"(got delta_ph={delta_ph}, Gamma={gamma_total})"
        )


def _nonadiabatic(w: PhotonWaveform, a: EitMedium, tau):
    """Spectrally broad part: transmission through the uncoupled broad line."""
    _check_nonadiabatic(w.delta_ph, a.gamma_total)
    b_s, b_a = _line_parts(w.delta_ph, a.gamma_total, a.alpha0_l, tau)
    w_s, w_a = PART_WEIGHTS[w.kind]
    return w_s * b_s + w_a * b_a


def total_eit(w: PhotonWaveform, a: EitMedium, grid: TimeGrid) -> TimeSeries:
    """Total EIT-filtered envelope: adiabatic part plus nonadiabatic spike.

    Supported inputs: causal exponential, symmetric part, antisymmetric
    part.  The Gaussian envelope has no such decomposition; use
    propagate_numeric for it.
    """
    if w.kind not in PART_WEIGHTS:
        raise UnsupportedWaveformError(
            "total_eit has no decomposition for the Gaussian envelope; "
            "use propagate_numeric"
        )
    p = eit_params(a)
    tau = grid.times()
    c_p, c_m = _exponential_weights(w.kind)
    adiabatic = c_p * _r_pm(+1, w.delta_ph, p, tau) + c_m * _r_pm(-1, w.delta_ph, p, tau)
    return TimeSeries(grid, adiabatic + _nonadiabatic(w, a, tau))


# ---------------------------------------------------------------------------
# Gaussian envelope through a broad line
# ---------------------------------------------------------------------------

def _gaussian_eta(delta_ph, gamma_total, thickness) -> float:
    """Width factor eta = 1/sqrt(1 - f*T), f = (delta_ph/Gamma)**2, for f*T < 1."""
    ft = (delta_ph / gamma_total) ** 2 * thickness
    if ft >= 1.0:
        raise ValidityError(f"approximation requires f*T < 1, got f*T = {ft:g}")
    return 1.0 / math.sqrt(1.0 - ft)


def gaussian_broad(delta_ph: float, gamma_total: float, thickness: float, tau):
    """Quadratic-expansion solution for a Gaussian envelope in a broad line.

    eta * exp(-T - eta**2*delta_ph**2*(tau + T/Gamma)**2 / 4) with
    eta = 1/sqrt(1 - f*T), f = (delta_ph/Gamma)**2; the transmitted pulse
    is advanced to tau = -T/Gamma.  Valid for f*T < 1.  The exponent
    carries the 1/4 of the incident exp(-d**2 t**2/4) width convention so
    the zero-thickness limit reproduces the input.
    """
    eta = _gaussian_eta(delta_ph, gamma_total, thickness)
    tv = np.asarray(tau, dtype=float)
    u = tv + thickness / gamma_total
    out = eta * np.exp(-thickness - 0.25 * (eta * delta_ph * u) ** 2)
    out = out.astype(complex)
    return out if np.ndim(tau) else complex(out)
