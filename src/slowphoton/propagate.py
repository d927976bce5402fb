"""Transmitted envelope b(l, tau): spectral-integral oracle and closed forms.

The numeric route evaluates the propagation integral

    b(l, tau) = (1/2pi) * integral b(0, nu) exp(-i*nu*tau - A(nu)*l) dnu

on a uniform frequency lattice.  The incident spectra fall off only like
1/nu, so the free-space term and the first three orders of the medium
response, small rational functions of nu, are inverted in closed form (as
the impulse response of one small linear system, `_subtraction`), and the
remainder, decaying like (alpha0*l/nu)**4, is cut where its tail is below
_TAIL_TOL and folded onto the grid's period for one FFT of p ~ period/spacing
points.  The period is the least one whose periodic images of the remainder,
bounded exactly before tau = 0 and along a shifted contour after it
(`_image_model`), sum to at most _ALIAS_TOL on the grid; `_window` keeps the
last window, so that `validate` and the run after it share it, and
`_contour` the last contour, which depends on delta_ph and the medium only,
so that the parts of one photon share it.
Sources and impulse responses are real, so h(-nu) = conj h(nu): the folded
spectrum is Hermitian, its half goes through one real-output FFT, and the
envelope is real by construction.  Two levels are filled: level 1 is the
answer and level 0, of half its window and period, its check.  An aligned
level 1 has exactly twice level 0's mdiv and p, so its lattice holds every
level-0 sample, or its conjugate mirror, and level 0 is read off it (`_fill`):
each sample is evaluated once.  The split keeps the oracle independent of the
Bessel-function closed forms it checks.

All closed-form solutions from the transmission analysis live here as
well: the matched-line dynamical-beat envelope, the thick-broad-line
two-term approximation, the adiabatic EIT solution with its nonadiabatic
spike, and the Gaussian-envelope approximation for a broad line.  The
symmetric and antisymmetric parts behind a Lorentzian line of halfwidth
Gamma >= delta_ph come from one solution, `_line_parts`: the matched line
Gamma = delta_ph is its limit, and the EIT medium's nonadiabatic part
reuses it.  It is kept for the last line and tau array, so consecutive
calls that share them evaluate it once.  Its inner beat integrals and the
broad-line thickness scan share one Gauss-Legendre rule placed in depth below
the upper limit (`_depth_rule`), whose size does not grow with the effective
thickness; `_legendre` builds every rule on first use and keeps the last four.
The beat integrals run only on tau <= 40/Gamma, past which their term is
below exp(-40), so the rule does not grow with the grid's last tau either.

Local time tau = t - l/c; jumps at tau = 0 take the midpoint value
(Theta(0) = 1/2), consistent with the waveform module.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np
from scipy import special as _sp

from .errors import ConvergenceError, UnsupportedWaveformError, ValidityError
from .media import (
    AbsorberSpec,
    EitMedium,
    EitParams,
    eit_params,
    medium_system,
    spectral_response,
)
from .waveforms import (
    PART_WEIGHTS,
    PhotonWaveform,
    TimeGrid,
    TimeSeries,
    WaveformKind,
    _exponential_weights,
    _from_parts,
    _step,
    spectral_amplitude,
    time_amplitude,
)

# unused: perfbench's tracing.wrap_table wraps these names, so they stay until
# the benchmark takes its timings from the library (ROADMAP item 1 B)
medium_poles = merge_poles = partial_fractions = eval_pole_terms = quad = None

__all__ = [
    "TimeSeries",
    "propagate_numeric",
    "spectral_lattice",
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
_SUBTRACT_ORDERS = 3
# propagate_numeric fills level 0 and level 1, of twice its window and period; they must agree to
# _DRIFT_TOL in max-abs.  No level 2: on thick lines it moved further from the exact closed forms.
_DRIFT_TOL = 1e-5
# Window: past +-nu_max, taken past EIT's lines at +-omega, |b0(nu)| <= 1/|nu| and |A(nu)l| <~ alpha0*l/|nu|
# keep the remainder, b0 times exp(-A(nu)l)'s Taylor remainder |A(nu)l|**k/k!, k = _SUBTRACT_ORDERS + 1,
# below `_tail_bound` = (alpha0*l/nu_max)**k/(pi*k*k!): _TAIL_TOL at alpha0*l*(pi*k*k!*_TAIL_TOL)**(-1/k).
_TAIL_TOL = 1e-6
# Period: the folded lattice sum at tau_j is the remainder summed over its images tau_j + n*period (Poisson),
# and the level-0 period is the least whose images n != 0 stay below `_alias_bound` = _ALIAS_TOL, 1e-3 of
# _DRIFT_TOL, so that the drift measures the window and not the period.  Level 1 doubles it.
_ALIAS_TOL = 1e-8
# `_image_model` bounds the remainder past tau = 0 along Re s = -sigma for these fractions sigma/r of its
# slowest rate r, each integral taken with _IMAGE_NODES nodes per Cauchy map and doubled as a quadrature margin.
_IMAGE_SIGMAS = (0.5, 0.9)
_IMAGE_NODES = 64
# Each level fills one frequency lattice (`spectral_lattice`) in `_row_blocks`
# slices, on a thread pool that lives for that call when there are _POOL_SLICES
# or more slices and two or more usable CPUs (else on the calling thread), and
# folds its at most _MAX_FFT_SAMPLES samples, on columns 0..p/2 only, into the
# Hermitian half spectrum of one real-output FFT of about period/spacing points;
# an aligned level-1 slice also completes the level-0 columns it holds.
# A grid finer than ~pi/nu_max takes a chirp-z zoom of m frequencies onto n
# points instead, with m + n - 1 <= _MAX_FFT_SAMPLES, else ConvergenceError.
_MAX_FFT_SAMPLES = 2**22
# Timed alternately on 2 CPUs, pooled and serial fills of 2 slices were slower pooled in
# most runs, 3 were a tie, and 4, 5, 6 and 8 were faster pooled in most: the pool's start
# (~0.4 ms) and its threads' memory pay from 4 slices on.
_POOL_SLICES = 4
# The 2*3*5-smooth lengths up to the cap, ascending: each odd part 3**j * 5**k (3**14 and 5**10
# pass the cap) times every power of two that keeps it under the cap.  `_fast_len` rounds up to one.
_SMOOTH_LENGTHS = tuple(sorted(
    odd << i
    for odd in (3**j * 5**k for j in range(14) for k in range(10))
    if odd <= _MAX_FFT_SAMPLES
    for i in range((_MAX_FFT_SAMPLES // odd).bit_length())
))
# _depth_rule drops depths u > _DEPTH_SPAN/decay below the upper limit, where
# the weight exp(-decay*u) is below exp(-40): at most exp(-40)/decay =
# 4e-18/decay for an integrand bounded by 1 (J0, i0e).
_DEPTH_SPAN = 40.0
# Entries of a row x node matrix (J0 of the beat integral, i0e of the
# thickness scan, a slice of the frequency lattice) evaluated at once.
_RULE_BLOCK = 2**15
# J0 evaluations (rule nodes x tau) that `_check_beat_work` lets one
# `_line_parts` call make, about half a second; a preset makes at most 7.9e4 (fig3a).
_MAX_BEAT_WORK = 2**22


# ---------------------------------------------------------------------------
# numeric spectral propagator
# ---------------------------------------------------------------------------

def _expm(a):
    """exp(a) of a small matrix: a degree-18 Taylor series of a/2^s, ||a/2^s||_1 < 1/2, squared s times.

    Numpy only: scipy.linalg.expm's Pade step waits ~8 ms on multithreaded OpenBLAS calls on 2 CPUs.
    """
    s = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()))[1] + 1)
    out = term = np.eye(len(a))
    for k in range(1, 19):
        out = out + (term := term @ a / (k * 2.0**s))
    return np.linalg.matrix_power(out, 2**s)


def _subtraction(w: PhotonWaveform, a: AbsorberSpec, grid: TimeGrid):
    """(signal, roundoff): b(s) * sum_{k=1.._SUBTRACT_ORDERS} (-A(s)l)^k / k! on the grid.

    With `medium_system`'s A(s)l = C(sI - M)^(-1)B, order k is the source's
    causal state (rate -d) in series with k medium blocks fed by B*C: one
    block lower-bidiagonal chain matrix, whose coincident poles are a Jordan
    block.  For tau > 0 the orders read C off exp(chain*tau) @ x0, x0 being
    c_p on the source state plus c_m*(d - chain)^(-1)B on the medium blocks:
    what the medium carries past tau = 0 of the anticausal c_m*exp(d*tau).
    For tau <= 0 order k is c_m*exp(d*tau)*G^k/k!, G = -A(d)l, the same
    readout of x0, so the orders are continuous at tau = 0.  The tau > 0
    columns are stepped by doubling from exp(spacing*chain), never an
    exponential at a large tau, then moved to linspace's tau to first order.
    roundoff is eps times the largest summed moduli of the orders, the
    round-off of adding them to the free term and the remainder.
    """
    tau = grid.times()
    if w.kind not in PART_WEIGHTS:
        return np.zeros(tau.shape), 0.0
    c_p, c_m = _exponential_weights(w.kind)
    d = w.delta_ph
    m, b, c = medium_system(a)
    q, gain = len(m), a.alpha0_l
    n = 1 + _SUBTRACT_ORDERS * q
    # block k holds its state over gain**k, so the couplings B*C/gain are of
    # the medium's own size and order k + 1 reads gain**k back
    chain, read = np.zeros((n, n)), np.zeros((_SUBTRACT_ORDERS, n))
    chain[0, 0] = -d
    for k in range(_SUBTRACT_ORDERS):
        blk = slice(1 + k * q, 1 + (k + 1) * q)
        chain[blk, blk] = m
        chain[blk, max(blk.start - q, 0):blk.start] = b @ c / gain if k else b
        read[k, blk] = -(-gain) ** k / math.factorial(k + 1) * c[0]
    x0 = np.zeros(n)
    x0[0] = c_p
    x0[1:] = c_m * np.linalg.solve(d * np.eye(n - 1) - chain[1:, 1:], chain[1:, 0])
    orders = np.outer(read @ x0, np.exp(d * np.minimum(tau, 0.0)))
    pos = np.flatnonzero(tau > 0)
    if pos.size:
        h = grid.spacing
        shift, f = divmod(float(tau[pos[0]]), h)  # column j is x at f + (shift + j)*h
        power = _expm(h * chain)
        cols = (np.linalg.matrix_power(power, int(shift)) @ _expm(f * chain) @ x0)[:, None]
        while cols.shape[1] < pos.size:
            cols, power = np.hstack([cols, power @ cols]), power @ power
        cols = cols[:, :pos.size]
        cols += (chain @ cols) * (tau[pos] - (f + (shift + np.arange(pos.size)) * h))
        orders[:, pos] = read @ cols
    roundoff = float(np.finfo(float).eps * np.abs(orders).sum(axis=0).max(initial=0.0))
    return orders.sum(axis=0), roundoff


def _exp_remainder(x, orders):
    """exp(x) - sum_{k<=orders} x**k/k! of an array, overwriting x: the orders by Horner, in place.

    A complex x's division by k is a product of both parts with 1/k, the
    bits of numpy's complex division by k + 0j (Smith's method) at a
    fraction of its cost; a real x is divided by k.
    """
    taylor = np.ones_like(x)
    parts = taylor.view(float) if np.iscomplexobj(x) else None
    for k in range(orders, 0, -1):  # 1 + x*(1 + x/2*(1 + x/3))
        taylor *= x
        if parts is None:
            taylor /= k
        else:
            parts *= 1.0 / k
        taylor += 1.0
    np.exp(x, out=x)
    x -= taylor
    return x


def _remainder_integrand(w, a, nu):
    """h(nu) = b(0, nu)*(exp(x) - its orders k <= _SUBTRACT_ORDERS), x = -A(nu)l; the Gaussian's k = 0 only."""
    x = spectral_response(a, nu)
    parts = x.view(float)  # negating both parts, the bits of complex negation at a fifth of its cost
    np.negative(parts, out=parts)
    x = _exp_remainder(x, _SUBTRACT_ORDERS if w.kind in PART_WEIGHTS else 0)
    x *= spectral_amplitude(w, nu)
    return x


def _tail_bound(w: PhotonWaveform, alpha0_l, nu_max):
    """Bound on the remainder integral past +-nu_max (see _TAIL_TOL)."""
    if w.kind is WaveformKind.GAUSSIAN:  # |b0| <= (2*sqrt(pi)/d)*exp(-(nu/d)**2), |exp(-A(nu)l) - 1| <= 2
        return 2.0 * math.erfc(nu_max / w.delta_ph)
    return (alpha0_l / nu_max) ** (k := _SUBTRACT_ORDERS + 1) / (math.pi * k * math.factorial(k))


def _transfer(m, b, c):
    """(num, den), highest power first: C(sI - M)^(-1)B = num(s)/den(s), by the Faddeev-LeVerrier recursion."""
    eye = np.eye(len(m))
    num, den, adj = [], [1.0], eye
    for k in range(1, len(m) + 1):  # adj(sI - M) = sum_k s**(q - k) * adj_k, den = det(sI - M)
        num.append((c @ adj @ b).item())
        step = m @ adj
        den.append(-np.trace(step) / k)
        adj = step + den[-1] * eye
    return np.array(num), np.array(den)


def _image_model(w: PhotonWaveform, a: AbsorberSpec):
    """(d, c0, terms): |r(tau)| <= c0*exp(d*tau) for tau <= 0 and K*exp(-sigma*tau) for tau > 0, (sigma, K) in terms.

    r is the remainder of an exponential source, the inverse transform of
    h = b(0, s)*E(s), s = -i*nu, E = exp(-u) minus its orders k <=
    _SUBTRACT_ORDERS and u = A(s)l = C(sI - M)^(-1)B from `medium_system`, as
    `_transfer`'s rational function.  For tau <= 0 only the anticausal pole
    s = d lies right of the axis: r = c_m*E(d)*exp(d*tau) exactly.  For
    tau > 0, h is analytic on -rate < Re s < d, rate = min(d, -max Re eig M),
    and falls off like |s|**-5, so the contour moves to Re s = -sigma:
    |r(tau)| <= exp(-sigma*tau)*(1/2pi)*integral |h(-sigma + iy)| dy, for
    sigma = _IMAGE_SIGMAS*rate.  The integral is a midpoint rule in theta over
    `_contour`'s nodes, each weighted by (pi/n)/density; it came within 3% of
    2048-node runs on lines and EIT media, and K is twice it.  Past 60 steps,
    or at a value that is not finite, K is inf: such a lattice is far past the
    cap.  The contour depends on d and the medium only, so the sources that
    share them (the parts of one photon) share one, and each call applies its
    own pole weights c_p/(s + d) + c_m/(d - s) to it.
    """
    d = w.delta_ph
    c_p, c_m = _exponential_weights(w.kind)
    e_d, paths = _contour(d, a)
    terms = []
    with np.errstate(all="ignore"):
        c0 = abs(c_m * e_d)
        for sigma, s, e, density, reached in paths:
            h = (c_p / (s + d) + c_m / (d - s)) * e
            k = float((np.abs(h) / density).sum() / _IMAGE_NODES)  # 2 * (1/2pi) * sum |h|*(pi/n)/density
            terms.append((sigma, k if k < math.inf and reached else math.inf))
    return d, float(c0) if c_m else 0.0, tuple(terms)


@functools.lru_cache(maxsize=1)
def _contour(d, a: AbsorberSpec):
    """(E(d), paths) of `_image_model` for rate d through medium a, kept for the last call, arrays read-only.

    Each path is (sigma, s, E(s), density, reached) on Re s = -sigma: the
    nodes s = -sigma + iy of a midpoint rule in theta over Cauchy maps
    y = y_i + w_i*tan(theta), centred on each singularity's Im s, widths w_i
    from its distance to the contour up to max(alpha0*l, |eig M|, d) in steps
    of 8 (reached is False if 60 steps fall short), and density(y) =
    sum_i w_i/(w_i**2 + (y - y_i)**2) the maps' summed densities.
    """
    m, b, c = medium_system(a)
    eig, (num, den) = np.linalg.eigvals(m), _transfer(m, b, c)
    rate, top = min(d, float(-eig.real.max())), max(a.alpha0_l, d, float(np.abs(eig).max()))
    tan = np.tan((np.arange(_IMAGE_NODES) + 0.5) * (math.pi / _IMAGE_NODES) - 0.5 * math.pi)
    rungs = 8.0 ** np.arange(60)
    paths = []
    with np.errstate(all="ignore"):
        e_d = _exp_remainder(-np.polyval(num, [d]) / np.polyval(den, [d]), _SUBTRACT_ORDERS)[0]
        for sigma in rate * np.array(_IMAGE_SIGMAS):
            maps, reached = [], True
            for centre, near in [(0.0, d - sigma), (0.0, d + sigma)] + [(z.imag, -z.real - sigma) for z in eig]:
                widths = near * rungs
                maps += [(centre, width) for width in widths[:np.searchsorted(widths, top) + 1]]
                reached &= bool(widths[-1] >= top)
            centre, width = np.array(maps).T
            y = (centre[:, None] + width[:, None] * tan).ravel()
            density = (width / (width**2 + (y[:, None] - centre) ** 2)).sum(axis=1)
            s = 1j * y - sigma
            e = _exp_remainder(-np.polyval(num, s) / np.polyval(den, s), _SUBTRACT_ORDERS)
            for part in (s, e, density):
                part.flags.writeable = False
            paths.append((float(sigma), s, e, density, reached))
    return e_d, tuple(paths)


def _image_sum(coef, rate, first, period):
    """coef * sum_{n>=0} exp(-rate*(first + n*period)); inf where that is not a finite number."""
    if coef == 0.0:
        return 0.0
    ratio = -math.expm1(-rate * period)
    return coef * math.exp(-rate * first) / ratio if coef < math.inf and ratio > 0.0 else math.inf


def _alias_bound(images, grid: TimeGrid, period):
    """Bound on the remainder's images tau_j + n*period, n != 0, summed at any grid tau_j (see _ALIAS_TOL).

    With `_image_model`'s images = (d, c0, terms): when every image n > 0
    lies past tau = 0 and every image n < 0 at or before it, the sum is at
    most the images' two geometric series from the grid's ends; else inf.
    """
    d, c0, terms = images
    t0, t1 = grid.t_start, grid.t_end
    if not t0 + period > 0.0 >= t1 - period:
        return math.inf
    later = min((_image_sum(k, sigma, t0 + period, period) for sigma, k in terms), default=math.inf)
    return later + _image_sum(c0, d, period - t1, period)


def _least_period(images, grid: TimeGrid):
    """The least period, to 2**-20 of itself, past which `_alias_bound` stays below _ALIAS_TOL (inf if none)."""
    lo = max(-grid.t_start, grid.t_end, grid.t_end - grid.t_start)
    hi = 2.0 * max(lo, 1.0)
    while not _alias_bound(images, grid, hi) <= _ALIAS_TOL:  # the bound falls as the period grows
        if hi == math.inf:
            return hi
        lo, hi = hi, 2.0 * hi
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _alias_bound(images, grid, mid) <= _ALIAS_TOL else (mid, hi)
    return hi


@functools.lru_cache(maxsize=1)
def _window(w: PhotonWaveform, a: AbsorberSpec, grid: TimeGrid):
    """(nu_max, period, images) of level 0, kept for the last call: an exponential source's period from
    `_image_model`'s images; the Gaussian's images are None."""
    d = w.delta_ph
    if w.kind is WaveformKind.GAUSSIAN:  # keeps the bare period rule: no bound is stated for it
        rate_min = min(d, a.linewidth, a.gamma_m if isinstance(a, EitMedium) else math.inf)
        return max(15.0 * d, 3.0 * a.linewidth), 1.5 * (grid.t_end - grid.t_start) + 50.0 / rate_min, None
    # _tail_bound, c*(alpha0*l/nu)**k, is _TAIL_TOL at nu = alpha0*l*(c/_TAIL_TOL)**(1/k)
    tail = (_tail_bound(w, 1.0, 1.0) / _TAIL_TOL) ** (1.0 / (_SUBTRACT_ORDERS + 1)) * a.alpha0_l
    nu_max = max(50.0 * a.linewidth, 50.0 * d, tail, 2.0 * a.omega if isinstance(a, EitMedium) else 0.0)
    return nu_max, _least_period(images := _image_model(w, a), grid), images


def _fast_len(n: int) -> int:
    """The least 2*3*5-smooth length >= n, for 1 <= n <= _MAX_FFT_SAMPLES (scipy.fft.next_fast_len, real=True)."""
    return _SMOOTH_LENGTHS[bisect.bisect_left(_SMOOTH_LENGTHS, n)]


def spectral_lattice(w: PhotonWaveform, a: Optional[AbsorberSpec], grid: TimeGrid, level: int):
    """(strategy, mdiv, p, m, nu_half) of `propagate_numeric`'s lattice at `level` 0 or 1, if any.

    The period is p grid steps, p >= period/spacing and n_points, so
    dnu = 2pi/(p*spacing).  The lattice is nu_k = (k - m/2)*dnu, k < m, and
    +-nu_half = +-m*dnu/2 covers +-nu_max: the aligned FFT samples
    m = mdiv*p frequencies, nu_half = mdiv*pi/spacing, with level 0's p
    2*3*5-smooth; past _MAX_FFT_SAMPLES the zoom samples m = ceil(2*nu_max/dnu).
    Level 1 doubles level 0's window and period by doubling its mdiv and p,
    so an aligned level 1 holds level 0's lattice (`_fill`).
    ConvergenceError is raised before an overflow and for a zoom past the cap.
    """
    if a is None or a.thickness == 0.0:
        return None
    nu_max, period, _ = _window(w, a, grid)
    spacing, scale = grid.spacing, 1 << level
    # bounds the sizes below (~ period x max(nu_max, 1/spacing)) and t_start/spacing
    size = 2.0 * 4**level * max(nu_max, 1.0 / spacing, 1.0) * max(period, 1.0)
    if not math.isfinite(size + abs(grid.t_start) / spacing):
        raise ConvergenceError(f"spectral lattice overflows: window {nu_max:.3g}, period {period:.3g}")
    mdiv = max(1, math.ceil(spacing * nu_max / math.pi))
    p = max(math.ceil(period / spacing), grid.n_points)
    p = _fast_len(p) if mdiv * p <= _MAX_FFT_SAMPLES else p
    mdiv, p = mdiv * scale, p * scale  # level 1: twice level 0's
    if mdiv * p <= _MAX_FFT_SAMPLES:
        return "fft", mdiv, p, mdiv * p, mdiv * math.pi / spacing
    m = math.ceil(nu_max * scale * p * spacing / math.pi)
    if m + grid.n_points - 1 > _MAX_FFT_SAMPLES:
        raise ConvergenceError(
            f"chirp-z zoom of {m} frequencies onto {grid.n_points} points needs "
            f"{m + grid.n_points - 1} samples, above the cap of {_MAX_FFT_SAMPLES}"
        )
    return "zoom", 1, p, m, m * math.pi / (p * spacing)


def _fill(w, a, grid, lattice, coarse=None):
    """[(values, info)] of `spectral_lattice`'s `lattice`, after those of the `coarse` lattice it nests, if given.

    values is the remainder (dnu/2pi) * sum_k h(nu_k) exp(-i*nu_k*tau_j) on
    the scenario grid, a real array.  nu_k = (k - m/2)*dnu is filled in
    `_row_blocks` slices, which do not depend on the CPU count: _POOL_SLICES
    or more slices on a pool of one thread per usable CPU that lives for this
    call, fewer slices or one usable CPU on the calling thread.  Each slice is
    computed as it would be serially, so the result does not depend on the
    CPU count either.  At tau_j = (s0 + f + j)*spacing, s0 an
    integer and 0 <= f < 1, h_k turns by k*(s0 + j + f)/p, which mod 1 depends
    on k = q*p + r only through q*f and r: the aligned FFT sums the (mdiv, p)
    lattice row by row into g_r = sum_q h_k exp(-2i*pi*q*f), and one FFT of
    S_r = g_r*exp(i*pi*f*(mdiv - 2r/p)) holds tau_j, over (-1)**(mdiv*(j + s0)),
    at bin (j + s0) mod p.  The zoom turns each h_k instead.

    h(-nu) = conj h(nu) and nu_{m-k} = -nu_k: k = q*p + r pairs with
    m - k = (mdiv - 1 - q)*p + (p - r), column p - r is column r conjugated
    with its rows reversed, and S_{p-r} = conj S_r.  So S is filled on
    r = 0..p/2 only, for one real-output FFT.  nu_0 = -nu_half pairs with
    its alias +nu_half: that FFT drops Im S_0, and the zoom keeps the real
    part of its sum, either way giving the two ends half weight.

    An aligned FFT lattice (mdiv, p) nests the one of (mdiv/2, p/2), of twice
    its spacing, whose sample k0 = q*p0 + r is its sample 2*k0 + m0: for
    even mdiv0, row mdiv0/2 + q of column 2r; for odd mdiv0 that lies past
    column p0, and its mirror 3*m0 - 2*k0, row (3*mdiv0 - 1)/2 - q of column
    p0 - 2r, is conjugated (`_coarse_block`).  Each slice of the fine lattice
    completes the coarse half spectrum's columns it holds, from C-ordered
    copies, with no lattice-sized buffer; both lattices sum their rows one
    after another (`_column_sums`), so the coarse values are its own fill's
    bit for bit.
    """
    strategy, mdiv, p, m, nu_half = lattice
    n, dnu = grid.n_points, 2.0 * math.pi / (p * grid.spacing)
    s0, f = divmod(grid.t_start / grid.spacing, 1.0)
    if strategy == "fft":
        spect = np.empty(p // 2 + 1, dtype=complex)
        rows = np.exp(-2j * math.pi * f * np.arange(mdiv))[:, None]
        index, blocks = np.arange(p // 2 + 1), _row_blocks(p // 2 + 1, mdiv)
        if coarse is not None:
            mdiv0, p0 = coarse[1:3]
            spect0 = np.empty(p0 // 2 + 1, dtype=complex)
            rows0 = np.exp(-2j * math.pi * f * np.arange(mdiv0))[:, None]

        def fill(cols):
            r = index[cols]
            h = _remainder_integrand(w, a, dnu * (np.arange(0, m, p)[:, None] + r - m / 2))
            spect[r] = _column_sums(rows * h) * np.exp(1j * math.pi * f * (mdiv - 2 * r / p))
            if coarse is None:
                return
            lo, hi, block = _coarse_block(h, int(r[0]), int(r[-1]) + 1, mdiv0, p0)
            if lo < hi:
                r0 = np.arange(lo, hi)
                spect0[lo:hi] = _column_sums(rows0 * block) * np.exp(1j * math.pi * f * (mdiv0 - 2 * r0 / p0))
    else:
        spect, kernel = np.zeros((2, _fast_len(m + n - 1)), dtype=complex)
        index, blocks = np.arange(m), _row_blocks(m, 1)

        def chirp(t):  # exp(-i*pi*t**2/p), t*t mod 2p exact in float64 (< 2**53 under the cap)
            return np.exp(np.fmod(t.astype(float) ** 2, 2.0 * p) * (-1j * math.pi / p))

        def fill(blk):
            k = index[blk]
            kernel[-k] = np.conjugate(turn := chirp(k))
            h = _remainder_integrand(w, a, dnu * (k - m / 2))
            spect[k] = h * turn * np.exp(-1j * dnu * grid.t_start * k)

        np.conjugate(head := chirp(np.arange(n)), out=kernel[:n])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(blocks) < _POOL_SLICES or cpus < 2:
        list(map(fill, blocks))
    else:
        with ThreadPoolExecutor(cpus, thread_name_prefix="slowphoton-fill") as pool:
            list(pool.map(fill, blocks))  # reading each result re-raises its error
    if strategy == "fft":
        return ([_fold(spect0, coarse, grid)] if coarse else []) + [_fold(spect, lattice, grid)]
    # j*k = (j**2 + k**2 - (j - k)**2)/2: a convolution with the chirp
    np.fft.fft(spect, out=spect)
    spect *= np.fft.fft(kernel, out=kernel)
    r = (np.exp(1j * nu_half * grid.times()) * np.fft.ifft(spect, out=spect)[:n] * head).real
    return [((dnu / (2.0 * math.pi)) * r, {"nu_max": nu_half, "n_freq": m, "strategy": strategy})]


def _column_sums(x):
    """x.sum(axis=0) with the rows of x added one after another: numpy sums one column pairwise, so it is doubled."""
    return (x if x.shape[1] > 1 else np.repeat(x, 2, axis=1)).sum(axis=0)[:x.shape[1]]


def _coarse_block(h, c0, c1, mdiv0, p0):
    """(lo, hi, block): the coarse columns lo..hi-1 held by fine columns c0..c1-1 of h, a C-ordered (mdiv0, hi - lo)
    block (see `_fill`)."""
    low = (mdiv0 + 1) // 2
    if mdiv0 % 2 == 0:  # column 2*r0, rows mdiv0/2 + q
        lo, hi = (c0 + 1) // 2, (c1 + 1) // 2
        return lo, hi, h[low:low + mdiv0, 2 * lo - c0:c1 - c0:2].copy()
    lo, hi = (p0 - c1) // 2 + 1, (p0 - c0) // 2 + 1  # column p0 - 2*r0, rows (3*mdiv0 - 1)/2 - q, conjugated
    cut = h[low:low + mdiv0, p0 - 2 * hi + 2 - c0:p0 - 2 * lo + 1 - c0:2]
    return lo, hi, np.conjugate(cut[::-1, ::-1], order="C")


def _fold(spect, lattice, grid):
    """(values, info) of an aligned FFT `lattice` from its half spectrum S_0..S_(p/2) (see `_fill`)."""
    strategy, mdiv, p, m, nu_half = lattice
    s0 = divmod(grid.t_start / grid.spacing, 1.0)[0]
    bins = np.arange(grid.n_points) + int(s0 % (2 * p))  # = j + s0 mod p and mod 2
    # exp(i*nu_half*tau_j) = exp(i*pi*mdiv*(s0 + j + f)), its f part already in spect
    r = (1 - 2 * (mdiv * bins % 2)) * np.fft.hfft(spect, p)[bins % p]
    dnu = 2.0 * math.pi / (p * grid.spacing)
    return (dnu / (2.0 * math.pi)) * r, {"nu_max": nu_half, "n_freq": m, "strategy": strategy}


def propagate_numeric(w: PhotonWaveform, a: Optional[AbsorberSpec], grid: TimeGrid) -> TimeSeries:
    """Numerically propagate the envelope through the absorber.

    Evaluates the spectral integral with analytic tail subtraction and a
    self-convergence check: level 1 (`spectral_lattice`) is the answer, and
    level 0, of half its window and period, must agree with it to
    _DRIFT_TOL in max-abs, else ConvergenceError is raised.  Level 0 is read
    off an aligned level 1's lattice (`_fill`); only a zoomed level 1 fills
    its levels apart.  Level 0's window is `_window`'s, shared with
    `validate`'s lattice check before it, and its images' bound at level 1's
    period is recorded as `alias_bound` (None for the Gaussian source).  The
    orders subtracted in closed form come from one matrix exponential, exact
    at coincident poles (critical EIT coupling, Gamma = delta_ph) and near
    them; adding them to the free term and the remainder, which cancel them,
    can lose machine epsilon times their summed moduli, recorded as
    `roundoff`.  ConvergenceError is also raised if that exceeds _DRIFT_TOL.
    A missing medium or zero thickness reproduces the sampled input exactly.
    """
    tau = grid.times()
    free = time_amplitude(w, tau)
    if a is None or a.thickness == 0.0:
        return TimeSeries(grid, free, {"drift": 0.0, "iterations": 0})
    coarse, fine = spectral_lattice(w, a, grid, 0), spectral_lattice(w, a, grid, 1)
    if fine[0] == "fft":  # level 1 holds level 0's lattice
        levels = _fill(w, a, grid, fine, coarse)
    else:
        levels = _fill(w, a, grid, coarse) + _fill(w, a, grid, fine)
    (prev, _), (cur, info) = levels
    drift = float(np.max(np.abs(cur - prev)))
    if drift > _DRIFT_TOL:
        raise ConvergenceError(f"spectral quadrature drift {drift:.3e} between levels 0 and 1 > {_DRIFT_TOL:.1e}")
    closed, roundoff = _subtraction(w, a, grid)
    if roundoff > _DRIFT_TOL:
        raise ConvergenceError(
            f"closed-form subtraction round-off bound {roundoff:.3e} > {_DRIFT_TOL:.1e}: "
            "its orders nearly cancel the remainder"
        )
    info.update({"drift": drift, "iterations": 1, "tol": _DRIFT_TOL, "roundoff": roundoff})
    info["tail_bound"] = _tail_bound(w, a.alpha0_l, info["nu_max"])
    images = _window(w, a, grid)[2]
    info["alias_bound"] = None if images is None else _alias_bound(images, grid, fine[2] * grid.spacing)
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
    return out if np.ndim(tau) else float(out)


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


@functools.lru_cache(maxsize=4)
def _legendre(n):
    """scipy's n-node Gauss-Legendre rule (nodes, weights) on [-1, 1], as read-only arrays.

    The beat integrals and `observables.u_broad` take every rule from here, so
    none is built (nor scipy.linalg loaded) at import.  The last four n are kept,
    two lines' worth (a broad line's beat integrals take two rules): per pass of
    the seed-1 benchmark, the sweep reuses 4 rules and builds 26 (1 and 29 if
    one were kept), and the scan builds none and reuses its one rule 64 times.
    """
    rule = _sp.roots_legendre(n)
    for part in rule:
        part.flags.writeable = False
    return rule


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
    t_eff grows without bound but t_eff*rate = alpha0*l does not.  Two spare
    nodes serve thin lines, where each term rounds up to one node: against a
    rule of twice the nodes, 20,000 random draws of the four arguments stayed
    within 6e-13 with two, but reached 2.5e-11 with one and 2.8e-7 with none.
    """
    n = 2 + math.ceil(math.sqrt(t_eff * rate * tau_max))
    return n + math.ceil(4.0 * math.sqrt(min(decay * t_eff, _DEPTH_SPAN)))


def _check_beat_work(d, g, alpha0_l, grid: TimeGrid):
    """Raise ConvergenceError if `_line_parts(d, g, alpha0_l, grid.times())` is too costly.

    Its beat rules, sized for the last tau they run on, take `_beat_order`
    nodes each for every grid tau in (0, _DEPTH_SPAN/g]; more than
    _MAX_BEAT_WORK J0 evaluations in all are refused.  Found from the grid's
    ends, without sampling it.
    """
    last = min(grid.t_end, _DEPTH_SPAN / g)
    count = min(grid.n_points, math.floor((last - max(grid.t_start, 0.0)) / grid.spacing) + 1)
    if count <= 0:  # also every last < 0
        return
    rules = [(alpha0_l / (g + d), g + d)] + ([(alpha0_l / (g - d), g - d)] if g > d else [])
    try:
        nodes = sum(_beat_order(t_eff, 1.0, rate, last) for t_eff, rate in rules)
    except OverflowError:  # an infinite node count
        nodes = math.inf
    if nodes * count > _MAX_BEAT_WORK:
        raise ConvergenceError(
            f"closed-form beat rules of {nodes} nodes on {count} tau need {nodes * count} "
            f"J0 evaluations, above the cap of {_MAX_BEAT_WORK}"
        )


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
    u, w = _depth_rule(_legendre(n), t_eff, decay)
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

    Kept for the last call (`_kept_line_parts`), keyed on tau's bits and the
    sign of alpha0*l, the one input that may be a signed zero.  Each call
    gets its own arrays.
    """
    tv = np.atleast_1d(np.asarray(tau, dtype=float))
    b_s, b_a = _kept_line_parts(d, g, alpha0_l, math.copysign(1.0, alpha0_l), tv.shape, tv.tobytes())
    if np.ndim(tau) == 0:
        return float(b_s[0]), float(b_a[0])
    return b_s.copy(), b_a.copy()


@functools.lru_cache(maxsize=1)
def _kept_line_parts(d, g, alpha0_l, sign, shape, bits):
    t_plus = alpha0_l / (g + d)
    tv = np.frombuffer(bits).reshape(shape)
    b_s = np.zeros(tv.shape)
    b_a = np.zeros(tv.shape)

    neg = tv < 0
    pre = 0.5 * np.exp(d * tv[neg] - t_plus)
    b_s[neg] = pre
    b_a[neg] = -pre

    pos = tv > 0
    if g > d:
        t_minus = alpha0_l / (g - d)
        b_s[pos] = b_a[pos] = 0.5 * np.exp(-d * tv[pos] - t_minus)
    # |g_pm| < 1, so the beat term is below exp(-40) past _DEPTH_SPAN/g: the
    # rule is sized for, and run on, the earlier tau only
    near = pos & (tv <= _DEPTH_SPAN / g)
    if np.any(near):
        tp = tv[near]
        g_plus = _beat_integral(t_plus, 1.0, g + d, tp)
        if g > d:
            g_minus = _beat_integral(t_minus, 1.0, g - d, tp)
        else:
            g_minus = _sp.j0(2.0 * np.sqrt(alpha0_l * tp))
        fast = 0.5 * np.exp(-g * tp)
        b_s[near] += fast * (g_minus - g_plus)
        b_a[near] += fast * (g_minus + g_plus)

    zero = tv == 0
    if np.any(zero):
        b_s[zero] = 0.5 * math.exp(-t_plus)
        b_a[zero] = 0.5 * -math.expm1(-t_plus)
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
    out = np.exp(-gamma_total * tp) * (_sp.j0(x) + second) * _step(tv)
    return out if np.ndim(tau) else float(out[0])


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
    out = _r_pm(+1, w.delta_ph, eit_params(a), tau)
    return out if np.ndim(tau) else float(out)


def _check_nonadiabatic(delta_ph, gamma_total):
    if delta_ph > gamma_total and not math.isclose(delta_ph, gamma_total, rel_tol=1e-12):
        raise ValidityError(
            "nonadiabatic part needs delta_ph <= Gamma "
            f"(got delta_ph={delta_ph}, Gamma={gamma_total})"
        )


def _nonadiabatic(w: PhotonWaveform, a: EitMedium, tau):
    """Spectrally broad part: transmission through the uncoupled broad line."""
    _check_nonadiabatic(w.delta_ph, a.gamma_total)
    return _from_parts(w.kind, *_line_parts(w.delta_ph, a.gamma_total, a.alpha0_l, tau))


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
    return out if np.ndim(tau) else float(out)
