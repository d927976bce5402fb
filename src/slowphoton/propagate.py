"""Transmitted envelope b(l, tau): spectral-integral oracle and closed forms.

The numeric route evaluates the propagation integral

    b(l, tau) = (1/2pi) * integral b(0, nu) exp(-i*nu*tau - A(nu)*l) dnu

on a uniform frequency lattice.  The incident spectra fall off only like
1/nu, so b(0, nu) times the diagonal [3/3] Pade form R of exp(-A(nu)l), a
small rational function of nu, is inverted in closed form (as the impulse
response of one small linear system per pole of R, `_subtraction`), and the
remainder, decaying like (alpha0*l/nu)**7, is cut where its tail is below
_TAIL_TOL and folded onto the grid's period for one FFT of p ~ period/spacing
points.  The period is the least one whose periodic images of the remainder,
bounded exactly before tau = 0 and along a shifted contour after it
(`_image_model`), sum to at most _ALIAS_TOL on the grid for every exponential
kind.  One solve serves a photon (`_solve`): its symmetric and antisymmetric
parts share the window, the fill, which evaluates each sample once for both,
and the closed part, and every exponential kind, the causal photon included,
is their PART_WEIGHTS combination, so no byte depends on which kind is asked
first.  `_window` keeps the last window, so that `validate` and the run after
it share it, and `_solve` the last solve, so that the kinds of one (delta_ph,
medium, grid) share it.
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
import types
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import specfun
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

# The diagonal [3/3] Pade form R(u) = Q(-u)/Q(u), Q(u) = 1 + u/2 + u**2/10 + u**3/120, of exp(-u) is subtracted
# in closed form: R(u) = 1 + sum_i w_i*u/(1 - u/r_i) over the roots r_i of Q, w_i = -c_i/r_i**2, c_i the residues
# of R (40-digit values from tests/subtraction_reference.py).  R is A-stable, |R(u)| <= 1 for Re u >= 0 (Ehle,
# SIAM J. Math. Anal. 4, 671 (1973)), so on the real nu axis neither part exceeds the source: nothing cancels.
_PADE_POLES = (-4.644370709252171, -3.6778146453739144 - 3.5087619195674433j, -3.6778146453739144 + 3.5087619195674433j)
_PADE_WEIGHTS = (-2.6519269724862604, 0.8259634862431301 - 0.6043514548453104j,
                 0.8259634862431301 + 0.6043514548453104j)
# |exp(-u) - R(u)| <= _PADE_ERROR*|u|**7 for |u| <= 1: the sum of |a_k| over its Taylor series sum_{k>=7} a_k u**k,
# 2.8031e-5, rounded up (a_7 = 3!3!/(6!7!) = 9.92e-6; the series converges for |u| < |r_1| = 4.64).
_PADE_ERROR = 2.81e-5
# propagate_numeric fills level 0 and level 1, of twice its window and period; they must agree to
# _DRIFT_TOL in max-abs.  No level 2: on thick lines it moved further from the exact closed forms.
_DRIFT_TOL = 1e-5
# Window: past +-nu_max, taken past EIT's lines at +-omega, |b0(nu)| <= 1/|nu| and |A(nu)l| <= alpha0*l/(nu -
# Omega**2/nu) <= 1 (Omega = 0 for a line) keep the remainder, b0 times exp(-A(nu)l) - R(A(nu)l), below
# `_tail_bound` = _PADE_ERROR*(alpha0*l/(nu_max - Omega**2/nu_max))**7/(7*pi): _TAIL_TOL where nu_max -
# Omega**2/nu_max = alpha0*l*(_PADE_ERROR/(7*pi*_TAIL_TOL))**(1/7) = 1.035*alpha0*l.
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
# J0 evaluations (rule nodes x tau, plus the rules' builds) that `_check_beat_work` lets one
# `_line_parts` call make, about half a second; a preset makes at most 7.9e4 (fig3a).
_MAX_BEAT_WORK = 2**22


# ---------------------------------------------------------------------------
# numeric spectral propagator
# ---------------------------------------------------------------------------

def _expm1(a):
    """exp(a) - I of a small matrix: a degree-18 Taylor series of a/2^s, ||a/2^s||_1 < 1/2, doubled s times by
    F -> 2F + F @ F, which keeps the relative precision of a slow mode's exp(x) - 1 that squaring I + F loses.
    Numpy only: scipy.linalg.expm's Pade step waits ~8 ms on multithreaded OpenBLAS calls on 2 CPUs."""
    s = max(0, math.frexp(float(np.abs(a).sum(axis=0).max()))[1] + 1)
    out = term = a / 2.0**s
    for k in range(2, 19):
        out = out + (term := term @ a / (k * 2.0**s))
    for _ in range(s):
        out = 2.0 * out + out @ out
    return out


def _subtraction(sources, a: AbsorberSpec, grid: TimeGrid):
    """(signals, roundoff): b(s) * (R(A(s)l) - 1) on the grid for each source of one delta_ph, one row each, R the
    Pade form of exp(-u) (see _PADE_POLES), and each row's round-off bound.

    With `medium_system`'s u = A(s)l = C(sI - M)^(-1)B, u/(1 - u/r) is C(sI - M - B*C/r)^(-1)B: pole r_i's
    term w_i*b(s)*u/(1 - u/r_i) is the source's causal state (rate -d) in series with the medium fed back
    through B*C/r_i, one complex chain of 1 + q states whose coincident poles are a Jordan block.  The real
    pole's chain and one of the conjugate pair's (its partner's term is its conjugate) sit on the block
    diagonal of one chain matrix.  For tau > 0 the terms read C off exp(chain*tau) @ x0, x0 being c_p on the
    source states plus c_m*(d - M - B*C/r_i)^(-1)B on the medium's: what the medium carries past tau = 0 of
    the anticausal c_m*exp(d*tau).  For tau <= 0 they are that readout of x0 times exp(d*tau).  x0 has one
    column per source, so the sources share the chain and each row is linear in its (c_p, c_m).  The tau > 0
    columns are stepped by doubling from one spacing, then moved to linspace's tau to first order.  roundoff
    is eps times 2 plus the doublings times the largest summed moduli of a row's terms.
    """
    tau = grid.times()
    if sources[0].kind not in PART_WEIGHTS:
        return np.zeros((len(sources), tau.size)), np.zeros(len(sources))
    c_p, c_m = np.array([_exponential_weights(w.kind) for w in sources]).T
    d = sources[0].delta_ph
    m, b, c = medium_system(a)
    k = 1 + len(m)
    chain, read = np.zeros((2 * k, 2 * k), complex), np.zeros((2, 2 * k), complex)
    x0 = np.zeros((2 * k, len(sources)), complex)
    for i, r, weight in ((0, _PADE_POLES[0], _PADE_WEIGHTS[0]), (1, _PADE_POLES[1], 2.0 * _PADE_WEIGHTS[1])):
        src, med = i * k, slice(i * k + 1, (i + 1) * k)
        chain[src, src], chain[med, src], chain[med, med] = -d, b[:, 0], m + b @ c / r
        read[i, med] = weight * c[0]
        x0[src], x0[med] = c_p, np.outer(np.linalg.solve(d * np.eye(k - 1) - chain[med, med], b[:, 0]), c_m)
    terms = np.empty((2, len(sources), tau.size), dtype=complex)  # chain, source, tau
    pos = np.flatnonzero(tau > 0)
    before = tau.size - pos.size  # linspace's tau ascend
    terms[:, :, :before] = (read @ x0)[:, :, None] * np.exp(d * tau[:before])
    if pos.size:
        # x = exp(-mu*tau)*y: y, under the chain shifted by its slowest rate mu, neither decays nor grows
        mu = -float(np.linalg.eigvals(chain).real.max())
        shifted = chain + mu * np.eye(2 * k)
        h, first = grid.spacing, float(tau[pos[0]])  # column j of each source is y at first + j*h
        step = _expm1(h * shifted)
        cols = np.empty((2 * k, pos.size * len(sources)), dtype=complex)  # the sources' columns side by side
        cols[:, :len(sources)] = x0 + _expm1(first * shifted) @ x0
        done = len(sources)
        while done < cols.shape[1]:  # columns done.. are exp(done*h*shifted) times columns 0..
            more = min(done, cols.shape[1] - done)
            cols[:, done:done + more] = cols[:, :more] + step @ cols[:, :more]
            step, done = 2.0 * step + step @ step, done + more
        value, slope = (np.vstack([read, read @ shifted]) @ cols).reshape(2, 2, pos.size, len(sources)).swapaxes(2, 3)
        lag = tau[pos] - (first + np.arange(pos.size) * h)
        terms[:, :, before:] = (value + slope * lag) * np.exp(-mu * tau[pos])
    roundoff = (2 + (pos.size - 1).bit_length()) * np.finfo(float).eps * np.abs(terms).sum(axis=0).max(axis=1)
    return terms.sum(axis=0).real, roundoff


def _pade_remainder(x):
    """exp(x) - R(-x) of a complex array x = -u, overwriting x: R(-x) = 1 + 2*O/(P - O), P = 1 + x**2/10 and
    O = (x**2/120 + 1/2)*x its even and odd parts.  A division by a real k is a product of both parts with 1/k,
    the bits of numpy's complex division by k + 0j (Smith's method) at a fraction of its cost, up to a zero's sign."""
    even = x * x
    odd = even.copy()
    odd.view(float)[...] *= 1.0 / 120.0
    odd += 0.5
    odd *= x
    even.view(float)[...] *= 1.0 / 10.0
    even += 1.0
    even -= odd
    np.divide(odd, even, out=odd)
    odd.view(float)[...] *= 2.0
    np.exp(x, out=x)
    x -= 1.0
    x -= odd
    return x


def _remainder_integrand(sources, a, nu):
    """h(nu) = b(0, nu)*(exp(x) - R(-x)), x = -A(nu)l, one row per source, which share one evaluation of
    exp(x) - R(-x); the Gaussian's exp(x) - 1 (its free term only)."""
    x = spectral_response(a, nu)
    np.negative(x.view(float), out=x.view(float))  # both parts: the bits of complex negation at a fifth of its cost
    x = _pade_remainder(x) if sources[0].kind in PART_WEIGHTS else np.subtract(np.exp(x, out=x), 1.0, out=x)
    h = np.empty((len(sources),) + x.shape, dtype=complex)
    for row, w in zip(h, sources):
        np.multiply(x, spectral_amplitude(w, nu), out=row)
    return h


def _tail_bound(w: PhotonWaveform, a: AbsorberSpec, nu_max):
    """Bound on the remainder integral past +-nu_max (see _TAIL_TOL), for nu_max at least `_window`'s tail term.

    Past Omega (0 for a line), |A(nu)l| <= alpha0*l/(nu*(1 - Omega**2/nu**2)), because
    |(s + Gamma)(s + gamma_m) + Omega**2| >= |s + Gamma|*|s + gamma_m| - Omega**2 and |s + rate| >= |nu|.
    """
    if w.kind is WaveformKind.GAUSSIAN:  # |b0| <= (2*sqrt(pi)/d)*exp(-(nu/d)**2), |exp(-A(nu)l) - 1| <= 2
        return 2.0 * math.erfc(nu_max / w.delta_ph)
    omega = getattr(a, "omega", 0.0)  # 0 for a line
    return _PADE_ERROR * (a.alpha0_l / (nu_max * (1.0 - (omega / nu_max) ** 2))) ** 7 / (7.0 * math.pi)


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


def _image_model(d, a: AbsorberSpec):
    """{kind: (d, c0, terms)}, read-only, for each exponential kind of rate d: |r(tau)| <= c0*exp(d*tau) for
    tau <= 0 and K*exp(-sigma*tau) for tau > 0, (sigma, K) in terms.

    r is the remainder of an exponential source, the inverse transform of h = b(0, s)*E(s), s = -i*nu,
    E = exp(-u) - R(u) and u = A(s)l = C(sI - M)^(-1)B from `medium_system`, as `_transfer`'s rational
    function.  R's poles u = r_i lie at s = eig(M + B*C/r_i), left of the axis like M's own: a passive medium
    has Re u >= 0 on Re s >= 0, and Re r_i < 0.  For tau <= 0 only the anticausal pole s = d lies right of
    the axis: r = c_m*E(d)*exp(d*tau) exactly.  For tau > 0, h is analytic on -rate < Re s < d, rate =
    min(d, -max Re eig M, -max Re eig(M + B*C/r_i)), and falls off like |s|**-8, so the contour moves to Re s = -sigma:
    |r(tau)| <= exp(-sigma*tau)*(1/2pi)*integral |h(-sigma + iy)| dy, for
    sigma = _IMAGE_SIGMAS*rate.  The integral is a midpoint rule in theta over
    `_contour`'s nodes, each weighted by (pi/n)/density; against 2048-node
    runs it came within 3% on 600 drawn lines and 8% on 600 drawn EIT media,
    and K is twice it.  Past 60 steps, or at a value that is not finite, K is
    inf: such a lattice is far past the cap.  The contour depends on d and the
    medium only, so the three kinds share one, each with its own pole weights.
    """
    e_d, paths = _contour(d, a)
    models = {}
    with np.errstate(all="ignore"):
        poles = [(1.0 / (s + d), 1.0 / (d - s)) for _, s, *_ in paths]  # c/(s + d) = c*(1/(s + d)), c = 1 or +-1/2
        for kind in PART_WEIGHTS:
            c_p, c_m = _exponential_weights(kind)
            terms = []
            for (sigma, s, e, density, reached), (causal, anticausal) in zip(paths, poles):
                h = (c_p * causal + c_m * anticausal) * e
                k = float((np.abs(h) / density).sum() / _IMAGE_NODES)  # 2 * (1/2pi) * sum |h|*(pi/n)/density
                terms.append((sigma, k if k < math.inf and reached else math.inf))
            models[kind] = (d, float(abs(c_m * e_d)) if c_m else 0.0, tuple(terms))
    return types.MappingProxyType(models)


def _contour(d, a: AbsorberSpec):
    """(E(d), paths) of `_image_model` for rate d through medium a.

    Each path is (sigma, s, E(s), density, reached) on Re s = -sigma: the
    nodes s = -sigma + iy of a midpoint rule in theta over Cauchy maps
    y = y_i + w_i*tan(theta), centred on each singularity's Im s, widths w_i
    from its distance to the contour up to max(alpha0*l, |eig M|, d) in steps
    of 8 (reached is False if 60 steps fall short), and density(y) =
    sum_i w_i/(w_i**2 + (y - y_i)**2) the maps' summed densities.  The singularities are +-d, M's eigenvalues
    and those of R's poles nearer the contour than all of these, near -gamma_m of a narrow EIT window (without
    them K came up to 13% under 2048-node runs; maps on all of R's poles, twice the maps, brought that to 4%).
    """
    m, b, c = medium_system(a)
    eig, (num, den) = np.linalg.eigvals(m), _transfer(m, b, c)
    pade = np.linalg.eigvals(np.array([m + b @ c / r for r in _PADE_POLES])).ravel()
    # at zero (Re eig past round-off at extreme rates) K is inf, and so is the period
    rate = max(0.0, min(d, float(-eig.real.max()), float(-pade.real.max())))
    top = max(a.alpha0_l, d, float(np.abs(eig).max()))
    tan = np.tan((np.arange(_IMAGE_NODES) + 0.5) * (math.pi / _IMAGE_NODES) - 0.5 * math.pi)
    rungs = 8.0 ** np.arange(60)
    paths, nodes = [], [np.array([d + 0j])]
    with np.errstate(all="ignore"):
        for sigma in rate * np.array(_IMAGE_SIGMAS):
            maps, reached = [], True
            poles = [(0.0, d - sigma), (0.0, d + sigma)] + [(z.imag, -z.real - sigma) for z in eig]
            closest = min(near for _, near in poles)
            for centre, near in poles + [(z.imag, -z.real - sigma) for z in pade if -z.real - sigma < closest]:
                widths = near * rungs
                maps += [(centre, width) for width in widths[:np.searchsorted(widths, top) + 1]]
                reached &= bool(widths[-1] >= top)
            centre, width = np.array(maps).T
            y = (centre[:, None] + width[:, None] * tan).ravel()
            density = y[:, None] - centre
            density *= density
            density += width**2
            nodes.append(1j * y - sigma)
            paths.append((float(sigma), np.divide(width, density, out=density).sum(axis=1), reached))
        s = np.concatenate(nodes)  # E at d and at every path's nodes, in one pass
        e = np.split(_pade_remainder(-np.polyval(num, s) / np.polyval(den, s)), np.cumsum([n.size for n in nodes[:-1]]))
    return e[0][0].real, tuple((sigma, s, e_s, density, reached)
                               for (sigma, density, reached), s, e_s in zip(paths, nodes[1:], e[1:]))


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


def _least_period(models, grid: TimeGrid):
    """The least period, to 2**-20 of itself, past which every model's `_alias_bound` stays below _ALIAS_TOL
    (inf if none).  Each bound falls as the period grows, so that is the own least period of the model that
    needs the longest, and a model is searched only if it exceeds the tolerance at the period so far."""
    period = None
    for images in models:
        if period is not None and _alias_bound(images, grid, period) <= _ALIAS_TOL:
            continue
        lo = max(-grid.t_start, grid.t_end, grid.t_end - grid.t_start)
        hi = 2.0 * max(lo, 1.0)
        while not _alias_bound(images, grid, hi) <= _ALIAS_TOL:
            if hi == math.inf:
                return hi
            lo, hi = hi, 2.0 * hi
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _alias_bound(images, grid, mid) <= _ALIAS_TOL else (mid, hi)
        period = hi
    return period


def _solved(w: PhotonWaveform):
    """The sources that one oracle solve fills for w: the symmetric and antisymmetric parts of an exponential
    kind's delta_ph, which every exponential kind combines by its PART_WEIGHTS, else w alone."""
    parts = (WaveformKind.SYMMETRIC_PART, WaveformKind.ANTISYMMETRIC_PART)
    return tuple(PhotonWaveform(kind, w.delta_ph) for kind in parts) if w.kind in PART_WEIGHTS else (w,)


@functools.lru_cache(maxsize=1)
def _window(sources, a: AbsorberSpec, grid: TimeGrid):
    """(nu_max, period, images) of level 0 for `_solved`'s sources, kept for the last call: the exponential
    kinds' one period from `_image_model`'s images of each; the Gaussian's images are None."""
    d = sources[0].delta_ph
    if sources[0].kind is WaveformKind.GAUSSIAN:  # keeps the bare period rule: no bound is stated for it
        rate_min = min(d, a.linewidth, a.gamma_m if isinstance(a, EitMedium) else math.inf)
        return max(15.0 * d, 3.0 * a.linewidth), 1.5 * (grid.t_end - grid.t_start) + 50.0 / rate_min, None
    # _tail_bound, c*(alpha0*l/(nu - Omega**2/nu))**7, is _TAIL_TOL where nu - Omega**2/nu = L =
    # alpha0*l*(c/_TAIL_TOL)**(1/7), at nu = L/2 + hypot(L/2, Omega), and holds from alpha0*l on
    half = 0.5 * max(1.0, (_PADE_ERROR / (7.0 * math.pi) / _TAIL_TOL) ** (1.0 / 7.0)) * a.alpha0_l
    omega = getattr(a, "omega", 0.0)  # 0 for a line
    nu_max = max(50.0 * a.linewidth, half + math.hypot(half, omega), 2.0 * omega)
    images = _image_model(d, a)
    return nu_max, _least_period(tuple(images.values()), grid), images


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
    nu_max, period, _ = _window(_solved(w), a, grid)
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


def _fill(sources, a, grid, lattice, coarse=None):
    """[(values, info)] of `spectral_lattice`'s `lattice`, after those of the `coarse` lattice it nests, if given.

    values is the remainder (dnu/2pi) * sum_k h(nu_k) exp(-i*nu_k*tau_j) of
    each source on the scenario grid, a real (sources, n_points) array: each
    slice evaluates its samples once for all sources (`_remainder_integrand`),
    and their half spectra are folded side by side, one real-output FFT each.
    nu_k = (k - m/2)*dnu is filled in
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
        spect = np.empty((len(sources), p // 2 + 1), dtype=complex)
        rows = np.exp(-2j * math.pi * f * np.arange(mdiv))[:, None]
        index, blocks = np.arange(p // 2 + 1), _row_blocks(p // 2 + 1, mdiv)
        if coarse is not None:
            mdiv0, p0 = coarse[1:3]
            spect0 = np.empty((len(sources), p0 // 2 + 1), dtype=complex)
            rows0 = np.exp(-2j * math.pi * f * np.arange(mdiv0))[:, None]

        def fill(cols):
            r = index[cols]
            h = _remainder_integrand(sources, a, dnu * (np.arange(0, m, p)[:, None] + r - m / 2))
            if coarse is not None:  # before h takes the fine rows' phases
                lo, hi, block = _coarse_block(h, int(r[0]), int(r[-1]) + 1, mdiv0, p0)
                if lo < hi:
                    r0 = np.arange(lo, hi)
                    block *= rows0
                    spect0[:, lo:hi] = _column_sums(block) * np.exp(1j * math.pi * f * (mdiv0 - 2 * r0 / p0))
            h *= rows
            spect[:, cols] = _column_sums(h) * np.exp(1j * math.pi * f * (mdiv - 2 * r / p))
    else:
        spect = np.zeros((len(sources), _fast_len(m + n - 1)), dtype=complex)
        kernel = np.zeros(spect.shape[1], dtype=complex)
        index, blocks = np.arange(m), _row_blocks(m, 1)

        def chirp(t):  # exp(-i*pi*t**2/p), t*t mod 2p exact in float64 (< 2**53 under the cap)
            return np.exp(np.fmod(t.astype(float) ** 2, 2.0 * p) * (-1j * math.pi / p))

        def fill(blk):
            k = index[blk]
            kernel[-k] = np.conjugate(turn := chirp(k))
            h = _remainder_integrand(sources, a, dnu * (k - m / 2))
            spect[:, k] = h * turn * np.exp(-1j * dnu * grid.t_start * k)

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
    r = (np.exp(1j * nu_half * grid.times()) * np.fft.ifft(spect, out=spect)[:, :n] * head).real
    return [((dnu / (2.0 * math.pi)) * r, {"nu_max": nu_half, "n_freq": m, "strategy": strategy})]


def _column_sums(x):
    """x.sum(axis=-2) with the rows of each x[i] added one after another: numpy sums one column pairwise, so it
    is doubled."""
    return (x if x.shape[-1] > 1 else np.repeat(x, 2, axis=-1)).sum(axis=-2)[..., :x.shape[-1]]


def _coarse_block(h, c0, c1, mdiv0, p0):
    """(lo, hi, block): the coarse columns lo..hi-1 held by fine columns c0..c1-1 of h, a C-ordered
    (sources, mdiv0, hi - lo) block (see `_fill`)."""
    low = (mdiv0 + 1) // 2
    if mdiv0 % 2 == 0:  # column 2*r0, rows mdiv0/2 + q
        lo, hi = (c0 + 1) // 2, (c1 + 1) // 2
        return lo, hi, h[:, low:low + mdiv0, 2 * lo - c0:c1 - c0:2].copy()
    lo, hi = (p0 - c1) // 2 + 1, (p0 - c0) // 2 + 1  # column p0 - 2*r0, rows (3*mdiv0 - 1)/2 - q, conjugated
    cut = h[:, low:low + mdiv0, p0 - 2 * hi + 2 - c0:p0 - 2 * lo + 1 - c0:2]
    return lo, hi, np.conjugate(cut[:, ::-1, ::-1], order="C")


def _fold(spect, lattice, grid):
    """(values, info) of an aligned FFT `lattice` from its half spectra S_0..S_(p/2), one row each (see `_fill`)."""
    strategy, mdiv, p, m, nu_half = lattice
    s0 = divmod(grid.t_start / grid.spacing, 1.0)[0]
    bins = np.arange(grid.n_points) + int(s0 % (2 * p))  # = j + s0 mod p and mod 2
    # dnu/2pi times exp(i*nu_half*tau_j) = exp(i*pi*mdiv*(s0 + j + f)), its f part already in spect
    scale = (2.0 * math.pi / (p * grid.spacing) / (2.0 * math.pi)) * (1 - 2 * (mdiv * bins % 2))
    return np.fft.hfft(spect, p)[:, bins % p] * scale, {"nu_max": nu_half, "n_freq": m, "strategy": strategy}


def propagate_numeric(w: PhotonWaveform, a: Optional[AbsorberSpec], grid: TimeGrid) -> TimeSeries:
    """Numerically propagate the envelope through the absorber.

    Evaluates the spectral integral with analytic tail subtraction and a
    self-convergence check: level 1 (`spectral_lattice`) is the answer, and
    level 0, of half its window and period, must agree with it to
    _DRIFT_TOL in max-abs, else ConvergenceError is raised.  Level 0 is read
    off an aligned level 1's lattice (`_fill`); only a zoomed level 1 fills
    its levels apart.  Level 0's window is `_window`'s, shared with
    `validate`'s lattice check before it, and its images' bound at level 1's
    period is recorded as `alias_bound` (None for the Gaussian source), and
    the closed-form part's round-off bound as `roundoff` (`_subtraction`).
    One solve (`_solve`) serves the exponential kinds of one (delta_ph,
    medium, grid): each, the causal photon included, is its PART_WEIGHTS
    combination of the two part traces, with its own drift, alias_bound and
    roundoff (its parts' round-off bounds, weighted).
    A missing medium or zero thickness reproduces the sampled input exactly.
    """
    if a is None or a.thickness == 0.0:
        return TimeSeries(grid, time_amplitude(w, grid.times()), {"drift": 0.0, "iterations": 0})
    sources, weights = _solved(w), PART_WEIGHTS.get(w.kind, (1.0,))
    traces, roundoff, lattice, period = _solve(sources, a, grid)
    prev, cur = _combined(weights, traces.swapaxes(0, 1))
    drift = float(np.max(np.abs(cur - prev)))
    if drift > _DRIFT_TOL:
        raise ConvergenceError(f"spectral quadrature drift {drift:.3e} between levels 0 and 1 > {_DRIFT_TOL:.1e}")
    info = {**lattice, "drift": drift, "iterations": 1, "tol": _DRIFT_TOL}
    info["roundoff"] = float(_combined(weights, roundoff))
    info["tail_bound"] = _tail_bound(w, a, info["nu_max"])
    images = _window(sources, a, grid)[2]
    info["alias_bound"] = None if images is None else _alias_bound(images[w.kind], grid, period)
    return TimeSeries(grid, cur, info)


def _combined(weights, parts):
    """sum_i weights[i]*parts[i], added in order as `_from_parts` adds a kind's two parts."""
    out = weights[0] * parts[0]
    for c, part in zip(weights[1:], parts[1:]):
        out += c * part
    return out


@functools.lru_cache(maxsize=1)
def _solve(sources, a: AbsorberSpec, grid: TimeGrid):
    """(traces, roundoff, info, period) of `_solved`'s sources, kept for the last call: each source's transmitted
    envelope at levels 0 and 1, a read-only (2, sources, n_points) array, its closed part's round-off bound, and
    level 1's lattice record and period."""
    coarse, fine = (spectral_lattice(sources[0], a, grid, level) for level in (0, 1))  # the sources' lattices
    if fine[0] == "fft":  # level 1 holds level 0's lattice
        levels = _fill(sources, a, grid, fine, coarse)
    else:
        levels = _fill(sources, a, grid, coarse) + _fill(sources, a, grid, fine)
    closed, roundoff = _subtraction(sources, a, grid)
    tau = grid.times()
    base = np.array([time_amplitude(w, tau) for w in sources]) + closed
    traces = np.array([base + values for values, _ in levels])
    for kept in (traces, roundoff):
        kept.flags.writeable = False
    return traces, roundoff, types.MappingProxyType(levels[-1][1]), fine[2] * grid.spacing


# ---------------------------------------------------------------------------
# two-level line closed forms: matched (Gamma = delta_ph) and broad lines
# ---------------------------------------------------------------------------

def analytic_matched(delta_ph: float, thickness: float, tau):
    """Dynamical-beat envelope exp(-d*tau) * J0(2*sqrt(T*d*tau)) for tau > 0.

    Matched condition: absorber halfwidth equals the photon halfwidth.
    """
    tv = np.asarray(tau, dtype=float)
    tp = np.clip(tv, 0.0, None)
    out = np.exp(-delta_ph * tp) * specfun.j0(2.0 * np.sqrt(thickness * delta_ph * tp))
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
    """`specfun.gauss_legendre`'s n-node rule (nodes, weights) on [-1, 1], as read-only arrays.

    The beat integrals and `observables.u_broad` take every rule from here, so
    none is built at import.  The last four n are kept, two lines' worth (a
    broad line's beat integrals take two rules): per warm pass of the seed-1
    benchmark, the sweep reuses 4 rules and builds 26 (1 and 29 if one were
    kept), the scan builds none and reuses its one rule 64 times, and the
    figures build all 7, as a one-shot run does (eight kept would reuse them).
    """
    rule = specfun.gauss_legendre(n)
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

    Its beat rules, sized for the last tau they run on, take `_beat_order` nodes each for every grid tau in
    (0, _DEPTH_SPAN/g], and building a rule of n nodes takes the time of about n**2/4 of those J0 evaluations
    (25 ns per n**2 against 120 ns per J0 value, measured): more than _MAX_BEAT_WORK in all is refused.
    Found from the grid's ends, without sampling it.
    """
    last = min(grid.t_end, _DEPTH_SPAN / g)
    count = min(grid.n_points, math.floor((last - max(grid.t_start, 0.0)) / grid.spacing) + 1)
    if count <= 0:  # also every last < 0
        return
    rules = [(alpha0_l / (g + d), g + d)] + ([(alpha0_l / (g - d), g - d)] if g > d else [])
    try:
        orders = [_beat_order(t_eff, 1.0, rate, last) for t_eff, rate in rules]
        nodes, work = sum(orders), sum(orders) * count + sum(n * n for n in orders) // 4
    except OverflowError:  # an infinite node count
        nodes = work = math.inf
    if work > _MAX_BEAT_WORK:
        raise ConvergenceError(
            f"closed-form beat rules of {nodes} nodes on {count} tau need {work} "
            f"J0 evaluations, their build counted as nodes**2/4, above the cap of {_MAX_BEAT_WORK}"
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
        out[rows] = specfun.j0(root_tau[rows, None] * phase) @ w
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
            g_minus = specfun.j0(2.0 * np.sqrt(alpha0_l * tp))
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
    second = (gamma_total - delta_ph) * tp * 2.0 * specfun.j1x(x)
    out = np.exp(-gamma_total * tp) * (specfun.j0(x) + second) * _step(tv)
    return out if np.ndim(tau) else float(out[0])


# ---------------------------------------------------------------------------
# EIT closed forms
# ---------------------------------------------------------------------------

def _check_phi_plus(delta_ph: float, params: EitParams) -> float:
    """phi_plus's plateau exp(r**2), r = delta_ph/delta_eff; ValidityError where it overflows."""
    try:
        return math.exp((delta_ph / params.delta_eff) ** 2)
    except OverflowError:
        raise ValidityError(
            "phi_plus's plateau exp((delta_ph/delta_eff)**2) overflows past delta_ph/delta_eff = "
            f"sqrt(709.78) (got {delta_ph / params.delta_eff:.6g})"
        ) from None


def phi_plus(delta_ph: float, params: EitParams, tau):
    """Leading-edge smoothing function of the EIT-filtered envelope.

    0.5*exp(r**2)*[1 + erf(z)], z = de/2*(tau - t_d) - r, r = delta_ph/delta_eff;
    rises from 0 to ~1 around the group delay over a width ~4/delta_eff.
    delta_ph = 0 gives the pure window-limited edge.  Evaluated through
    erfcx, as `_r_pm` is: 0.5*exp(r**2 - z**2)*erfcx(-z) below z = 0, where
    1 + erf(z) cancels, and exp(r**2) minus its mirror above.
    """
    plateau = _check_phi_plus(delta_ph, params)
    r = delta_ph / params.delta_eff
    z = 0.5 * params.delta_eff * (np.asarray(tau, dtype=float) - params.t_d) - r
    edge = 0.5 * np.exp(r * r - z * z) * specfun.erfcx(np.abs(z))
    out = np.where(z < 0, edge, plateau - edge)
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
    z = 0.5 * de * y - sign * r
    edge = 0.5 * specfun.erfcx(np.abs(z)) * np.exp(-0.25 * (de * y) ** 2 - p.t_eit)
    return np.where(sign * z <= 0, edge, np.exp(np.minimum(r * r - p.t_eit - sign * d * y, 0.0)) - edge)


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
