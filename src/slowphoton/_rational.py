"""Partial fractions and inverse transforms of small rational spectra.

Everything here works in the variable s = -i*nu, where the Fourier pair is
f(tau) = (1/2pi) * integral F(nu) exp(-i*nu*tau) dnu and simple spectra
invert as

    1/(s - z)^j  ->  tau^(j-1) exp(z*tau)/(j-1)! * Theta(tau)    (Re z < 0)
    1/(s - z)^j  -> -tau^(j-1) exp(z*tau)/(j-1)! * Theta(-tau)   (Re z > 0)

The numeric propagator uses this to subtract the first orders of the
medium response (products of a few poles) in closed form, leaving a
fast-decaying spectral remainder for the FFT.  Pole counts are tiny (<= 5).
Poles within a relative _MERGE_RTOL of each other become one pole of
higher order, whose partial-fraction coefficients a local Taylor expansion
gives.  The remaining near-coincident poles give large terms that nearly
cancel: propagate_numeric bounds that round-off and refuses such a case
with a ConvergenceError (exit 3).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["merge_poles", "partial_fractions", "eval_pole_terms"]

# merge_poles treats poles closer than _MERGE_RTOL times the largest modulus as one
_MERGE_RTOL = 1e-9


def merge_poles(zs):
    """Collapse a list of pole locations into [(z, multiplicity)] pairs."""
    scale = max(abs(z) for z in zs) or 1.0
    merged: list[list] = []
    for z in zs:
        for entry in merged:
            if abs(z - entry[0]) <= _MERGE_RTOL * scale:
                entry[1] += 1
                break
        else:
            merged.append([complex(z), 1])
    return [(z, m) for z, m in merged]


def _series_of_inverse_power(d, m, order):
    """Taylor coefficients of (u + d)^(-m) around u = 0, through u^order."""
    coeffs = np.zeros(order + 1, dtype=complex)
    inv_d = 1.0 / d
    base = inv_d**m
    for n in range(order + 1):
        coeffs[n] = base * math.comb(m + n - 1, n) * (-inv_d) ** n
    return coeffs


def partial_fractions(coef, poles):
    """Expand coef * prod 1/(s - z_i)^(m_i) into simple terms.

    Parameters
    ----------
    coef : complex
        Overall multiplicative constant.
    poles : list of (z, multiplicity)

    Returns
    -------
    list of (z, j, c) with the function equal to sum c/(s - z)^j.
    """
    terms = []
    for i, (z_i, m_i) in enumerate(poles):
        series = np.zeros(m_i, dtype=complex)
        series[0] = coef
        for k, (z_k, m_k) in enumerate(poles):
            if k == i:
                continue
            factor = _series_of_inverse_power(z_i - z_k, m_k, m_i - 1)
            full = np.convolve(series, factor)[:m_i]
            series = full
        for j in range(1, m_i + 1):
            c = series[m_i - j]
            if c != 0:
                terms.append((z_i, j, c))
    return terms


def eval_pole_terms(terms, tau, magnitude=None):
    """Evaluate the inverse transform of sum c/(s - z)^j on a tau grid.

    Uses the midpoint convention Theta(0) = 1/2, so first-order terms
    contribute c/2 (causal) or -c/2 (anticausal) at tau == 0.  A real
    array magnitude of tau's shape, if given, gains the modulus of every
    term added at each tau: the scale of the sum's round-off.
    """
    tau = np.asarray(tau, dtype=float)
    out = np.zeros(tau.shape, dtype=complex)
    if magnitude is None:
        magnitude = np.zeros(tau.shape)
    pos = tau > 0
    neg = tau < 0
    zero = tau == 0
    for z, j, c in terms:
        if z.real < 0:
            mask, sign = pos, 1.0
        elif z.real > 0:
            mask, sign = neg, -1.0
        else:
            raise ValueError(f"pole on the frequency axis: {z}")
        t = tau[mask]
        term = sign * c * t ** (j - 1) * np.exp(z * t) / math.factorial(j - 1)
        out[mask] += term
        magnitude[mask] += np.abs(term)
        if j == 1 and np.any(zero):
            out[zero] += 0.5 * sign * c
            magnitude[zero] += 0.5 * abs(c)
    return out
