"""Partial-fraction machinery behind the numeric propagator's subtraction."""

import numpy as np
import pytest

from slowphoton._rational import eval_pole_terms, merge_poles, partial_fractions


def brute_inverse(coef, poles, tau, nu_max=4e4, n=2**22):
    """Trapezoid inverse transform of coef * prod 1/(s - z)^m, s = -i*nu."""
    nu = np.linspace(-nu_max, nu_max, n, endpoint=False)
    s = -1j * nu
    f = np.full(nu.shape, complex(coef))
    for z, m in poles:
        f = f / (s - z) ** m
    dnu = nu[1] - nu[0]
    out = np.empty(len(tau), dtype=complex)
    for i, t in enumerate(tau):
        out[i] = np.sum(f * np.exp(-1j * nu * t)) * dnu / (2 * np.pi)
    return out


def test_merge_poles_groups_repeats():
    got = merge_poles([-1.0, -2.0, -1.0 + 1e-15])
    assert sorted((z.real, m) for z, m in got) == [(-2.0, 1), (-1.0, 2)]


def test_two_simple_poles():
    # 1/((s+1)(s+2)) -> exp(-t) - exp(-2t)
    terms = partial_fractions(1.0, [(-1.0, 1), (-2.0, 1)])
    tau = np.linspace(0.1, 5.0, 7)
    got = eval_pole_terms(terms, tau)
    want = np.exp(-tau) - np.exp(-2 * tau)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_double_pole():
    # 1/((s+1)^2 (s+3)) against slow quadrature
    poles = [(-1.0, 2), (-3.0, 1)]
    terms = partial_fractions(2.5, poles)
    tau = np.array([0.2, 0.7, 1.9])
    got = eval_pole_terms(terms, tau)
    want = brute_inverse(2.5, poles, tau)
    np.testing.assert_allclose(got, want, rtol=0, atol=5e-5)


def test_complex_conjugate_poles_give_real_signal():
    z = -2.0 + 7.0j
    poles = [(z, 1), (np.conj(z), 1)]
    terms = partial_fractions(1.0, poles)
    tau = np.linspace(0.05, 3.0, 11)
    got = eval_pole_terms(terms, tau)
    assert np.abs(got.imag).max() < 1e-14
    want = brute_inverse(1.0, poles, tau)
    np.testing.assert_allclose(got.real, want.real, atol=5e-5)


def test_anticausal_pole():
    # 1/((2 - s)(s+1)): anticausal part exp(2t) for t<0, causal exp(-t) for t>0
    # 1/((2-s)(s+1)) = -1/((s-2)(s+1))
    poles = [(2.0, 1), (-1.0, 1)]
    terms = partial_fractions(-1.0, poles)
    tau = np.array([-1.5, -0.3, 0.4, 2.0])
    got = eval_pole_terms(terms, tau)
    want = np.where(tau < 0, np.exp(2 * tau) / 3, np.exp(-tau) / 3)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_midpoint_convention_at_zero():
    terms = partial_fractions(1.0, [(-1.0, 1)])
    val = eval_pole_terms(terms, np.array([0.0]))[0]
    assert val == pytest.approx(0.5)


def test_pole_on_axis_rejected():
    with pytest.raises(ValueError, match="frequency axis"):
        eval_pole_terms([(0.0j, 1, 1.0)], np.array([1.0]))


def test_magnitude_sums_the_moduli_of_cancelling_terms():
    tau = np.array([-1.0, 0.0, 0.5, 2.0])
    terms = [(-1.0 + 0j, 1, 1e8 + 0j), (-1.0 + 0j, 1, -1e8 + 0j), (1.0 + 0j, 2, 3.0 + 0j)]
    magnitude = np.zeros(tau.shape)
    got = eval_pole_terms(terms, tau, magnitude)
    assert np.array_equal(got, eval_pole_terms(terms, tau))
    expected = [3.0 * np.exp(-1.0), 1e8, 2e8 * np.exp(-0.5), 2e8 * np.exp(-2.0)]
    assert np.allclose(magnitude, expected, rtol=1e-15)
