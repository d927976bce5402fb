"""The oracle's closed-form subtraction: the impulse response of one chain matrix."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from slowphoton import propagate
from slowphoton.media import BroadLine, EitMedium, MatchedLine
from slowphoton.propagate import _subtraction
from slowphoton.waveforms import PhotonWaveform, TimeGrid, WaveformKind

C = WaveformKind.EXPONENTIAL_CAUSAL
S = WaveformKind.SYMMETRIC_PART
A = WaveformKind.ANTISYMMETRIC_PART

# 40-digit mpmath expm of the same chain matrices; `python tests/subtraction_reference.py` rewrites it
REFERENCE = json.loads(Path(__file__).with_name("subtraction_reference.json").read_text())


def _case_id(case):
    p = case["params"]
    off = p[2] / 4.5 - 1.0 if case["medium"] == "eit" else p[0] - 1.0
    return f"{case['medium']}{off:+.0e}-order{case['order']}-{case['source']}"


@pytest.mark.parametrize("case", REFERENCE["cases"], ids=_case_id)
def test_matches_40_digit_reference(monkeypatch, case):
    # Omega = 4.5(1 +- 10^-k) around the critical EIT coupling, Gamma = delta_ph(1 + 10^-k),
    # k = 3..12: the coincident and near-coincident poles that partial fractions lost
    monkeypatch.setattr(propagate, "_SUBTRACT_ORDERS", case["order"])
    medium = EitMedium(*case["params"]) if case["medium"] == "eit" else BroadLine(*case["params"])
    w = PhotonWaveform(WaveformKind(case["source"]), REFERENCE["delta_ph"])
    signal, roundoff = _subtraction(w, medium, TimeGrid(*REFERENCE["grid"]))
    want = np.array(case["signal"])
    assert np.abs(signal[REFERENCE["indices"]] - want).max() <= 2e-14 * np.abs(want).max()
    assert roundoff <= 1e-9


@pytest.mark.parametrize("case", REFERENCE["fine_cases"], ids=lambda c: f"order{c['order']}-{c['source']}")
def test_matches_reference_at_linspace_times(monkeypatch, case):
    # the EIT example's grid: linspace's times are not whole multiples of the
    # spacing, which the doubling steps by, so the columns take a first-order move
    monkeypatch.setattr(propagate, "_SUBTRACT_ORDERS", case["order"])
    w = PhotonWaveform(WaveformKind(case["source"]), REFERENCE["delta_ph"])
    signal, _ = _subtraction(w, EitMedium(*case["params"]), TimeGrid(*REFERENCE["fine_grid"]))
    want = np.array(case["signal"])
    assert np.abs(signal[REFERENCE["fine_indices"]] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("orders", [2, 3])
def test_matched_line_is_exact(monkeypatch, orders):
    # Gamma = delta_ph: the source's pole and the medium's coincide, so order k
    # is (-1)^k/k! * alpha0_l^k/(s + d)^(k+1), i.e. (-alpha0_l*tau)^k/k!^2 * exp(-d*tau)
    monkeypatch.setattr(propagate, "_SUBTRACT_ORDERS", orders)
    grid = TimeGrid(-2.0, 10.0, 1201)
    tau = np.clip(grid.times(), 0.0, None)
    signal, _ = _subtraction(PhotonWaveform(C, 1.0), MatchedLine(1.0, 10.0), grid)
    want = sum((-10.0 * tau) ** k / math.factorial(k) ** 2 for k in range(1, orders + 1)) * np.exp(-tau)
    assert np.abs(signal - want).max() <= 1e-13 * np.abs(want).max()


def test_critical_eit_coupling_is_exact(monkeypatch):
    # Omega = (Gamma - gamma_m)/2: A(s)l = alpha0_l*(s + gamma_m)/(s + r)^2, r = (Gamma + gamma_m)/2,
    # whose first order against a causal source of rate d inverts by hand
    monkeypatch.setattr(propagate, "_SUBTRACT_ORDERS", 1)
    medium, d, r = EitMedium(10.0, 1.0, 4.5, 30.0), 2.0, 5.5
    grid = TimeGrid(-1.0, 8.0, 901)
    tau = np.clip(grid.times(), 0.0, None)
    signal, _ = _subtraction(PhotonWaveform(C, d), medium, grid)
    a, c = (1.0 - d) / (r - d) ** 2, (1.0 - r) / (d - r)
    want = -300.0 * (a * np.exp(-d * tau) - a * np.exp(-r * tau) + c * tau * np.exp(-r * tau))
    assert np.abs(signal - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", [S, A])
@pytest.mark.parametrize(
    "medium, a_d",
    [(MatchedLine(1.0, 10.0), 10.0 / 2.0), (EitMedium(10.0, 1.0, 4.5, 30.0), 300.0 * 2.0 / (11.0 * 2.0 + 4.5**2))],
    ids=["matched", "critical_eit"],
)
def test_anticausal_orders_before_and_at_zero(kind, medium, a_d):
    # tau <= 0 carries only the anticausal source: c_m*exp(d*tau)*sum_k G^k/k!, G = -A(d)l
    # at s = d = 1, k = 1.._SUBTRACT_ORDERS; the orders are continuous, so tau = 0 takes that value too
    grid = TimeGrid(-3.0, 3.0, 61)
    tau = grid.times()
    c_m, g = (0.5 if kind is S else -0.5), -a_d
    orders = sum(g**k / math.factorial(k) for k in range(1, propagate._SUBTRACT_ORDERS + 1))
    signal, _ = _subtraction(PhotonWaveform(kind, 1.0), medium, grid)
    before = tau <= 0
    assert tau[30] == 0.0
    np.testing.assert_allclose(signal[before], c_m * np.exp(tau[before]) * orders, rtol=1e-14)


@pytest.mark.parametrize("kind", [C, S, A])
def test_grid_after_zero_continues_the_grid_from_before(kind):
    # a grid starting past tau = 0 reaches its first point by powers of one step
    medium = EitMedium(10.0, 1.0, 20.0, 30.0)
    w = PhotonWaveform(kind, 1.0)
    whole, _ = _subtraction(w, medium, TimeGrid(-2.0, 10.0, 49))
    late, _ = _subtraction(w, medium, TimeGrid(3.0, 10.0, 29))
    assert np.abs(late - whole[20:]).max() <= 1e-14 * np.abs(whole).max()


def test_gaussian_subtracts_nothing():
    grid = TimeGrid(-2.0, 2.0, 11)
    signal, roundoff = _subtraction(PhotonWaveform(WaveformKind.GAUSSIAN, 1.0), BroadLine(3.0, 2.0), grid)
    assert not signal.any() and roundoff == 0.0
