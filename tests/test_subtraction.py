"""The oracle's closed-form subtraction: the Pade form of exp(-A(s)l) as the impulse response of one chain per pole."""

import json
from pathlib import Path

import numpy as np
import pytest

from slowphoton import propagate
from slowphoton.media import BroadLine, EitMedium, MatchedLine
from slowphoton.propagate import _solved, _subtraction
from slowphoton.waveforms import PhotonWaveform, TimeGrid, WaveformKind

C = WaveformKind.EXPONENTIAL_CAUSAL
S = WaveformKind.SYMMETRIC_PART
A = WaveformKind.ANTISYMMETRIC_PART

# 40-digit mpmath expm of the same chain matrices; `python tests/subtraction_reference.py` rewrites it
REFERENCE = json.loads(Path(__file__).with_name("subtraction_reference.json").read_text())
POLES = [complex(*r) for r in REFERENCE["pade_poles"]]
WEIGHTS = [complex(*w) for w in REFERENCE["pade_weights"]]


def _one(w, medium, grid):
    """(signal, roundoff) of `_subtraction` for the source w alone."""
    (signal,), (roundoff,) = _subtraction((w,), medium, grid)
    return signal, roundoff


def _pade_minus_one(u):
    """R(u) - 1, R = Q(-u)/Q(u) with Q(u) = 1 + u/2 + u**2/10 + u**3/120."""
    def q(v):
        return 1.0 + v / 2.0 + v**2 / 10.0 + v**3 / 120.0

    return q(-u) / q(u) - 1.0


def _case_id(case):
    p = case["params"]
    if case["medium"] == "eit":
        return f"eit{p[2] / 4.5 - 1.0:+.0e}-{case['source']}"
    if p[0] == 0.5:  # the real-pole chain at the source's rate
        return f"source_rate{p[1] / -POLES[0].real - 1.0:+.0e}-{case['source']}"
    return f"broad{p[0] - 1.0:+.0e}-{case['source']}"


def test_pade_constants_are_the_40_digit_ones():
    # the real root first, then the conjugate pair; the error constant is the series' sum, rounded up by < 1%
    assert list(propagate._PADE_POLES) == POLES
    assert list(propagate._PADE_WEIGHTS) == WEIGHTS
    assert REFERENCE["pade_error_sum"] <= propagate._PADE_ERROR <= 1.01 * REFERENCE["pade_error_sum"]
    # R(u) - 1 = sum_i w_i*u/(1 - u/r_i)
    u = np.array([0.3, 2.0 + 1.5j, 40.0 - 7.0j, 1e3j])
    terms = sum(w * u / (1.0 - u / r) for r, w in zip(POLES, WEIGHTS))
    np.testing.assert_allclose(terms, _pade_minus_one(u), rtol=1e-14)


@pytest.mark.parametrize("case", REFERENCE["cases"], ids=_case_id)
def test_matches_40_digit_reference(case):
    # Omega = 4.5(1 +- 10^-k) around the critical EIT coupling, Gamma = delta_ph(1 +- 10^-k) and a real-pole
    # chain at rate delta_ph(1 +- 10^-k/2), k = 3..12: coincident and near-coincident poles of the chains
    medium = EitMedium(*case["params"]) if case["medium"] == "eit" else BroadLine(*case["params"])
    w = PhotonWaveform(WaveformKind(case["source"]), REFERENCE["delta_ph"])
    signal, roundoff = _one(w, medium, TimeGrid(*REFERENCE["grid"]))
    want = np.array(case["signal"])
    assert np.abs(signal[REFERENCE["indices"]] - want).max() <= 2e-14 * np.abs(want).max()
    assert roundoff <= 1e-9


@pytest.mark.parametrize("case", REFERENCE["fine_cases"], ids=lambda c: c["source"])
def test_matches_reference_at_linspace_times(case):
    # the EIT example's grid: linspace's times are not whole multiples of the
    # spacing, which the doubling steps by, so the columns take a first-order move
    w = PhotonWaveform(WaveformKind(case["source"]), REFERENCE["delta_ph"])
    signal, _ = _one(w, EitMedium(*case["params"]), TimeGrid(*REFERENCE["fine_grid"]))
    want = np.array(case["signal"])
    assert np.abs(signal[REFERENCE["fine_indices"]] - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("thickness", [0.5, 10.0, 1000.0])
def test_matched_line_is_exact(thickness):
    # Gamma = delta_ph = 1: w_i*u/(1 - u/r_i)/(s + 1), u = alpha0_l/(s + 1), is
    # w_i*r_i*(1/(s + 1 - alpha0_l/r_i) - 1/(s + 1)), i.e. exp(-tau)*sum_i w_i*r_i*(exp(alpha0_l*tau/r_i) - 1)
    grid = TimeGrid(-2.0, 10.0, 1201)
    tau = np.clip(grid.times(), 0.0, None)
    signal, roundoff = _one(PhotonWaveform(C, 1.0), MatchedLine(1.0, thickness), grid)
    want = np.exp(-tau) * sum(w * r * np.expm1(thickness * tau / r) for r, w in zip(POLES, WEIGHTS)).real
    assert np.abs(signal - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(signal - want).max() <= roundoff


@pytest.mark.parametrize("kind", [S, A])
@pytest.mark.parametrize(
    "medium, a_d",
    [(MatchedLine(1.0, 10.0), 10.0 / 2.0), (EitMedium(10.0, 1.0, 4.5, 30.0), 300.0 * 2.0 / (11.0 * 2.0 + 4.5**2))],
    ids=["matched", "critical_eit"],
)
def test_anticausal_part_before_and_at_zero(kind, medium, a_d):
    # tau <= 0 carries only the anticausal source: c_m*exp(d*tau)*(R(A(d)l) - 1) at s = d = 1; the
    # terms are continuous, so tau = 0 takes that value too
    grid = TimeGrid(-3.0, 3.0, 61)
    tau = grid.times()
    c_m = 0.5 if kind is S else -0.5
    closed = _pade_minus_one(a_d)
    signal, _ = _one(PhotonWaveform(kind, 1.0), medium, grid)
    before = tau <= 0
    assert tau[30] == 0.0
    np.testing.assert_allclose(signal[before], c_m * np.exp(tau[before]) * closed, rtol=1e-14)


@pytest.mark.parametrize("kind", [C, S, A])
def test_grid_after_zero_continues_the_grid_from_before(kind):
    # a grid starting past tau = 0 reaches its first point by one exponential, a grid before it by steps
    medium = EitMedium(10.0, 1.0, 20.0, 30.0)
    w = PhotonWaveform(kind, 1.0)
    whole, _ = _one(w, medium, TimeGrid(-2.0, 10.0, 49))
    late, _ = _one(w, medium, TimeGrid(3.0, 10.0, 29))
    assert np.abs(late - whole[20:]).max() <= 1e-14 * np.abs(whole).max()


def test_decayed_columns_keep_their_relative_precision():
    # far past tau = 0 every term has decayed by exp(-37): each column keeps its own relative
    # precision, not eps times the columns it was stepped from
    w, medium = PhotonWaveform(C, 1.0), BroadLine(2.0, 0.5)
    near, _ = _one(w, medium, TimeGrid(0.0, 38.0, 77))
    far, _ = _one(w, medium, TimeGrid(37.0, 38.0, 3))
    np.testing.assert_allclose(far, near[-3:], rtol=1e-13)


def test_gaussian_subtracts_nothing():
    grid = TimeGrid(-2.0, 2.0, 11)
    signal, roundoff = _one(PhotonWaveform(WaveformKind.GAUSSIAN, 1.0), BroadLine(3.0, 2.0), grid)
    assert not signal.any() and roundoff == 0.0


@pytest.mark.parametrize("medium", [MatchedLine(1.0, 10.0), BroadLine(10.0, 10.0), EitMedium(10.0, 1.0, 20.0, 30.0)],
                         ids=["matched", "broad", "eit"])
def test_shared_chain_reads_each_part_as_alone(medium):
    # a photon's two parts share one chain through a two-column x0: each row is that part's own subtraction,
    # and the causal photon's is their sum, within the round-off each records
    grid = TimeGrid(-2.0, 15.0, 1701)
    parts, roundoff = _subtraction(_solved(PhotonWaveform(C, 1.0)), medium, grid)
    for row, bound, kind in zip(parts, roundoff, (S, A)):
        alone, own = _one(PhotonWaveform(kind, 1.0), medium, grid)
        assert np.abs(row - alone).max() <= bound + own
    causal, own = _one(PhotonWaveform(C, 1.0), medium, grid)
    assert np.abs(parts.sum(axis=0) - causal).max() <= roundoff.sum() + own
