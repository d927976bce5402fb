"""Which trace methods validate accepts, and that every accepted one runs.

The accepted (method, medium, source) combinations are frozen here so a
change to how methods are declared cannot silently widen or narrow them.
"""

import itertools

import pytest

from slowphoton.cli import Scenario, run_scenario, validate
from slowphoton.media import BroadLine, EitMedium, MatchedLine
from slowphoton.waveforms import PhotonWaveform, TimeGrid, WaveformKind

GRID = TimeGrid(-2.0, 12.0, 281)
DELTA_PH = 1.0
MEDIA = {
    "none": None,
    "matched": MatchedLine(gamma=1.0, thickness=2.0),
    "broad": BroadLine(gamma_total=10.0, thickness=2.0),
    "eit": EitMedium(gamma_total=10.0, gamma_m=1.0, omega=20.0, thickness=5.0),
}
METHOD_NAMES = (
    "input",
    "numeric",
    "analytic_matched",
    "analytic_parts",
    "approx_broad",
    "adiabatic_eit",
    "total_eit",
    "gaussian_approx",
    "phi_plus",
    "phi_plus_zero",
)

C, S, A, G = (
    WaveformKind.EXPONENTIAL_CAUSAL,
    WaveformKind.SYMMETRIC_PART,
    WaveformKind.ANTISYMMETRIC_PART,
    WaveformKind.GAUSSIAN,
)
ALL = {C, S, A, G}
# method -> medium kind -> accepted source kinds; anything missing is rejected
ACCEPTED = {
    "input": dict.fromkeys(MEDIA, ALL),
    "numeric": dict.fromkeys(MEDIA, ALL),
    "analytic_matched": {"matched": {C}},
    "analytic_parts": {"matched": {C, S, A}, "broad": {C, S, A}},
    "approx_broad": {"broad": {C}},
    "adiabatic_eit": {"eit": {C}},
    "total_eit": {"eit": {C, S, A}},
    "gaussian_approx": {"broad": {G}},
    "phi_plus": {"eit": ALL},
    "phi_plus_zero": {"eit": ALL},
}
COMBINATIONS = list(itertools.product(METHOD_NAMES, MEDIA, WaveformKind))
ACCEPTED_COMBINATIONS = [
    (m, med, kind) for m, med, kind in COMBINATIONS if kind in ACCEPTED[m].get(med, ())
]


def scenario(method, medium, kind, delta_ph=DELTA_PH, methods=None):
    return Scenario(
        name=f"{method}_{kind.value}",
        reference_rate_label="delta_ph",
        source=PhotonWaveform(kind, delta_ph),
        medium=medium,
        grid=GRID,
        methods=[method] if methods is None else methods,
        outputs=["time_trace"],
    )


def test_accepted_set_is_frozen():
    assert len(COMBINATIONS) == 160
    assert len(ACCEPTED_COMBINATIONS) == 53
    for method, med, kind in COMBINATIONS:
        errors, _ = validate(scenario(method, MEDIA[med], kind))
        accepted = kind in ACCEPTED[method].get(med, ())
        assert (errors == []) == accepted, (method, med, kind.value, errors)
        # every rejection names the method it rejects
        assert all(method in e for e in errors), errors


@pytest.mark.parametrize(
    "method,medium,kind,delta_ph,needle",
    [
        ("analytic_matched", MatchedLine(gamma=2.0, thickness=2.0), C, 1.0, "matched condition"),
        ("analytic_parts", MatchedLine(gamma=2.0, thickness=2.0), S, 1.0, "matched condition"),
        ("analytic_parts", BroadLine(gamma_total=1.0, thickness=2.0), A, 1.0, "Gamma > delta_ph"),
        ("analytic_parts", BroadLine(gamma_total=1.0, thickness=2.0), A, 2.0, "Gamma > delta_ph"),
        ("approx_broad", BroadLine(gamma_total=1.0, thickness=2.0), C, 1.0, "Gamma > delta_ph"),
        ("gaussian_approx", BroadLine(gamma_total=2.0, thickness=5.0), G, 1.0, "f*T < 1"),
        ("total_eit", MEDIA["eit"], C, 20.0, "delta_ph <= Gamma"),
        ("total_eit", MEDIA["eit"], S, 10.5, "delta_ph <= Gamma"),
    ]
    + [
        (m, EitMedium(gamma_total=10.0, gamma_m=1.0, omega=2.0, thickness=5.0), C, 1.0,
         "Omega**2 >= gamma_m*Gamma")
        for m in ("adiabatic_eit", "total_eit", "phi_plus", "phi_plus_zero")
    ],
)
def test_parameter_rejections_name_the_condition(method, medium, kind, delta_ph, needle):
    errors, _ = validate(scenario(method, medium, kind, delta_ph))
    assert errors, (method, needle)
    assert any(needle in e and method in e for e in errors), errors


@pytest.mark.parametrize(
    "method,medium,kind,delta_ph",
    [
        ("total_eit", MEDIA["eit"], C, 10.0),  # delta_ph == Gamma: the matched spike
        ("gaussian_approx", BroadLine(gamma_total=2.0, thickness=3.9), G, 1.0),  # f*T = 0.975
        ("analytic_parts", BroadLine(gamma_total=1.5, thickness=2.0), A, 1.0),
    ],
)
def test_parameter_edges_accepted(method, medium, kind, delta_ph):
    errors, _ = validate(scenario(method, medium, kind, delta_ph))
    assert errors == []


def test_empty_methods_rejected():
    errors, _ = validate(scenario("input", None, C, methods=[]))
    assert any("methods must be nonempty" in e for e in errors), errors


def test_unknown_method_lists_the_valid_ones():
    errors, _ = validate(scenario("warp_drive", None, C))
    (error,) = errors
    assert "warp_drive" in error
    assert all(name in error for name in METHOD_NAMES)


def test_run_scenario_rejects_unknown_method_like_validate(tmp_path):
    sc = scenario("warp_drive", None, C)
    (error,) = validate(sc)[0]
    with pytest.raises(ValueError) as info:
        run_scenario(sc, tmp_path)
    assert str(info.value) == error


@pytest.mark.parametrize(
    "method,med,kind",
    ACCEPTED_COMBINATIONS,
    ids=[f"{m}-{med}-{kind.value}" for m, med, kind in ACCEPTED_COMBINATIONS],
)
def test_accepted_combination_runs(tmp_path, method, med, kind):
    sc = scenario(method, MEDIA[med], kind)
    manifest = run_scenario(sc, tmp_path)
    assert (tmp_path / manifest["files"]["time_trace"]).exists()
    # only the oracle records a convergence block
    assert set(manifest["convergence"]) == ({"numeric"} if method == "numeric" else set())
