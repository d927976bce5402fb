"""Which outputs validate accepts, and that every accepted one runs.

The output preconditions (an EIT medium with an open window for
eit_params, scan.* keys and, for a broad scan, a broad-line medium for
thickness_scan) are frozen here, as test_methods.py freezes the methods.
The trace writer's text is checked against formatting each cell on its own.
"""

import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphoton.cli import OUTPUTS, Scenario, ScanSpec, figure_preset, run_scenario, validate
from slowphoton.media import BroadLine, EitMedium, MatchedLine
from slowphoton.errors import TruncatedSupportWarning
from slowphoton.observables import pulse_area
from slowphoton.waveforms import PhotonWaveform, TimeGrid, TimeSeries, WaveformKind, sample

MEDIA = {
    "none": None,
    "matched": MatchedLine(gamma=1.0, thickness=2.0),
    "broad": BroadLine(gamma_total=10.0, thickness=2.0),
    "closed_eit": EitMedium(gamma_total=10.0, gamma_m=1.0, omega=2.0, thickness=5.0),
    "open_eit": EitMedium(gamma_total=10.0, gamma_m=1.0, omega=20.0, thickness=5.0),
}
SCANS = {
    "none": None,
    "matched": ScanSpec(kind="matched", t_min=0.0, t_max=10.0, n_points=11),
    "broad": ScanSpec(kind="broad", t_min=0.0, t_max=10.0, n_points=11),
}
NOT_EIT = "eit_params output requires an EIT medium"
NOT_BROAD = "broad thickness scan needs a broad-line medium for Gamma"
# (outputs, comma-separated, medium, scan) -> None if accepted, else a substring of the refusal
CASES = {
    ("eit_params", "none", "none"): NOT_EIT,
    ("eit_params", "matched", "none"): NOT_EIT,
    ("eit_params", "broad", "none"): NOT_EIT,
    ("eit_params", "closed_eit", "none"): "eit_params output: adiabatic expansion invalid: "
    "requires Omega**2 >= gamma_m*Gamma",
    ("eit_params", "open_eit", "none"): None,
    ("thickness_scan", "broad", "none"): "thickness_scan output requires scan.* keys",
    ("thickness_scan", "none", "matched"): None,
    ("thickness_scan", "none", "broad"): NOT_BROAD,
    ("thickness_scan", "matched", "broad"): NOT_BROAD,
    ("thickness_scan", "broad", "broad"): None,
    ("thickness_scan", "open_eit", "broad"): None,
    ("warp_field", "none", "none"): "unknown output 'warp_field'; valid: time_trace, "
    "thickness_scan, eit_params, areas_and_energies",
    ("eit_params,eit_params", "open_eit", "none"): "output 'eit_params' is listed more than once",
}


def scenario(outputs, medium=None, scan=None):
    return Scenario(
        name="out",
        reference_rate_label="delta_ph",
        source=PhotonWaveform(WaveformKind.EXPONENTIAL_CAUSAL, 1.0),
        medium=medium,
        grid=TimeGrid(-1.0, 8.0, 91),
        methods=[],
        outputs=outputs,
        scan=scan,
    )


@pytest.mark.parametrize("case", CASES, ids=["-".join(case) for case in CASES])
def test_output_preconditions_are_frozen(tmp_path, case):
    output, medium, scan = case
    sc = scenario(output.split(","), MEDIA[medium], SCANS[scan])
    errors, _ = validate(sc)
    needle = CASES[case]
    if needle is None:
        assert errors == []
        assert (tmp_path / run_scenario(sc, tmp_path)["files"][output]).exists()
    else:
        assert len(errors) == 1 and needle in errors[0], errors


def test_scan_only_preset_gets_no_grid_advice():
    # fig3b runs no method on its placeholder grid, whose t_end = 1 truncates the tail
    (sc,) = figure_preset("fig3b")
    assert validate(sc) == ([], [])


TAIL_ADVICE = "boundary amplitude 8.21e-02 exceeds 1e-06; the grid truncates the envelope support"


@pytest.mark.parametrize(
    "outputs, advice",
    [(["time_trace"], []), (["time_trace", "areas_and_energies"], [TAIL_ADVICE])],
    ids=["trace", "areas"],
)
def test_tail_advice_only_for_time_integrals(outputs, advice):
    # t_end = 2.5 cuts the causal tail at 0.082: only the areas' time integrals
    # see it, the oracle's period does not depend on the grid
    sc = dataclasses.replace(
        scenario(outputs, MEDIA["matched"]), grid=TimeGrid(-1.0, 2.5, 36), methods=["input"]
    )
    assert validate(sc) == ([], advice)


# (t_start, t_end) at which each unit-rate source still exceeds 1e-6, the
# time integrals' bound: the causal source after its jump, the two-sided ones
# at -8 (exp(-8) = 3.4e-4), the Gaussian at 5 (exp(-6.25) = 1.9e-3), and
# every source at 10 but the Gaussian; +-25 cuts none of them
CUTS = {
    WaveformKind.EXPONENTIAL_CAUSAL: (0.5, 10.0),
    WaveformKind.SYMMETRIC_PART: (-8.0, 10.0),
    WaveformKind.ANTISYMMETRIC_PART: (-8.0, 10.0),
    WaveformKind.GAUSSIAN: (-5.0, 5.0),
}
CUT_ENDS = {"neither": (False, False), "start": (True, False), "end": (False, True), "both": (True, True)}


@pytest.mark.parametrize("cut", CUT_ENDS)
@pytest.mark.parametrize("kind", CUTS, ids=[k.value for k in CUTS])
def test_tail_advice_is_the_time_integrals_test(kind, cut):
    # validate advises on exactly the grids whose input area warns, in the
    # warning's words, and only when areas_and_energies is asked for
    (start, end), (cut_start, cut_end) = CUTS[kind], CUT_ENDS[cut]
    grid = TimeGrid(start if cut_start else -25.0, end if cut_end else 25.0, 401)
    w = PhotonWaveform(kind, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pulse_area(sample(w, grid))
    texts = [str(c.message).removeprefix("pulse_area: ")
             for c in caught if issubclass(c.category, TruncatedSupportWarning)]
    assert len(texts) == (cut != "neither")
    (trace_errors, trace), (areas_errors, areas) = (
        validate(dataclasses.replace(scenario(outputs), source=w, grid=grid, methods=["input"]))
        for outputs in (["time_trace"], ["time_trace", "areas_and_energies"])
    )
    assert trace_errors == areas_errors == []
    assert areas == trace + texts


def test_readme_table_names_the_outputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `<name>(\S+)` \| (yes|no) \|", readme, re.M)
    assert rows == [(name, out.suffix, "yes" if out.traces else "no") for name, out in OUTPUTS.items()]


def test_run_scenario_rejects_unknown_output_like_validate(tmp_path):
    sc = scenario(["warp_field"])
    (error,) = validate(sc)[0]
    with pytest.raises(ValueError) as info:
        run_scenario(sc, tmp_path)
    assert str(info.value) == error


# signed zeros, subnormals, the ends of the float64 range, and every other float
AMPLITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(width=64),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30).flatmap(
    lambda n: st.lists(st.lists(AMPLITUDES, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_trace_cells_follow_the_per_cell_rule(columns):
    # the writer formats each number once; its text must be what formatting
    # every cell on its own gives: repr(x), 0.0 and repr(abs(x))
    methods = ["input", "numeric", "analytic_parts"][: len(columns)]
    grid = TimeGrid(-1.0, 8.0, len(columns[0]))
    sc = dataclasses.replace(scenario(["time_trace"]), grid=grid, methods=methods)
    traces = {m: TimeSeries(grid, np.array(col)) for m, col in zip(methods, columns)}
    header = ["tau"] + [f"{part}_{m}" for m in methods for part in ("re", "im", "abs")]
    rows = [[repr(t)] + [cell for col in columns for cell in (repr(col[i]), "0.0", repr(abs(col[i])))]
            for i, t in enumerate(grid.times().tolist())]
    expected = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    assert OUTPUTS["time_trace"].text(sc, traces, {}) == expected
