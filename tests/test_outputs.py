"""Which outputs validate accepts, and that every accepted one runs.

The output preconditions (an EIT medium with an open window for
eit_params, scan.* keys and, for a broad scan, a broad-line medium for
thickness_scan) are frozen here, as test_methods.py freezes the methods.
The trace writer's text is checked against formatting each cell on its own,
and the CSV writer's numbers against repr.
"""

import dataclasses
import decimal
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowphoton import cli
from slowphoton.cli import METHODS, OUTPUTS, Scenario, ScanSpec, figure_preset, main, run_scenario, validate
from slowphoton.media import BroadLine, EitMedium, MatchedLine
from slowphoton.errors import TruncatedSupportWarning
from slowphoton.observables import integrated_intensity, pulse_area
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


# the unresolved draw of the accepted-space fuzz: delta_ph*spacing = 2.04, and the
# trapezoid input energy is 0.01789 against the exact 1/(4*delta_ph) = 0.00909
UNRESOLVED = Scenario(
    name="unresolved",
    reference_rate_label="delta_ph",
    source=PhotonWaveform(WaveformKind.ANTISYMMETRIC_PART, 27.5),
    medium=BroadLine(gamma_total=10.7, thickness=6.76),
    grid=TimeGrid(-0.52, 45.2, 618),
    methods=["input"],
    outputs=["areas_and_energies"],
)
RESOLUTION_ADVICE = ("delta_ph*spacing = 2.04 exceeds 0.17: the trapezoid areas and energies can be off "
                     "by more than 1%, and by up to about delta_ph*spacing where the source jumps at tau = 0; "
                     "refine the grid")


def test_unresolved_source_gets_resolution_advice(tmp_path):
    errors, advice = validate(UNRESOLVED)
    assert errors == [] and RESOLUTION_ADVICE in advice
    trace = dataclasses.replace(UNRESOLVED, outputs=["time_trace"])
    assert RESOLUTION_ADVICE not in validate(trace)[1]  # only the time integrals need it
    run_scenario(UNRESOLVED, tmp_path)
    energy = float((tmp_path / "unresolved_areas.csv").read_text().splitlines()[1].split(",")[4])
    assert energy == pytest.approx(0.01789, rel=1e-3)  # the exact energy is 1/(4*27.5) = 0.00909


@pytest.mark.parametrize("step, within", [(cli._RESOLVED_STEP, True), (0.2, False)])
def test_resolution_bound_is_one_percent_for_a_source_without_a_jump(step, within):
    # the symmetric part sampled at its peak, the worst of the grid's offsets, against
    # its exact energy 1/(4*delta_ph): 0.96% high at the bound, 1.33% at 0.2
    half = 240
    grid = TimeGrid(-half * step, half * step, 2 * half + 1)
    energy = integrated_intensity(sample(PhotonWaveform(WaveformKind.SYMMETRIC_PART, 1.0), grid))
    assert (abs(4 * energy - 1) <= 0.01) == within


def test_presets_need_no_resolution_advice():
    # fig6b's delta_ph*spacing = 10 * 0.01 is the largest of the presets' areas outputs
    (sc,) = figure_preset("fig6b")
    assert sc.source.delta_ph * sc.grid.spacing == pytest.approx(0.1)
    assert validate(sc) == ([], [])


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
    assert OUTPUTS["time_trace"].text(sc, traces, {}) == expected.encode()


def _repr_csv(values):
    return ("x\n" + "\n".join(map(repr, values.tolist())) + "\n").encode()


def _first_mismatches(values):
    got = cli._csv(["x"], [values])
    if got == _repr_csv(values):
        return []
    return [(v, line) for v, line in zip(values.tolist(), got.split(b"\n")[1:]) if line != repr(v).encode()][:5]


# the format's switch points, the fast path's ends, the smallest subnormal and normal,
# and the largest float, with their finite neighbours
EDGES = np.array([1e16, 9.999999999999999e15, 1e-4, 1e-5, 1e250, 1e-250, 5e-324, 2.0**-1022, 1.7976931348623157e308])
EDGES = np.concatenate([EDGES, np.nextafter(EDGES, 0.0), np.nextafter(EDGES[:-1], np.inf)])


def _shape(value):
    """(significant digits, point place) of repr(value), |value| = 0.d1d2... * 10**place;
    the place is 17 for the exponent form."""
    text = repr(abs(float(value)))
    _, digits, exp = decimal.Decimal(text).normalize().as_tuple()
    return len(digits), 17 if "e" in text else len(digits) + exp


def _with_shape(rng, n, place):
    """A float whose repr has n significant digits, the point at `place` (17: e+25)."""
    power = 25 if place == 17 else place
    while True:
        digits = int(rng.integers(10 ** (n - 1), 10**n))
        value = float(f"{digits + (digits % 10 == 0)}e{power - n}")
        if _shape(value) == (n, place):
            return value


# every digit count 1-17 and point place -3..16, with 17 standing for the exponent form
SHAPES = [(n, place) for n in range(1, 18) for place in range(-3, 18)]
# repr's own: not finite, subnormal, or outside [1e-250, 1e250]
REPR_ONLY = [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1e-300, -1e-300, 1e300, -1e300,
             1.7976931348623157e308]


class TestCellLayout:
    """The 32-byte cells hold repr's text in every shape repr writes."""

    def test_every_digit_count_and_point_place(self, monkeypatch):
        rng = np.random.default_rng(31)
        values = np.array([_with_shape(rng, n, place) for n, place in SHAPES for _ in range(3)]
                          # 17 digits, the point at 16, below 2**50: above it each such value is a tie repr decides
                          + [1050000000000000.1, 1123456789012345.9]
                          + [1e-5, 1.5e-5, 1e16, 1.2345678901234567e-250, 9.87654321e249, 1e23])
        values = np.concatenate([values, -values, [0.0, -0.0]])
        assert cli._cells(values).shape == (values.size, 4)
        sent, repr_cells = [], cli._repr_cells
        monkeypatch.setattr(cli, "_repr_cells", lambda x: sent.extend(x.tolist()) or repr_cells(x))
        assert _first_mismatches(values) == []
        # the cells wrote every shape, of either sign; repr took only the decisions at a threshold
        assert len(sent) < 0.02 * values.size
        assert {(_shape(v), v < 0) for v in set(values.tolist()) - set(sent) if v} == {
            (shape, sign) for shape in SHAPES for sign in (False, True)}

    @pytest.mark.parametrize("zeros", range(2, 17))
    def test_short_values(self, zeros):
        # 17 - zeros digits: the 17-digit integer ends in `zeros` zeros
        rng = np.random.default_rng(zeros)
        n = 17 - zeros
        values = np.array([_with_shape(rng, n, place) for place in rng.integers(-3, 18, 400)])
        assert {_shape(v)[0] for v in values} == {n}
        assert _first_mismatches(values) == []

    def test_repr_fallback(self, monkeypatch):
        # within a block the vector path writes: repr's cells for these values alone
        values = np.linspace(-2.0, 15.0, cli._BREAK_EVEN)
        values[:len(REPR_ONLY)] = REPR_ONLY
        sent, repr_cells = [], cli._repr_cells
        monkeypatch.setattr(cli, "_repr_cells", lambda x: sent.extend(x.tolist()) or repr_cells(x))
        assert _first_mismatches(values) == []
        assert sent == pytest.approx(REPR_ONLY, nan_ok=True)


class TestCsvText:
    """The CSV writer's numbers are repr's text, byte for byte."""

    def test_numbers_are_written_as_repr_writes_them(self):
        rng = np.random.default_rng(28)
        n = 150_000
        powers = np.ldexp(1.0, rng.integers(-1074, 1024, n // 3))
        values = np.concatenate([
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),  # every exponent, nan and inf
            rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n),
            rng.integers(-10**7, 10**7, n) / 10.0 ** rng.integers(0, 12, n),  # short decimals
            # integers up to 1e18, whose interval ends fall on multiples of 10 for even and odd mantissas
            rng.integers(-10**18, 10**18, n).astype(float),
            rng.integers(2**54, 10**17, n).astype(float),
            # powers of two, whose interval is narrower below, and their neighbours
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            # exact half-way ties: 100*x ends in 25 or 75, half-way between two candidates
            rng.integers(2**49, 10**15, n) + rng.choice([-0.75, -0.25, 0.25, 0.75], n),
            EDGES, -EDGES, [0.0, -0.0, np.nan, np.inf, -np.inf],
        ])
        assert values.size > 10**6
        assert _first_mismatches(values) == []

    @pytest.mark.parametrize("size", [cli._BREAK_EVEN - 1, cli._BREAK_EVEN])
    def test_blocks_around_the_break_even(self, size):
        # below it every value goes to repr, from it on the vector path writes them
        rng = np.random.default_rng(size)
        values = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.integers(-300, 300, size)
        values[:7] = [0.0, -0.0, np.nan, np.inf, 1e16, 1e-5, 670475713199453.25]
        assert _first_mismatches(values) == []

    def test_a_long_tau_column_is_formatted_in_blocks(self, monkeypatch):
        # tau is formatted with the method's column, _TEXT_BLOCK numbers a call; the next
        # file on the grid takes tau's kept cells and formats the method's column alone
        grid = TimeGrid(-2.0, 15.0, 40_001)
        sc = dataclasses.replace(scenario(["time_trace"]), grid=grid, methods=["input"])
        traces = {"input": TimeSeries(grid, np.cos(grid.times()))}
        sizes, cells = [], cli._cells
        monkeypatch.setattr(cli, "_cells", lambda x: sizes.append(x.size) or cells(x))
        texts = [OUTPUTS["time_trace"].text(sc, traces, {}) for _ in range(2)]
        block = cli._TEXT_BLOCK
        assert sizes == [block] * 4 + [2 * 40_001 - 4 * block] + [block] * 2 + [40_001 - 2 * block]
        rows = "".join(f"{t!r},{a!r},0.0,{abs(a)!r}\n" for t, a in zip(grid.times().tolist(), np.cos(grid.times()).tolist()))
        assert texts == [("tau,re_input,im_input,abs_input\n" + rows).encode()] * 2

    def test_presets_are_written_as_repr_writes_them(self, tmp_path, monkeypatch):
        assert main(["figure", "all", "--out", str(tmp_path)]) == 0
        cells = [cell for path in sorted(tmp_path.glob("*.csv"))
                 for line in path.read_text().splitlines()[1:] for cell in line.split(",")]
        numbers = [cell for cell in cells if cell not in METHODS]  # the areas' method names
        assert len(numbers) == len(cells) - 8
        assert [cell for cell in numbers if cell != repr(float(cell))] == []

        def no_repr(x):
            raise AssertionError(f"{x.size} preset values left to repr")

        # all of them in one call, so none is a small block's: the vector path writes every one
        values = np.array([float(cell) for cell in numbers])
        monkeypatch.setattr(cli, "_repr_cells", no_repr)
        assert cli._csv(["x"], [values]) == _repr_csv(values)
