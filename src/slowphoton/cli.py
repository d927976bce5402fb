"""Scenario runner and figure-data front end.

A scenario is a small config (flat ``key = value`` text with ``#``
comments, or an equivalent JSON object) naming a source waveform, a
medium, a time grid, the methods to compute and the outputs to write.
Each run produces one CSV per requested output plus a JSON manifest with
every parameter, the derived EIT numbers and the convergence diagnostics,
so any value in a CSV can be recomputed from the manifest alone.  Output
is deterministic: the same config yields byte-identical files.

Subcommands: ``run <config>``, ``figure <preset> [--out DIR]``,
``eit-params <config>``, ``validate <config>``.  The default output
directory can be overridden with the SLOWPHOTON_OUTDIR environment
variable.  Exit codes: 1 config parse error, 2 validation error,
3 numerical non-convergence, including round-off or a spectral sum past its caps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, ValidityError
from .media import (
    AbsorberSpec,
    BroadLine,
    EitMedium,
    EitParams,
    MatchedLine,
    eit_params,
    fe57_siderite,
)
from .observables import (
    MAX_GRID_POINTS,
    MAX_SCAN_POINTS,
    SCAN_NORMALIZATION,
    integrated_intensity,
    pulse_area,
    thickness_scan,
)
from .propagate import (
    _check_broad,
    _check_nonadiabatic,
    _gaussian_eta,
    adiabatic_eit,
    analytic_matched,
    analytic_parts_broad,
    analytic_parts_matched,
    approx_broad,
    gaussian_broad,
    phi_plus,
    propagate_numeric,
    total_eit,
)
from .waveforms import PART_WEIGHTS, PhotonWaveform, TimeGrid, TimeSeries, WaveformKind, sample

__all__ = [
    "Scenario",
    "ScanSpec",
    "load_config",
    "validate",
    "run_scenario",
    "figure_preset",
    "PRESET_NAMES",
    "main",
]

OUTPUT_KINDS = ("time_trace", "thickness_scan", "eit_params", "areas_and_energies")
TRACE_OUTPUTS = ("time_trace", "areas_and_energies")  # the outputs that run the methods


@dataclass(frozen=True)
class ScanSpec:
    kind: str
    t_min: float
    t_max: float
    n_points: int

    def values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_points)


@dataclass
class Scenario:
    """A complete run description, as parsed from a config file."""

    name: str
    reference_rate_label: str
    source: PhotonWaveform
    medium: Optional[AbsorberSpec]
    grid: TimeGrid
    methods: list[str]
    outputs: list[str]
    scan: Optional[ScanSpec] = None


# ---------------------------------------------------------------------------
# trace methods
# ---------------------------------------------------------------------------

ALL_SOURCES = frozenset(WaveformKind)
CAUSAL = frozenset({WaveformKind.EXPONENTIAL_CAUSAL})
DECOMPOSABLE = frozenset(PART_WEIGHTS)  # causal and its two parts


@dataclass(frozen=True)
class Method:
    """One trace method: accepted media and sources, precondition, compute.

    media None accepts any medium or none.  check(source, medium) raises
    ValidityError outside the method's validity regime; compute(source,
    medium, grid) builds the TimeSeries.  Library functions are looked up
    when called, so a wrapper set on this module's attribute sees each call.
    """

    media: Optional[tuple[type, ...]]
    sources: frozenset
    compute: Callable[..., TimeSeries]
    check: Optional[Callable] = None


def _closed(amplitude: Callable) -> Callable[..., TimeSeries]:
    """compute() wrapping amplitude(source, medium, tau) in a TimeSeries."""
    return lambda w, a, grid: TimeSeries(grid, amplitude(w, a, grid.times()))


def _check_matched(w, a):
    if not math.isclose(a.gamma, w.delta_ph, rel_tol=1e-12):
        raise ValidityError(
            "assumes the matched condition gamma == delta_ph "
            f"(got gamma={a.gamma}, delta_ph={w.delta_ph})"
        )


def _check_parts(w, a):
    if isinstance(a, MatchedLine):
        _check_matched(w, a)
    else:
        _check_broad(w.delta_ph, a.gamma_total)


def _check_eit(w, a):
    eit_params(a)


def _check_total_eit(w, a):
    eit_params(a)
    _check_nonadiabatic(w.delta_ph, a.gamma_total)


def _open_window(medium) -> Optional[EitParams]:
    """EIT filter numbers of an EIT medium whose window is open, else None."""
    try:
        return eit_params(medium) if isinstance(medium, EitMedium) else None
    except ValidityError:
        return None


def _parts(w, a, tau):
    if isinstance(a, MatchedLine):
        b_s, b_a = analytic_parts_matched(w.delta_ph, a.thickness, tau)
    else:
        b_s, b_a = analytic_parts_broad(w.delta_ph, a.gamma_total, a.thickness, tau)
    w_s, w_a = PART_WEIGHTS[w.kind]
    return w_s * b_s + w_a * b_a


METHODS: dict[str, Method] = {
    "input": Method(None, ALL_SOURCES, lambda w, a, grid: sample(w, grid)),
    "numeric": Method(None, ALL_SOURCES, lambda w, a, grid: propagate_numeric(w, a, grid)),
    "analytic_matched": Method(
        (MatchedLine,), CAUSAL,
        _closed(lambda w, a, t: analytic_matched(w.delta_ph, a.thickness, t)),
        _check_matched,
    ),
    "analytic_parts": Method(
        (MatchedLine, BroadLine), DECOMPOSABLE,
        _closed(_parts),
        _check_parts,
    ),
    "approx_broad": Method(
        (BroadLine,), CAUSAL,
        _closed(lambda w, a, t: approx_broad(w.delta_ph, a.gamma_total, a.alpha0_l, t)),
        lambda w, a: _check_broad(w.delta_ph, a.gamma_total),
    ),
    "adiabatic_eit": Method(
        (EitMedium,), CAUSAL,
        _closed(lambda w, a, t: adiabatic_eit(w, a, t)),
        _check_eit,
    ),
    "total_eit": Method(
        (EitMedium,), DECOMPOSABLE,
        lambda w, a, grid: total_eit(w, a, grid),
        _check_total_eit,
    ),
    "gaussian_approx": Method(
        (BroadLine,), frozenset({WaveformKind.GAUSSIAN}),
        _closed(lambda w, a, t: gaussian_broad(w.delta_ph, a.gamma_total, a.thickness, t)),
        lambda w, a: _gaussian_eta(w.delta_ph, a.gamma_total, a.thickness),
    ),
    "phi_plus": Method(
        (EitMedium,), ALL_SOURCES,
        _closed(lambda w, a, t: phi_plus(w.delta_ph, eit_params(a), t)),
        _check_eit,
    ),
    "phi_plus_zero": Method(
        (EitMedium,), ALL_SOURCES,
        _closed(lambda w, a, t: phi_plus(0.0, eit_params(a), t)),
        _check_eit,
    ),
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _parse_flat_text(text: str) -> dict:
    data: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        data[key] = value
    return data


def _flatten(obj, prefix="") -> dict:
    flat = {}
    for key, value in obj.items():
        full = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, full + "."))
        else:
            flat[full] = value
    return flat


def _as_list(value) -> list[str]:
    if isinstance(value, str):
        return [tok.strip() for tok in value.split(",") if tok.strip()]
    if isinstance(value, (list, tuple)):
        return [str(tok) for tok in value]
    raise ConfigError(f"expected a list or comma-separated string, got {value!r}")


def _as_float(flat, key) -> float:
    try:
        return float(flat[key])
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: not a number: {flat[key]!r}") from None


def _as_int(flat, key) -> int:
    value = _as_float(flat, key)
    if not value.is_integer():
        raise ConfigError(f"key {key!r}: expected an integer, got {value}")
    return int(value)


def _as_kind(flat, key) -> str:
    return str(flat.get(key, "")).strip().lower()


def _as_waveform_kind(flat, key) -> WaveformKind:
    try:
        return WaveformKind(_as_kind(flat, key))
    except ValueError:
        raise ConfigError(
            f"unknown {key} {flat.get(key)!r}; expected one of {[k.value for k in WaveformKind]}"
        ) from None


def _section(cls, prefix: str, flat: dict, **parsers):
    """Build dataclass cls from the '<prefix>.<field>' key of each of its fields.

    parsers[field](flat, key) parses a field's value; floats by default.  So
    each section's keys are its dataclass's fields: source.* PhotonWaveform's,
    grid.* TimeGrid's, scan.* ScanSpec's, medium.* those of MEDIA[medium.kind].
    """
    try:
        return cls(**{
            f.name: parsers.get(f.name, _as_float)(flat, f"{prefix}.{f.name}")
            for f in dataclasses.fields(cls)
        })
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


MEDIA = {"matched": MatchedLine, "broad": BroadLine, "eit": EitMedium}


def load_config(path) -> Scenario:
    """Parse a scenario from flat key=value text or a JSON object."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError("JSON config must be an object")
        flat = _flatten(obj)
    else:
        flat = _parse_flat_text(text)

    source = _section(PhotonWaveform, "source", flat, kind=_as_waveform_kind)
    grid = _section(TimeGrid, "grid", flat, n_points=_as_int)
    scan = None
    if "scan.kind" in flat:
        scan = _section(ScanSpec, "scan", flat, kind=_as_kind, n_points=_as_int)
    medium_kind = str(flat.get("medium.kind", "none")).strip().lower()
    if medium_kind != "none" and medium_kind not in MEDIA:
        raise ConfigError(f"unknown medium.kind {medium_kind!r}")
    return Scenario(
        name=str(flat.get("name", Path(path).stem)),
        reference_rate_label=str(flat.get("reference_rate", "gamma_ref")),
        source=source,
        medium=None if medium_kind == "none" else _section(MEDIA[medium_kind], "medium", flat),
        grid=grid,
        methods=_as_list(flat.get("methods", "")),
        outputs=_as_list(flat.get("outputs", "time_trace")),
        scan=scan,
    )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _unknown_method(name: str) -> str:
    return f"unknown method {name!r}; valid: {', '.join(METHODS)}"


def validate(sc: Scenario) -> tuple[list[str], list[str]]:
    """Check every method/output precondition without running anything.

    Returns (errors, warnings); empty errors means the scenario can run.
    """
    errors: list[str] = []
    warnings: list[str] = []
    med = sc.medium
    kind = sc.source.kind
    d = sc.source.delta_ph

    # the name prefixes every output file, which must stay in the output directory
    if sc.name in ("", ".", "..") or any(c and c in sc.name for c in ("/", os.sep, os.altsep, "\0")):
        errors.append(f"name {sc.name!r} must be a plain file name")
    if any(o in TRACE_OUTPUTS for o in sc.outputs) and not sc.methods:
        errors.append("methods must be nonempty for time_trace outputs")
    for o in sc.outputs:
        if o not in OUTPUT_KINDS:
            errors.append(f"unknown output {o!r}; valid: {', '.join(OUTPUT_KINDS)}")
    for m in sc.methods:
        method = METHODS.get(m)
        if method is None:
            errors.append(_unknown_method(m))
            continue
        if method.media is not None and not isinstance(med, method.media):
            names = " or ".join(cls.__name__ for cls in method.media)
            errors.append(f"method {m!r} requires a {names} medium")
        elif method.check is not None:
            try:
                method.check(sc.source, med)
            except ValidityError as exc:
                errors.append(f"method {m!r}: {exc}")
        if kind not in method.sources:
            takes = ", ".join(k.value for k in WaveformKind if k in method.sources)
            errors.append(f"method {m!r} does not take the {kind.value} source (takes {takes})")

    if "thickness_scan" in sc.outputs:
        scan = sc.scan
        if scan is None:
            errors.append("thickness_scan output requires scan.* keys")
        elif not (math.isfinite(scan.t_min) and math.isfinite(scan.t_max)):
            errors.append(f"scan.t_min and scan.t_max must be finite (got {scan.t_min}, {scan.t_max})")
        elif scan.t_min < 0:
            errors.append(f"scan.t_min must be >= 0 (got {scan.t_min})")
        elif scan.n_points < 1:
            errors.append(f"scan.n_points must be >= 1 (got {scan.n_points})")
        elif scan.n_points > MAX_SCAN_POINTS:
            errors.append(f"scan.n_points must be <= {MAX_SCAN_POINTS} (got {scan.n_points})")
        elif scan.n_points > 1 and not scan.t_max > scan.t_min:
            errors.append(
                f"scan.t_max must exceed scan.t_min for {scan.n_points} points "
                f"(got {scan.t_min}, {scan.t_max})"
            )
        elif scan.kind not in ("matched", "broad"):
            errors.append(f"unknown scan.kind {scan.kind!r}")
        elif scan.kind == "broad":
            if not isinstance(med, (BroadLine, EitMedium)):
                errors.append("broad thickness scan needs a broad-line medium for Gamma")
            else:
                try:
                    _check_broad(d, med.linewidth)
                except ValidityError as exc:
                    errors.append(f"thickness_scan: {exc}")
    if "eit_params" in sc.outputs:
        if not isinstance(med, EitMedium):
            errors.append("eit_params output requires an EIT medium")
        else:
            try:  # the EIT methods' guard, so the refusal names its cause
                _check_eit(sc.source, med)
            except ValidityError as exc:
                errors.append(f"eit_params output: {exc}")

    # grid advice samples the grid, so an oversized one is refused first
    if sc.grid.n_points > MAX_GRID_POINTS:
        errors.append(f"grid.n_points must be <= {MAX_GRID_POINTS} (got {sc.grid.n_points})")
        return errors, warnings
    tau = sc.grid.times()
    if sc.grid.t_start < 0 < sc.grid.t_end and min(abs(tau)) > 1e-12 * max(1.0, sc.grid.spacing):
        warnings.append("tau = 0 is not a grid sample; jump values will be offset")
    p = _open_window(med)
    if p is not None and sc.grid.t_end < (needed := p.t_d + 2.0 / p.delta_eff):
        warnings.append(
            f"grid ends at {sc.grid.t_end:g} before the delayed envelope "
            f"(group delay t_d = {p.t_d:.4g}, edge width 2/delta_eff); "
            f"extend t_end beyond {needed:.4g}"
        )
    tail = math.exp(-d * max(sc.grid.t_end, 0.0))
    if tail > 1e-3 and kind is not WaveformKind.GAUSSIAN:
        warnings.append(
            f"grid truncates the envelope tail (exp(-delta_ph*t_end) = {tail:.2g})"
        )
    return errors, warnings


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    """Shortest round-trip decimal for a float."""
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def run_scenario(sc: Scenario, out_dir) -> dict:
    """Execute a validated scenario; returns the manifest dictionary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "tool": {"name": "slowphoton", "version": __version__},
        "scenario": {
            "name": sc.name,
            "reference_rate": sc.reference_rate_label,
            "source": dataclasses.asdict(sc.source),
            "medium": {"kind": "none"} if sc.medium is None
            else {"kind": type(sc.medium).__name__, **dataclasses.asdict(sc.medium)},
            "grid": dataclasses.asdict(sc.grid),
            "methods": list(sc.methods),
            "outputs": list(sc.outputs),
        },
        "derived": {},
        "convergence": {},
        "files": {},
    }
    p = _open_window(sc.medium)
    if p is not None:
        manifest["derived"]["eit_params"] = dataclasses.asdict(p)
        manifest["derived"]["delta_eff_over_delta_ph"] = p.delta_eff / sc.source.delta_ph
        manifest["derived"]["t_d_over_tau_life"] = p.t_d / sc.source.tau_life
    if isinstance(sc.medium, (BroadLine, EitMedium)):
        g, d = sc.medium.linewidth, sc.source.delta_ph
        if g > d:
            manifest["derived"]["t_plus"] = sc.medium.alpha0_l / (g + d)
            manifest["derived"]["t_minus"] = sc.medium.alpha0_l / (g - d)

    traces: dict[str, TimeSeries] = {}
    if any(o in TRACE_OUTPUTS for o in sc.outputs):
        for method in sc.methods:
            if method not in METHODS:
                raise ValueError(_unknown_method(method))
            ts = METHODS[method].compute(sc.source, sc.medium, sc.grid)
            traces[method] = ts
            if ts.convergence is not None:
                manifest["convergence"][method] = ts.convergence

    for output in sc.outputs:
        if output == "time_trace":
            path = out_dir / f"{sc.name}_trace.csv"
            header, cols = ["tau"], [sc.grid.times()]
            for m in sc.methods:
                amp = traces[m].amplitude
                header += [f"re_{m}", f"im_{m}", f"abs_{m}"]
                cols += [amp.real, amp.imag, np.abs(amp)]
            _write_csv(path, header, zip(*cols))
            manifest["files"]["time_trace"] = path.name
        elif output == "thickness_scan":
            scan = thickness_scan(
                sc.scan.kind,
                sc.source.delta_ph,
                sc.medium.linewidth if sc.medium is not None else None,
                sc.scan.values(),
            )
            path = out_dir / f"{sc.name}_scan.csv"
            header = ["thickness", "u_s", "u_a", "u_total", "beer_reference"]
            _write_csv(
                path,
                header,
                zip(scan.thickness_values, scan.u_s, scan.u_a, scan.u_total, scan.beer_reference),
            )
            manifest["files"]["thickness_scan"] = path.name
            manifest["derived"]["scan_normalization"] = SCAN_NORMALIZATION
        elif output == "areas_and_energies":
            path = out_dir / f"{sc.name}_areas.csv"
            header = ["method", "area_re", "area_im", "area_abs", "energy"]
            rows = []
            for m in sc.methods:
                area = pulse_area(traces[m])
                rows.append((m, area.real, area.imag, abs(area), integrated_intensity(traces[m])))
            _write_csv(path, header, rows)
            manifest["files"]["areas_and_energies"] = path.name
        elif output == "eit_params":
            path = out_dir / f"{sc.name}_eit_params.json"
            path.write_text(
                json.dumps(manifest["derived"]["eit_params"], indent=2, sort_keys=True)
                + "\n"
            )
            manifest["files"]["eit_params"] = path.name

    manifest_path = out_dir / f"{sc.name}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    manifest["files"]["manifest"] = manifest_path.name
    return manifest


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

PRESET_NAMES = ("fig2", "fig3a", "fig3b", "fig5", "fig6a", "fig6b", "fig7", "fe57")


def _panel(name, kind, delta_ph, medium, grid, methods, outputs=("time_trace",), scan=None):
    """One preset Scenario; its reference rate is gamma_m for an EIT medium, else delta_ph."""
    return Scenario(
        name=name,
        reference_rate_label="gamma_m" if isinstance(medium, EitMedium) else "delta_ph",
        source=PhotonWaveform(kind, delta_ph),
        medium=medium,
        grid=grid,
        methods=list(methods),
        outputs=list(outputs),
        scan=scan,
    )


def figure_preset(name: str) -> list[Scenario]:
    """Scenarios reproducing the published figure panels (one per CSV)."""
    causal = WaveformKind.EXPONENTIAL_CAUSAL
    parts = (("symmetric", WaveformKind.SYMMETRIC_PART),
             ("antisymmetric", WaveformKind.ANTISYMMETRIC_PART))
    eit = EitMedium(gamma_total=10.0, gamma_m=1.0, omega=20.0, thickness=30.0)
    eit_grid = TimeGrid(-2.0, 15.0, 1701)
    broad = BroadLine(gamma_total=10.0, thickness=10.0)
    if name == "fig2":
        med, grid = MatchedLine(gamma=1.0, thickness=10.0), TimeGrid(-4.0, 10.0, 1401)
        methods = ["input", "analytic_parts", "numeric"]
        return [_panel(f"fig2_{label}", kind, 1.0, med, grid, methods) for label, kind in parts]
    if name == "fig3a":
        grid = TimeGrid(-0.5, 2.5, 1501)
        return [
            _panel("fig3a_total", causal, 1.0, broad, grid, ["input", "numeric", "approx_broad"]),
            _panel("fig3a_antisymmetric", WaveformKind.ANTISYMMETRIC_PART, 1.0, broad, grid,
                   ["input", "analytic_parts", "numeric"]),
        ]
    if name == "fig3b":
        return [_panel("fig3b", causal, 1.0, broad, TimeGrid(-1.0, 1.0, 11), [], ["thickness_scan"],
                       ScanSpec(kind="broad", t_min=0.0, t_max=10.0, n_points=41))]
    if name == "fig5":
        delta_ph = 0.1 * eit_params(eit).delta_eff
        return [_panel("fig5", causal, delta_ph, eit, TimeGrid(-0.5, 2.5, 1201),
                       ["phi_plus", "phi_plus_zero"])]
    if name in ("fig6a", "fig6b"):
        return [_panel(name, causal, 1.0 if name == "fig6a" else 10.0, eit, eit_grid,
                       ["input", "numeric", "total_eit", "adiabatic_eit"],
                       ["time_trace", "eit_params", "areas_and_energies"])]
    if name == "fig7":
        return [_panel(f"fig7_{label}", kind, 1.0, eit, eit_grid, ["input", "numeric", "total_eit"])
                for label, kind in parts]
    if name == "fe57":
        return [_panel("fe57", causal, 1.0, fe57_siderite(), eit_grid,
                       ["input", "numeric", "total_eit"], ["time_trace", "eit_params"])]
    raise ValueError(
        f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _default_outdir() -> str:
    return os.environ.get("SLOWPHOTON_OUTDIR", ".")


def _report(errors, warnings, file=None):  # None: the current sys.stdout
    for e in errors:
        print(f"error: {e}", file=file)
    for w in warnings:
        print(f"warning: {w}", file=file)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slowphoton",
        description="Single-photon transmission through resonant and EIT absorbers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")

    p_fig = sub.add_parser("figure", help="run a named figure preset")
    p_fig.add_argument("preset", help=f"one of: {', '.join(PRESET_NAMES)}, or 'all'")
    p_fig.add_argument("--out", default=None, help="output directory")

    p_eit = sub.add_parser("eit-params", help="print EIT filter numbers for a config")
    p_eit.add_argument("config")

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")

    args = parser.parse_args(argv)
    out_dir = getattr(args, "out", None) or _default_outdir()

    if args.command in ("run", "eit-params", "validate"):
        try:
            sc = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "validate":
        errors, warnings = validate(sc)
        _report(errors, warnings)
        if errors:
            return 2
        print("ok")
        return 0

    if args.command == "eit-params":
        try:
            p = eit_params(sc.medium)
        except (TypeError, ValidityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(dataclasses.asdict(p), indent=2, sort_keys=True))
        return 0

    if args.command == "figure":
        names = PRESET_NAMES if args.preset == "all" else (args.preset,)
        try:
            scenarios = [s for name in names for s in figure_preset(name)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        scenarios = [sc]
    # run and figure: validate, then run, each scenario in turn
    written = {}
    for s in scenarios:
        errors, warnings = validate(s)
        _report(errors, warnings, file=sys.stderr)
        if errors:
            return 2
        try:
            written[s.name] = run_scenario(s, out_dir)["files"]
        except ConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    files = written if args.command == "figure" else written[sc.name]
    print(json.dumps(files, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
