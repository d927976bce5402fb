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
variable.  Exit codes: 1 config parse error or a file that cannot be read or
written, 2 validation error, 3 numerical non-convergence: the oracle's two
lattice levels drift apart, or its closed-form subtraction loses too much to
round-off.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
    _truncation,
    integrated_intensity,
    pulse_area,
    thickness_scan,
)
from .propagate import (
    _check_beat_work,
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
    spectral_lattice,
    total_eit,
)
from .waveforms import (
    PART_WEIGHTS, PhotonWaveform, TimeGrid, TimeSeries, WaveformKind, _from_parts, sample, time_amplitude,
)

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

    media None accepts any medium or none.  check(source, medium, grid)
    raises ValidityError outside the method's validity regime, ConvergenceError
    where it cannot run; compute(source, medium, grid) builds the TimeSeries.
    Library functions are looked up when called, so a wrapper set on this
    module's attribute sees each call.
    """

    media: Optional[tuple[type, ...]]
    sources: frozenset
    compute: Callable[..., TimeSeries]
    check: Optional[Callable] = None


def _closed(amplitude: Callable) -> Callable[..., TimeSeries]:
    """compute() wrapping amplitude(source, medium, tau) in a TimeSeries."""
    return lambda w, a, grid: TimeSeries(grid, amplitude(w, a, grid.times()))


def _check_matched(w, a, grid):
    if not math.isclose(a.gamma, w.delta_ph, rel_tol=1e-12):
        raise ValidityError(
            "assumes the matched condition gamma == delta_ph "
            f"(got gamma={a.gamma}, delta_ph={w.delta_ph})"
        )


def _check_parts(w, a, grid):
    d = w.delta_ph
    if isinstance(a, MatchedLine):
        _check_matched(w, a, grid)
        _check_beat_work(d, d, a.thickness * d, grid)
    else:
        _check_broad(d, a.gamma_total)
        _check_beat_work(d, a.gamma_total, a.thickness * a.gamma_total, grid)


def _check_eit(w, a, grid):
    eit_params(a)


def _check_total_eit(w, a, grid):
    eit_params(a)
    _check_nonadiabatic(w.delta_ph, a.gamma_total)
    _check_beat_work(w.delta_ph, a.gamma_total, a.alpha0_l, grid)


def _open_window(medium) -> Optional[EitParams]:
    """EIT filter numbers of an EIT medium whose window is open, else None."""
    try:
        return eit_params(medium) if isinstance(medium, EitMedium) else None
    except ValidityError:
        return None


def _numeric(w, a, grid) -> TimeSeries:
    """propagate_numeric's trace, kept for the last (source, medium, grid).

    Grids whose bounds differ only in the sign of a zero are equal and share
    one trace, whose samples do not depend on that sign.  Each call gets its
    own grid, samples and convergence record; a wrapper set on this module's
    propagate_numeric sees each call that computes.
    """
    kept = _kept_trace(w, a, grid)
    return TimeSeries(grid, kept.amplitude.copy(), dict(kept.convergence))


@functools.lru_cache(maxsize=1)
def _kept_trace(w, a, grid) -> TimeSeries:
    return propagate_numeric(w, a, grid)


def _parts(w, a, tau):
    if isinstance(a, MatchedLine):
        return _from_parts(w.kind, *analytic_parts_matched(w.delta_ph, a.thickness, tau))
    return _from_parts(w.kind, *analytic_parts_broad(w.delta_ph, a.gamma_total, a.thickness, tau))


METHODS: dict[str, Method] = {
    "input": Method(None, ALL_SOURCES, lambda w, a, grid: sample(w, grid)),
    "numeric": Method(
        None, ALL_SOURCES, _numeric,
        lambda w, a, grid: spectral_lattice(w, a, grid, 1),  # level 1, the larger and last a run fills
    ),
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
        lambda w, a, grid: _check_broad(w.delta_ph, a.gamma_total),
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
        lambda w, a, grid: _gaussian_eta(w.delta_ph, a.gamma_total, a.thickness),
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
# outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Output:
    """One output kind: file suffix, whether it runs the methods, text, precondition, advice.

    text(scenario, traces, manifest) returns the file's bytes (and may add
    to the manifest), looking library functions up when called, as METHODS do;
    check(scenario) returns validate's refusal, None if the output can be written;
    warn(scenario) returns validate's advice on the scenario's numbers, a list of str.
    """

    suffix: str
    traces: bool
    text: Callable[..., bytes]
    check: Callable[["Scenario"], Optional[str]] = lambda sc: None
    warn: Callable[["Scenario"], list[str]] = lambda sc: []


# CSV text.  Each number becomes a cell of four little-endian uint64 words (32 bytes)
# whose NUL bytes are dropped when the file is assembled: byte 0 holds the sign, 1-5
# "0.000", 6 the first of the 17 digits of a decimal integer, 7 a point, 8-23 the other
# digits, 24-30 the exponent and 31 the separator.  A point after a later digit is put
# in by shifting the digits past it one byte up, the last into byte 24.  Masks picked by
# digit count and point place keep the bytes of repr's text.
_MARGIN = 1e-9  # in units of the 17-digit integer, whose computed error is below 1e-14
_BREAK_EVEN = 300  # fewer numbers per call than this are faster through repr
_TEXT_BLOCK = 2**14  # numbers per _cells call, about 4 MB of scratch
_P0, _E0 = 240, 260  # table rows of 10**0 and of exponent 0
_WORD = np.dtype("<u8")  # a cell word, little-endian on every platform


@functools.cache
def _text_tables():
    """_cells' tables, built on first use: 10**p for p in [-240, 270] as hi + lo, the powers
    10**t in int64, four digits, exponent text, the masks of words 0-3 and 1-3, the point
    in words 1-3, and the first word by sign and first digit."""
    def pow10(p):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den
        a, b = hi.as_integer_ratio()
        return hi, (num * b - a * den) / (den * b)

    hi, lo = np.array([pow10(p) for p in range(-_P0, 271)]).T
    d = np.arange(10**4, dtype=np.uint64)
    quad = sum((48 + d // 10**(3 - i) % 10) << np.uint64(8 * i) for i in range(4))
    exps = np.array([f"e{e:+03d}".ljust(7, "\0") + "," for e in range(-_E0, _E0 + 1)], "S8").view(_WORD)
    # by digit count, then point place -3..16 or the exponent form (17): the bytes kept in
    # place, the bytes kept one byte up, and the point
    masks = np.zeros((3, 17, 21, 32), np.uint8)
    masks[0, ..., [0, 6, 31]] = 0xFF
    for n in range(1, 18):
        for decpt in range(-3, 18):
            keep, up, point = masks[:, n - 1, decpt + 3]
            digits = max(n, decpt + 1) if 0 < decpt < 17 else n  # repr writes a digit past the point
            moved = 2 <= decpt <= 16
            keep[8:7 + (decpt if moved else digits)] = 0xFF  # digits 2.. at 8..
            if moved:  # the digits past the point one byte up, the point in their place
                up[8 + decpt:8 + digits] = 0xFF
                point[7 + decpt] = ord(".")
            if decpt <= 0:  # "0." and -decpt zeros
                keep[1:3 - decpt] = 0xFF
            keep[7] = 0xFF * (decpt == 1 or decpt == 17 and n > 1)
            keep[24:31] = 0xFF * (decpt == 17)
    keep, up, point = masks.reshape(3, -1, 32).view(_WORD)
    heads = np.array([f"{sign}0.000{digit}." for sign in "\0-" for digit in range(10)], "S8").view(_WORD)
    return hi, lo, 10 ** np.arange(17, dtype=np.int64), quad, exps, keep, up[:, 1:], point[:, 1:], heads


def _scaled(v, p, hi, lo):
    """v*10**p as an int64 N and a fraction f: Dekker's exact product by 10**p's hi
    (halves split off by 2**27 + 1, no fused multiply-add), plus v times its lo."""
    h = hi[p + _P0]
    prod = v * h
    s = v * 134217729.0
    vh = s - (s - v)
    s = h * 134217729.0
    hh = s - (s - h)
    err = ((vh * hh - prod) + vh * (h - hh) + (v - vh) * hh) + (v - vh) * (h - hh) + v * lo[p + _P0]
    y = prod + err
    frac = err - (y - prod)
    whole = np.floor(frac)
    return y.astype(np.int64) + whole.astype(np.int64), frac - whole


def _cells(x) -> np.ndarray:
    """repr's text of each value of a float array, as (n, 4) uint64 cells ending in ','.

    The digits of x != 0 are those of y = |x|*10**p in [1e16, 1e17), a double-double:
    of the largest 10**t with a multiple inside the rounding interval [x - ulp-/2,
    x + ulp/2], the nearer multiple.  A value with a decision within _MARGIN of its
    threshold (among them every interval end on a multiple, whose inclusion depends on
    the mantissa's parity, and every exact tie), a value that is not finite or whose
    magnitude is outside [1e-250, 1e250], and every value of a call on fewer than
    _BREAK_EVEN numbers, go to repr.
    """
    if x.size < _BREAK_EVEN:
        return _repr_cells(x)
    hi, lo, p10, quad, exps, keep, up, point, heads = _text_tables()
    ax = np.abs(x)
    zero = ax == 0
    slow = ~((ax >= 1e-250) & (ax <= 1e250) | zero)
    v = np.where(slow | zero, 1.0, ax)
    fr, e = np.frexp(v)  # v = fr * 2**e, fr in [0.5, 1)
    p = 16 - np.floor(np.log10(v)).astype(np.int64)
    N, f = _scaled(v, p, hi, lo)
    off = np.flatnonzero((N < 10**16) | (N >= 10**17))  # log10 rounded across a power of ten
    if off.size:
        p[off] += np.where(N[off] < 10**16, 1, -1)
        N[off], f[off] = _scaled(v[off], p[off], hi, lo)
    U = np.ldexp(hi[p + _P0], e - 54)  # the interval's halves, in units of y
    L = np.where(fr == 0.5, U / 2, U)  # narrower below a power of two

    def gaps(t):
        # gaps of the floor and ceiling multiples of 10**t to the interval's ends (< 0:
        # inside), of y to their midpoint, N // 10**t, N mod 10**t; near 0, repr decides
        P = p10[t]
        K = N // P
        q = N - K * P
        qf = q + f
        g = np.array([qf - L, (P - q) - f - U, 2 * qf - P])
        slow[(np.abs(g) < _MARGIN).any(0)] = True
        return g[:2] < 0, g[2], K, q

    in2, _, _, q2 = gaps(2)
    t = gaps(1)[0].any(0).astype(np.int64)
    short = np.flatnonzero(in2.any(0) & ~zero)
    if short.size:
        # the interval is under 23 wide, so the one multiple M of 100 in it ends the
        # digits: t is its trailing zeros up to 16, 1 + those of M // 10 up to 15 taken
        # 8, 4, 2 and 1 at a time
        M, zeros = (N - q2 + 100 * ~in2[0])[short] // 10, 1
        for s in (8, 4, 2, 1):
            K = M // 10**s
            hit = K * 10**s == M
            M = np.where(hit, K, M)
            zeros = zeros + s * hit
        t[short] = zeros
    (low_in, high_in), mid, K, _ = gaps(t)
    D = np.where(zero, 0, (K + (high_in & ~(low_in & (mid < 0)))) * p10[t])
    top = D == 10**17
    D[top] = 10**16
    n = np.where(zero | top, 1, 17 - t)
    decpt = np.where(zero, 1, 17 - p + top)  # |x| = 0.d1d2... * 10**decpt
    lead, mid8 = D // 10**16, D // 10**8
    plain = np.empty((x.size, 4), _WORD)
    plain[:, 0] = heads[np.signbit(x) * 10 + lead]
    for w, part in enumerate((mid8 - lead * 10**8, D - mid8 * 10**8), 1):
        top4 = part // 10**4
        plain[:, w] = quad[top4] | quad[part - top4 * 10**4] << np.uint64(32)
    plain[:, 3] = exps[decpt + (_E0 - 1)]  # |decpt - 1| <= 250
    form = (n - 1) * 21 + np.where((decpt < -3) | (decpt > 16), 20, decpt + 3)
    cells = plain & np.take(keep, form, axis=0)
    later = np.flatnonzero((decpt >= 2) & (decpt <= 16))  # a point after a later digit
    if later.size:  # the digits past it one byte up, the last into byte 24, and the point
        w1, w2 = plain[later, 1], plain[later, 2]
        shifted = np.column_stack([w1 << np.uint64(8), w2 << np.uint64(8) | w1 >> np.uint64(56), w2 >> np.uint64(56)])
        cells[later, 1:] |= shifted & np.take(up, form[later], axis=0) | np.take(point, form[later], axis=0)
    if slow.any():
        cells[slow] = _repr_cells(x[slow])
    return cells


def _repr_cells(x) -> np.ndarray:
    """_cells made by repr, one call per value."""
    cells = np.zeros((x.size, 32), np.uint8)
    cells[:, 0] = np.where(np.signbit(x) & ~np.isnan(x), 45, 0)
    cells[:, 1:31] = np.array(list(map(repr, np.abs(x).tolist())), "S30").view(np.uint8).reshape(-1, 30)
    cells[:, 31] = 44
    return cells.view(_WORD)


def _text_cells(texts) -> np.ndarray:
    """Cells of ASCII text, one per row: the text, NUL padding, ',' in the last byte."""
    width = 8 * (max(map(len, texts)) // 8 + 1)
    return np.array([s.ljust(width - 1, "\0") + "," for s in texts], f"S{width}").view(_WORD).reshape(len(texts), -1)


def _csv(header: list[str], columns, unsigned=(), keep=None) -> bytes:
    """CSV bytes of equal-length columns, each number written as repr writes it.

    A column is a float64 array, its `_cells`, one str for every row, or a list of str,
    one per row.  The distinct arrays are formatted in one `_cells` call per block of
    rows; columns whose index is in `unsigned` drop the leading '-', which makes
    repr(abs(x)) of every float.  A list `keep` takes the first column's cells, read-only,
    when that column is an array.
    """
    arrays = {id(c): c for c in columns if isinstance(c, np.ndarray) and c.dtype == float}
    index = {key: i for i, key in enumerate(arrays)}
    text = {i: _text_cells([c] if isinstance(c, str) else c) for i, c in enumerate(columns) if isinstance(c, (str, list))}
    n = len(next(c for c in columns if not isinstance(c, str)))
    widths = [text[i].shape[1] if i in text else 4 for i in range(len(columns))]
    chunks = [(",".join(header) + "\n").encode()]
    step = max(1, _TEXT_BLOCK // max(1, len(arrays)))
    firsts = []
    for start in range(0, n, step):
        rows = slice(start, min(n, start + step))
        if arrays:
            block = np.column_stack([a[rows] for a in arrays.values()])
            cells = _cells(block.ravel()).reshape(block.shape + (4,))
            firsts.append(cells[:, 0])
        mat = np.empty((rows.stop - start, sum(widths)), _WORD)
        at = 0
        for i, (c, w) in enumerate(zip(columns, widths)):
            if i in text:
                mat[:, at:at + w] = text[i][rows] if len(text[i]) > 1 else text[i]
            else:
                mat[:, at:at + w] = cells[:, index[id(c)]] if id(c) in index else c[rows]
            if i in unsigned:
                mat[:, at] &= ~np.uint64(0xFF)
            at += w
        mat[:, -1] ^= np.uint64((ord(",") ^ ord("\n")) << 56)  # the row ends its last cell
        chunks.append(mat.tobytes().translate(None, b"\0"))
    if keep is not None and id(columns[0]) in index:
        keep.append(np.concatenate(firsts))
        keep[-1].flags.writeable = False
    return b"".join(chunks)


@functools.lru_cache(maxsize=1)
def _tau_text(bits: bytes) -> list:
    """A list for the cells of the last grid's tau, keyed by its bytes (signed zeros print
    apart): presets share grids, and the first file on a grid formats tau with its other
    columns and leaves the cells here."""
    return []


def _trace_text(sc, traces, manifest) -> bytes:
    tau = sc.grid.times()
    kept = _tau_text(tau.tobytes())
    header, cols = ["tau"], [kept[0] if kept else tau]
    for m in sc.methods:
        header += [f"re_{m}", f"im_{m}", f"abs_{m}"]
        # im_* stays in the format, always 0; repr(abs(x)) is repr(x) without its sign
        cols += [traces[m].amplitude, "0.0", traces[m].amplitude]
    return _csv(header, cols, unsigned=range(3, len(cols), 3), keep=kept)


def _scan_text(sc, traces, manifest) -> bytes:
    manifest["derived"]["scan_normalization"] = SCAN_NORMALIZATION
    gamma = sc.medium.linewidth if sc.medium is not None else None
    scan = thickness_scan(sc.scan.kind, sc.source.delta_ph, gamma, sc.scan.values())
    cols = [scan.thickness_values, scan.u_s, scan.u_a, scan.u_total, scan.beer_reference]
    return _csv(["thickness", "u_s", "u_a", "u_total", "beer_reference"], cols)


def _check_scan(sc) -> Optional[str]:
    scan, med = sc.scan, sc.medium
    if scan is None:
        return "thickness_scan output requires scan.* keys"
    if not (math.isfinite(scan.t_min) and math.isfinite(scan.t_max)):
        return f"scan.t_min and scan.t_max must be finite (got {scan.t_min}, {scan.t_max})"
    if scan.t_min < 0:
        return f"scan.t_min must be >= 0 (got {scan.t_min})"
    if scan.n_points < 1:
        return f"scan.n_points must be >= 1 (got {scan.n_points})"
    if scan.n_points > MAX_SCAN_POINTS:
        return f"scan.n_points must be <= {MAX_SCAN_POINTS} (got {scan.n_points})"
    if np.any(np.diff(scan.values()) <= 0):  # thickness_scan's own refusal
        return (f"scan.t_max must exceed scan.t_min for {scan.n_points} points "
                f"(got {scan.t_min}, {scan.t_max})")
    if scan.kind not in ("matched", "broad"):
        return f"unknown scan.kind {scan.kind!r}"
    if scan.kind == "broad":
        if not isinstance(med, (BroadLine, EitMedium)):
            return "broad thickness scan needs a broad-line medium for Gamma"
        try:
            _check_broad(sc.source.delta_ph, med.linewidth)
        except ValidityError as exc:
            return f"thickness_scan: {exc}"


def _check_eit_output(sc) -> Optional[str]:
    if not isinstance(sc.medium, EitMedium):
        return "eit_params output requires an EIT medium"
    try:  # the EIT methods' guard, so the refusal names its cause
        _check_eit(sc.source, sc.medium, sc.grid)
    except ValidityError as exc:
        return f"eit_params output: {exc}"


def _areas_text(sc, traces, manifest) -> bytes:
    rows = []
    for m in sc.methods:
        area = pulse_area(traces[m])
        rows.append((area, 0.0, abs(area), integrated_intensity(traces[m])))
    return _csv(["method", "area_re", "area_im", "area_abs", "energy"], [list(sc.methods), *np.array(rows).T])


# delta_ph*spacing = h above which the trapezoid areas and energies can be off by more than
# 1%: the energy of e**(-delta_ph*|tau|) sampled at its peak is h*coth(h) - 1, about h**2/3,
# too high, the worst of the grid's offsets.  A jump on the grid adds up to about h below the
# bound too: the causal source, and the antisymmetric part where tau = 0 is a sample (fig6b's
# causal input energy, at h = 0.1, is 4.7% low)
_RESOLVED_STEP = 0.17


def _warn_areas(sc) -> list[str]:
    # the time integrals' own test on the source's samples at the grid's ends; a grid cut
    # changes no other number, the oracle sizes its period from the medium, not from the grid
    tail = _truncation(time_amplitude(sc.source, [sc.grid.t_start, sc.grid.t_end]))
    advice = [] if tail is None else [tail]
    if (step := sc.source.delta_ph * sc.grid.spacing) > _RESOLVED_STEP:
        advice.append(f"delta_ph*spacing = {step:.3g} exceeds {_RESOLVED_STEP}: the trapezoid areas and "
                      "energies can be off by more than 1%, and by up to about delta_ph*spacing where the "
                      "source jumps at tau = 0; refine the grid")
    return advice


OUTPUTS: dict[str, Output] = {
    "time_trace": Output("_trace.csv", True, _trace_text),
    "thickness_scan": Output("_scan.csv", False, _scan_text, _check_scan),
    "eit_params": Output("_eit_params.json", False, lambda sc, traces, manifest: (json.dumps(
        manifest["derived"]["eit_params"], indent=2, sort_keys=True) + "\n").encode(), _check_eit_output),
    "areas_and_energies": Output("_areas.csv", True, _areas_text, warn=_warn_areas),
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
    if key not in flat:
        raise ConfigError(f"missing required key {key!r}")
    value = flat[key]
    if isinstance(value, bool):  # a JSON true or false, which float() takes as 1 or 0
        raise ConfigError(f"key {key!r}: not a number: {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r}: not a number: {value!r}") from None


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
    except ConfigError:  # a parser's, which names its key and so the section
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


MEDIA = {"matched": MatchedLine, "broad": BroadLine, "eit": EitMedium}


def load_config(path) -> Scenario:
    """Parse a scenario from flat key=value text or a JSON object, read as UTF-8 (a leading byte-order mark dropped)."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
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

def _unknown(what: str, name: str, table: dict) -> str:
    return f"unknown {what} {name!r}; valid: {', '.join(table)}"


def _runs_methods(sc: Scenario) -> bool:
    return any(OUTPUTS[o].traces for o in sc.outputs if o in OUTPUTS)


def validate(sc: Scenario) -> tuple[list[str], list[str]]:
    """Check every method/output precondition without running anything.

    Returns (errors, warnings); empty errors means the scenario can run.
    """
    errors: list[str] = []
    warnings: list[str] = []
    med = sc.medium
    kind = sc.source.kind

    # the name prefixes every output file, which must stay in the output directory
    if sc.name in ("", ".", "..") or any(c and c in sc.name for c in ("/", os.sep, os.altsep, "\0")):
        errors.append(f"name {sc.name!r} must be a plain file name")
    if _runs_methods(sc) and not sc.methods:
        errors.append("methods must be nonempty for time_trace outputs")
    for what, listed in (("method", sc.methods), ("output", sc.outputs)):
        errors += [f"{what} {n!r} is listed more than once"
                   for n in dict.fromkeys(listed) if listed.count(n) > 1]
    errors += [_unknown("output", o, OUTPUTS) for o in dict.fromkeys(sc.outputs) if o not in OUTPUTS]
    for m in dict.fromkeys(sc.methods):
        method = METHODS.get(m)
        if method is None:
            errors.append(_unknown("method", m, METHODS))
            continue
        if method.media is not None and not isinstance(med, method.media):
            names = " or ".join(cls.__name__ for cls in method.media)
            errors.append(f"method {m!r} requires a {names} medium")
        elif method.check is not None:
            try:
                method.check(sc.source, med, sc.grid)
            except (ValidityError, ConvergenceError) as exc:
                errors.append(f"method {m!r}: {exc}")
        if kind not in method.sources:
            takes = ", ".join(k.value for k in WaveformKind if k in method.sources)
            errors.append(f"method {m!r} does not take the {kind.value} source (takes {takes})")
    errors += [e for o, out in OUTPUTS.items() if o in sc.outputs and (e := out.check(sc)) is not None]

    # grid advice samples the grid, so an oversized one is refused first;
    # it is given only where an output runs the methods on the grid
    if sc.grid.n_points > MAX_GRID_POINTS:
        errors.append(f"grid.n_points must be <= {MAX_GRID_POINTS} (got {sc.grid.n_points})")
    if sc.grid.n_points > MAX_GRID_POINTS or not _runs_methods(sc):
        return errors, warnings
    tau = sc.grid.times()
    if sc.grid.t_start < 0 < sc.grid.t_end and np.abs(tau).min() > 1e-12 * max(1.0, sc.grid.spacing):
        warnings.append("tau = 0 is not a grid sample; jump values will be offset")
    p = _open_window(med)
    if p is not None and sc.grid.t_end < (needed := p.t_d + 2.0 / p.delta_eff):
        warnings.append(
            f"grid ends at {sc.grid.t_end:g} before the delayed envelope "
            f"(group delay t_d = {p.t_d:.4g}, edge width 2/delta_eff); "
            f"extend t_end beyond {needed:.4g}"
        )
    warnings += [a for o, out in OUTPUTS.items() if o in sc.outputs for a in out.warn(sc)]
    return errors, warnings


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _write(path: Path, data: bytes) -> None:
    """Write data to path.

    An existing file is overwritten in place and cut to length after the
    write, not truncated first: on ext4 a truncate-first rewrite
    (`Path.write_text`) makes the close flush the file's data.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as f:
        f.write(data)
        f.truncate()


def run_scenario(sc: Scenario, out_dir) -> dict:
    """Execute a validated scenario; returns the manifest dictionary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = dataclasses.asdict(sc)
    scenario["reference_rate"] = scenario.pop("reference_rate_label")
    kind = "none" if sc.medium is None else type(sc.medium).__name__
    scenario["medium"] = {"kind": kind, **(scenario["medium"] or {})}
    manifest: dict = {
        "tool": {"name": "slowphoton", "version": __version__},
        "scenario": scenario,
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
    if _runs_methods(sc):
        for method in sc.methods:
            if method not in METHODS:
                raise ValueError(_unknown("method", method, METHODS))
            ts = METHODS[method].compute(sc.source, sc.medium, sc.grid)
            traces[method] = ts
            if ts.convergence is not None:
                manifest["convergence"][method] = ts.convergence

    for output in sc.outputs:
        if output not in OUTPUTS:
            raise ValueError(_unknown("output", output, OUTPUTS))
        path = out_dir / f"{sc.name}{OUTPUTS[output].suffix}"
        _write(path, OUTPUTS[output].text(sc, traces, manifest))
        manifest["files"][output] = path.name

    manifest_path = out_dir / f"{sc.name}_manifest.json"
    _write(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    manifest["files"]["manifest"] = manifest_path.name
    return manifest


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

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


_CAUSAL = WaveformKind.EXPONENTIAL_CAUSAL
_PARTS = (("symmetric", WaveformKind.SYMMETRIC_PART), ("antisymmetric", WaveformKind.ANTISYMMETRIC_PART))
_EIT = EitMedium(gamma_total=10.0, gamma_m=1.0, omega=20.0, thickness=30.0)
_EIT_GRID = TimeGrid(-2.0, 15.0, 1701)
_BROAD = BroadLine(gamma_total=10.0, thickness=10.0)


def _fig6(name, delta_ph):
    return [_panel(name, _CAUSAL, delta_ph, _EIT, _EIT_GRID, ["input", "numeric", "total_eit", "adiabatic_eit"],
                   ["time_trace", "eit_params", "areas_and_energies"])]


# each preset's panels (one per CSV), built on call, in `figure all`'s order.  Kept results hold
# the last call only, so panels that share a source, medium or grid sit next to each other: fig6a,
# fe57 and fig7 on one EIT medium and grid, fig6b on that grid after them
_PRESETS: dict[str, Callable[[], list[Scenario]]] = {
    "fig2": lambda: [_panel(f"fig2_{label}", kind, 1.0, MatchedLine(gamma=1.0, thickness=10.0),
                            TimeGrid(-4.0, 10.0, 1401), ["input", "analytic_parts", "numeric"])
                     for label, kind in _PARTS],
    "fig3a": lambda: [
        _panel("fig3a_total", _CAUSAL, 1.0, _BROAD, TimeGrid(-0.5, 2.5, 1501), ["input", "numeric", "approx_broad"]),
        _panel("fig3a_antisymmetric", WaveformKind.ANTISYMMETRIC_PART, 1.0, _BROAD, TimeGrid(-0.5, 2.5, 1501),
               ["input", "analytic_parts", "numeric"]),
    ],
    "fig3b": lambda: [_panel("fig3b", _CAUSAL, 1.0, _BROAD, TimeGrid(-1.0, 1.0, 11), [], ["thickness_scan"],
                             ScanSpec(kind="broad", t_min=0.0, t_max=10.0, n_points=41))],
    "fig5": lambda: [_panel("fig5", _CAUSAL, 0.1 * eit_params(_EIT).delta_eff, _EIT, TimeGrid(-0.5, 2.5, 1201),
                            ["phi_plus", "phi_plus_zero"])],
    "fig6a": lambda: _fig6("fig6a", 1.0),
    "fe57": lambda: [_panel("fe57", _CAUSAL, 1.0, fe57_siderite(), _EIT_GRID, ["input", "numeric", "total_eit"],
                            ["time_trace", "eit_params"])],
    "fig7": lambda: [_panel(f"fig7_{label}", kind, 1.0, _EIT, _EIT_GRID, ["input", "numeric", "total_eit"])
                     for label, kind in _PARTS],
    "fig6b": lambda: _fig6("fig6b", 10.0),
}
PRESET_NAMES = tuple(_PRESETS)


def figure_preset(name: str) -> list[Scenario]:
    """Scenarios reproducing the published figure panels (one per CSV)."""
    if name not in _PRESETS:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}"
        )
    return _PRESETS[name]()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    out_dir = getattr(args, "out", None) or os.environ.get("SLOWPHOTON_OUTDIR", ".")

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
        except OSError as exc:  # an output directory or file that cannot be made or written
            print(f"error: {exc}", file=sys.stderr)
            return 1
    files = written if args.command == "figure" else written[sc.name]
    print(json.dumps(files, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
