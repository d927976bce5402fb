"""Workloads of the slowphoton benchmark: inputs, timed passes, output checks.

run.py starts this file once per benchmark run, in a process of its own,
with ``src`` on PYTHONPATH and the BLAS/OpenMP thread counts pinned to 1:

    python3 perfbench/workloads.py --workload sweep --seed 1 --seconds 15 \
        --trace 0 --work .perfbench_work/sweep

It builds the workload's inputs from the seed, runs one warm-up pass and
then timed passes until --seconds have gone by (at least MIN_PASSES).
Between items, each pass also times the workload's reference kernel,
which uses no slowphoton code, for REFERENCE_SHARE of the time its items
take, so that run.py can express pass times at a fixed reference speed of
the machine.
With --trace 1 it then runs the same number of seconds again with the
tracer installed.  Every item of every pass has its outputs checked; the
last line of stdout is one JSON object with the raw samples.

The library is driven through its public functions only:
``cli.load_config``, ``cli.validate``, ``cli.run_scenario`` and
``observables.thickness_scan``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy
from scipy import special
from scipy.integrate import quad

from slowphoton import cli, observables
from slowphoton.errors import TruncatedSupportWarning

import tracing

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
WORKLOADS = ("figures", "sweep", "scan")
MIN_PASSES = 3
REFERENCE_SHARE = 0.05    # reference kernel time over item time, in each pass

GOLDEN_TOL = 1e-12        # per value, relative above 1, as the acceptance suite
ORACLE_TOL = 1e-4         # numeric vs analytic_parts outside +-2 steps of tau = 0
PRECURSOR_TOL = 1e-5      # |b(tau < 0)| for a causal source
SCAN_TOL = 1e-12          # rounding slack on u_total(0) = 2 and u_total <= 2

CAUSAL, SYMMETRIC, ANTISYMMETRIC = "exponential_causal", "symmetric_part", "antisymmetric_part"

# Sweep media.  alpha0*l sets the oracle's frequency window, and with the
# grid size and span it sets the cost of the direct summation and of the
# beat integrals (whose oscillation count is 2*sqrt(alpha0*l*tau)).  These
# cost drivers sit at fixed levels, the grid size in the opposite order to
# alpha0*l, so a pass costs about the same whatever the seed; the seed
# draws the physics around them.  The top alpha0*l keeps the direct path
# bounded; see the sweep's reason in BENCHMARK.json.
SWEEP_MEDIA = {
    "matched": {"alpha0_l": (1.0, 40.0), "n_points": (101, 1200), "span": 18.0},
    "broad": {"alpha0_l": (20.0, 200.0), "n_points": (101, 800), "span": 16.0},
    "eit": {"alpha0_l": (20.0, 80.0), "n_points": (800, 1200), "span": 20.0},
}
SWEEP_PER_MEDIUM = 6
SCAN_MATCHED = 4          # scans of 3,001 thicknesses up to T_max <= 3,000
SCAN_BROAD = 64           # scans of 94 thicknesses: about 6,000 broad points (a multiple of 4)
SCAN_BROAD_POINTS = 94


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

@dataclass
class ScenarioItem:
    """One scenario: parsed (from a config file, if given), validated, run."""

    id: str
    checker: Callable[["ScenarioItem", Path, dict], list[str]]
    scenario: Optional[cli.Scenario] = None
    config: Optional[Path] = None
    spec: dict = field(default_factory=dict)

    def run(self, out_dir: Path) -> dict:
        sc = cli.load_config(self.config) if self.config is not None else self.scenario
        errors, _ = cli.validate(sc)
        if errors:
            raise ValueError("; ".join(errors))
        return cli.run_scenario(sc, out_dir)

    def check(self, out_dir: Path, manifest: dict) -> list[str]:
        return self.checker(self, out_dir, manifest)

    def digest(self, out_dir: Path, manifest: dict) -> str:
        h = hashlib.sha256()
        for name in sorted(manifest["files"].values()):
            h.update(name.encode())
            h.update((out_dir / name).read_bytes())
        return h.hexdigest()

    @staticmethod
    def bytes_written(out_dir: Path, manifest: dict) -> int:
        return sum((out_dir / name).stat().st_size for name in manifest["files"].values())


@dataclass
class ScanItem:
    """One thickness scan through observables.thickness_scan."""

    id: str
    kind: str
    delta_ph: float
    gamma_total: Optional[float]
    t_values: np.ndarray

    def run(self, out_dir: Path):
        return observables.thickness_scan(self.kind, self.delta_ph, self.gamma_total, self.t_values)

    def check(self, out_dir: Path, scan) -> list[str]:
        return check_scan(self.id, scan)

    def digest(self, out_dir: Path, scan) -> str:
        h = hashlib.sha256()
        for arr in (scan.u_s, scan.u_a, scan.u_total):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    @staticmethod
    def bytes_written(out_dir: Path, scan) -> int:
        return 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def compare_with_golden(path: Path, golden: Path) -> list[str]:
    """Problems of a CSV against its golden copy, 1e-12 per value."""
    if not golden.is_file():
        return [f"{path.name}: no golden file"]
    new, old = path.read_bytes(), golden.read_bytes()
    if new == old:
        return []
    new_lines, old_lines = new.decode().splitlines(), old.decode().splitlines()
    if new_lines[0] != old_lines[0]:
        return [f"{path.name}: header changed"]
    if len(new_lines) != len(old_lines):
        return [f"{path.name}: row count changed"]
    for ln, (a, b) in enumerate(zip(new_lines[1:], old_lines[1:]), start=2):
        for va, vb in zip(a.split(","), b.split(",")):
            try:
                fa, fb = float(va), float(vb)
            except ValueError:
                if va != vb:
                    return [f"{path.name}:{ln}: {va!r} != {vb!r}"]
                continue
            if not abs(fa - fb) <= GOLDEN_TOL * max(1.0, abs(fb)):
                return [f"{path.name}:{ln}: {va} differs from golden {vb}"]
    return []


def check_figure(item: ScenarioItem, out_dir: Path, manifest: dict) -> list[str]:
    problems = []
    for name in manifest["files"].values():
        if name.endswith(".csv"):
            problems += compare_with_golden(out_dir / name, GOLDEN_DIR / name)
    return problems


def read_trace(path: Path) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """tau and the complex amplitude of each method from a trace CSV."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    methods = [name[3:] for name in header if name.startswith("re_")]
    return cols["tau"], {m: cols[f"re_{m}"] + 1j * cols[f"im_{m}"] for m in methods}


def read_energies(path: Path) -> dict[str, float]:
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh.readlines()[1:]]
    return {row[0]: float(row[4]) for row in rows}


def check_sweep(item: ScenarioItem, out_dir: Path, manifest: dict) -> list[str]:
    """Oracle agreement, passivity and causality of one sweep scenario."""
    spec = item.spec
    tau, amp = read_trace(out_dir / manifest["files"]["time_trace"])
    problems = []
    if tau.size != spec["n_points"]:
        problems.append(f"{item.id}: {tau.size} rows for {spec['n_points']} grid points")
    if not all(np.all(np.isfinite(a)) for a in amp.values()):
        problems.append(f"{item.id}: non-finite amplitude")
    b = amp["numeric"]
    if spec["medium"] in ("matched", "broad"):
        spacing = (spec["t_end"] - spec["t_start"]) / (spec["n_points"] - 1)
        away = np.abs(tau) > 2 * spacing + 1e-12
        err = float(np.max(np.abs(b[away] - amp["analytic_parts"][away])))
        if not err <= ORACLE_TOL:
            problems.append(f"{item.id}: numeric vs analytic_parts {err:.3e} > {ORACLE_TOL:g}")
    if spec["source"] == CAUSAL:
        pre = float(np.max(np.abs(b[tau < 0]), initial=0.0))
        if not pre <= PRECURSOR_TOL:
            problems.append(f"{item.id}: causal precursor {pre:.3e} > {PRECURSOR_TOL:g}")
    energy = read_energies(out_dir / manifest["files"]["areas_and_energies"])
    if not energy["numeric"] <= energy["input"]:
        problems.append(
            f"{item.id}: output energy {energy['numeric']!r} > input energy {energy['input']!r}"
        )
    return problems


def check_scan(item_id: str, scan) -> list[str]:
    """Zero-thickness identity, non-negative parts, passivity, finiteness."""
    parts = (scan.u_s, scan.u_a, scan.u_total)
    if not all(np.all(np.isfinite(p)) for p in parts):
        return [f"{item_id}: non-finite energy"]
    problems = []
    if not abs(scan.u_total[0] - 2.0) <= SCAN_TOL:
        problems.append(f"{item_id}: u_total(0) = {scan.u_total[0]!r}, expected 2")
    if not (np.min(scan.u_s) >= 0.0 and np.min(scan.u_a) >= 0.0):
        problems.append(f"{item_id}: negative energy part")
    if not np.max(scan.u_total) <= 2.0 + SCAN_TOL:
        problems.append(f"{item_id}: u_total {np.max(scan.u_total)!r} > 2")
    return problems


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _levels(k: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """Midpoints of k equal strata of [lo, hi], in ascending order."""
    u = [(i + 0.5) / k for i in range(k)]
    return [lo * (hi / lo) ** x if log else lo + (hi - lo) * x for x in u]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def figures_items(seed: int, small: bool, work: Path) -> list[ScenarioItem]:
    """The eight paper presets; their inputs are fixed, so the seed is unused."""
    names = ("fig3b", "fig5") if small else cli.PRESET_NAMES
    return [
        ScenarioItem(id=sc.name, checker=check_figure, scenario=sc)
        for name in names
        for sc in cli.figure_preset(name)
    ]


def _sweep_spec(rng: random.Random, medium: str, alpha0_l: float, n_points: int, source: str) -> dict:
    """One scenario; rates are in units of delta_ph (two-level) or gamma_m (EIT)."""
    # The passivity check compares trapezoid energies on the grid.  The grid
    # starts at least 7.75 source decay times before tau = 0, so two-sided
    # sources keep all but ~1e-6 of their energy on it; EIT media transmit
    # up to ~90%, so their grids also resolve the source (spacing*delta_ph
    # <= 0.05).  The closed forms cost one quad per sample after tau = 0, so
    # t_start varies little.
    span = SWEEP_MEDIA[medium]["span"]
    delta = _log_uniform(rng, 1.0, 2.0) if medium == "eit" else 1.0
    t_start = -rng.uniform(7.75, 8.25)
    spec = {
        "medium": medium, "source": source, "n_points": n_points,
        "t_start": t_start, "t_end": t_start + span,
    }
    if medium == "matched":
        spec.update(delta_ph=delta, gamma=delta, thickness=alpha0_l)
        spec["methods"] = ["input", "numeric", "analytic_parts"]
    elif medium == "broad":
        # T_b = alpha0*l/Gamma from 2 to 30
        gamma = _log_uniform(rng, max(1.5, alpha0_l / 30.0), min(20.0, alpha0_l / 2.0))
        spec.update(delta_ph=delta, gamma_total=gamma, thickness=alpha0_l / gamma)
        spec["methods"] = ["input", "numeric", "analytic_parts"]
    else:
        gamma = _log_uniform(rng, 6.0, 12.0)
        # every coupling validate accepts, from sqrt(gamma_m*Gamma) up to
        # 1.5*Gamma; for Gamma >= 6 the critical coupling (Gamma - gamma_m)/2
        # lies inside this range
        omega = _log_uniform(rng, math.sqrt(gamma), 1.5 * gamma)
        spec.update(
            delta_ph=delta, gamma_total=gamma, gamma_m=1.0, omega=omega,
            thickness=alpha0_l / gamma,
        )
        spec["methods"] = ["input", "numeric", "total_eit"]
    return spec


def _config_text(name: str, spec: dict) -> str:
    keys = {
        "matched": ("gamma", "thickness"),
        "broad": ("gamma_total", "thickness"),
        "eit": ("gamma_total", "gamma_m", "omega", "thickness"),
    }[spec["medium"]]
    lines = [
        f"name = {name}",
        f"reference_rate = {'gamma_m' if spec['medium'] == 'eit' else 'delta_ph'}",
        f"source.kind = {spec['source']}",
        f"source.delta_ph = {spec['delta_ph']!r}",
        f"medium.kind = {spec['medium']}",
        *(f"medium.{k} = {spec[k]!r}" for k in keys),
        f"grid.t_start = {spec['t_start']!r}",
        f"grid.t_end = {spec['t_end']!r}",
        f"grid.n_points = {spec['n_points']}",
        f"methods = {', '.join(spec['methods'])}",
        "outputs = time_trace, areas_and_energies",
    ]
    return "\n".join(lines) + "\n"


def sweep_items(seed: int, small: bool, work: Path) -> list[ScenarioItem]:
    """Seeded custom scenarios, written as config files under work/configs."""
    rng = random.Random(seed)
    per_medium = 1 if small else SWEEP_PER_MEDIUM
    config_dir = work / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for medium, ranges in SWEEP_MEDIA.items():
        thick = _levels(per_medium, *ranges["alpha0_l"], log=True)
        grids = _levels(per_medium, *ranges["n_points"])[::-1]
        sources = [(CAUSAL, SYMMETRIC, ANTISYMMETRIC)[i % 3] for i in range(per_medium)]
        rng.shuffle(sources)
        for i in range(per_medium):
            spec = _sweep_spec(rng, medium, thick[i], round(grids[i]), sources[i])
            name = f"sweep_{medium}_{i}"
            path = config_dir / f"{name}.cfg"
            path.write_text(_config_text(name, spec))
            items.append(ScenarioItem(id=name, checker=check_sweep, config=path, spec=spec))
    return items


def scan_items(seed: int, small: bool, work: Path) -> list[ScanItem]:
    """Matched scans up to T = 3,000 and broad scans over Gamma/delta_ph and T_max.

    A broad scan's cost is set by its Gamma/delta_ph and T_max, both at fixed
    levels; the seed pairs them and draws delta_ph.
    """
    rng = random.Random(seed)
    n_matched, n_broad = (1, 4) if small else (SCAN_MATCHED, SCAN_BROAD)
    matched_points, broad_points = (101, 20) if small else (3001, SCAN_BROAD_POINTS)
    items = []
    for i, t_max in enumerate(_levels(n_matched, 500.0, 3000.0)):
        delta = _log_uniform(rng, 0.5, 2.0)
        items.append(
            ScanItem(f"scan_matched_{i}", "matched", delta, None, np.linspace(0.0, t_max, matched_points))
        )
    # Each block of four neighbouring T_max levels gets one Gamma/delta_ph
    # from each quarter of the ratio range (the low ratios cost most), so
    # the costliest scans, and item_p95_norm_s with them, hardly depend on how
    # the seed pairs the two.
    ratios = _levels(n_broad, 1.2, 100.0, log=True)
    per_quarter = n_broad // 4
    quarters = [rng.sample(ratios[q * per_quarter:(q + 1) * per_quarter], per_quarter) for q in range(4)]
    paired = []
    for b in range(per_quarter):
        block = [quarter[b] for quarter in quarters]
        rng.shuffle(block)
        paired += block
    for i, t_max in enumerate(_levels(n_broad, 10.0, 3000.0, log=True)):
        delta = _log_uniform(rng, 0.5, 2.0)
        items.append(
            ScanItem(
                f"scan_broad_{i}", "broad", delta, paired[i] * delta,
                np.linspace(0.0, t_max, broad_points),
            )
        )
    return items


BUILDERS = {"figures": figures_items, "sweep": sweep_items, "scan": scan_items}


# ---------------------------------------------------------------------------
# reference kernels
# ---------------------------------------------------------------------------
# They call no slowphoton code, so no change to the library moves them,
# while the machine's speed does: other tenants of a shared host slow them
# and the workloads alike.  They do not slow every kind of code alike,
# though: over six sweep runs on a 2-vCPU VM the quad kernel's mean time
# ranged over 1.10-1.77 ms, the stream kernel's over 1.59-2.10 ms, and the
# sweep's passes followed the stream kernel.  So each workload's reference
# repeats the two kinds of work in the proportion its traced run spends on
# them.

def quad_kernel() -> float:
    """About a millisecond of adaptive quad over Python callbacks of math
    and scipy.special, the mix of the beat and Bessel integrals."""
    total = 0.0
    for tb in (5.0, 20.0, 80.0):
        val, _ = quad(
            lambda x: math.exp(-2.6 * (tb - x)) * special.i0e(x),
            0.0, tb, epsabs=1e-12, epsrel=1e-11, limit=400,
        )
        total += val
    val, _ = quad(
        lambda x: math.cos(7.0 * x) * math.exp(-0.05 * x) * special.i0e(x),
        0.0, 40.0, epsabs=1e-12, epsrel=1e-11, limit=400,
    )
    return total + val


_PHASE = np.exp(-1j * np.linspace(0.0, 3.0e3, 1 << 17))
_STEP = np.exp(-1j * np.linspace(0.0, 0.3, 1 << 17))


def stream_kernel() -> complex:
    """About a millisecond of rotation-vector summation over a 2 MB complex
    array, the oracle's direct summation at the sweep's frequency counts."""
    phase = _PHASE.copy()
    total = 0j
    for _ in range(4):
        total += phase.sum()
        phase *= _STEP
    return total


# figures spends about half its time in the closed forms' quad and a third
# streaming the oracle's frequency lattices; sweep spends 84% in the direct
# summation; scan spends nearly all of it in observables' quad.
REFERENCE_KERNELS = {
    "figures": (quad_kernel, quad_kernel, stream_kernel),
    "sweep": (stream_kernel,),
    "scan": (quad_kernel,),
}


def time_reference(kernels) -> float:
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class PassResult:
    times: list[float]
    reference_times: list[float]
    digests: dict[str, str]
    manifests: list[dict]
    bytes_written: int


def run_pass(
    items,
    reference: tuple,
    out_dir: Path,
    tally: Tally,
    expected: Optional[dict[str, str]] = None,
    tracer: Optional[tracing.Tracer] = None,
) -> PassResult:
    """Run every item once; only the library calls are timed, not the checks.

    With `expected` digests (from the warm-up pass) an item whose outputs
    are not byte-identical to them fails, traced or not.  Before each item
    the `reference` kernels are timed at least once, and then until their
    total time reaches REFERENCE_SHARE of the pass's item time so far, so
    their samples spread over the pass in proportion to the item time.
    """
    result = PassResult([], [], {}, [], 0)
    for item in items:
        result.reference_times.append(time_reference(reference))
        while sum(result.reference_times) < REFERENCE_SHARE * sum(result.times):
            result.reference_times.append(time_reference(reference))
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out = item.run(out_dir)
        except Exception as exc:  # a failing item is counted and the pass goes on
            result.times.append(time.perf_counter() - t0)
            tally.record([f"{item.id}: {type(exc).__name__}: {exc}"])
            continue
        result.times.append(time.perf_counter() - t0)
        try:
            problems = item.check(out_dir, out)
            digest = item.digest(out_dir, out)
            result.bytes_written += item.bytes_written(out_dir, out)
        except Exception as exc:  # an unreadable output fails its check
            tally.record([f"{item.id}: check raised {type(exc).__name__}: {exc}"])
            continue
        if expected is not None and expected.get(item.id) != digest:
            problems.append(f"{item.id}: outputs differ from the warm-up pass")
        tally.record(problems)
        result.digests[item.id] = digest
        if isinstance(out, dict):
            result.manifests.append(out)
    return result


def run_for(seconds: float, min_passes: int, step: Callable[[], PassResult]) -> list[PassResult]:
    passes: list[PassResult] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        passes.append(step())
    return passes


def _median_layers(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the tests")
    args = parser.parse_args(argv)

    # sweep grids may end before the envelope has decayed; the energies
    # are still compared on the same grid, so the warning carries nothing
    warnings.filterwarnings("ignore", category=TruncatedSupportWarning)
    out_dir = args.work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    items = BUILDERS[args.workload](args.seed, args.small, args.work)
    min_passes = 1 if args.small else MIN_PASSES
    tally = Tally()

    reference = REFERENCE_KERNELS[args.workload]
    warm = run_pass(items, reference, out_dir, tally)
    passes = run_for(
        args.seconds, min_passes, lambda: run_pass(items, reference, out_dir, tally, warm.digests)
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_item_s": [p.times for p in passes],
        "pass_reference_s": [p.reference_times for p in passes],
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.wrap_table())
        layers = []

        def traced_pass():
            offset = len(tracer.spans)
            p = run_pass(items, reference, out_dir, tally, warm.digests, tracer)
            layers.append(tracing.layer_metrics(tracer.spans, offset, p.manifests, p.bytes_written))
            return p

        try:
            traced = run_for(args.seconds, min_passes, traced_pass)
        finally:
            tracer.uninstall()
        tracer.write(args.work / "spans.jsonl")
        record["traced_pass_item_s"] = [p.times for p in traced]
        record["traced_pass_reference_s"] = [p.reference_times for p in traced]
        record["layers"] = _median_layers(layers)

    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems[:20],
        peak_rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
