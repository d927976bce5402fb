"""slowphoton benchmark: one workload, one seed, one set of metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0

Workloads are ``figures``, ``sweep`` and ``scan``; BENCHMARK.json records
why each was chosen.  Nothing is built: the library runs from ``src/``.
Each run measures set-up in fresh interpreters, then starts one workload
process (workloads.py) with the BLAS/OpenMP thread counts pinned to 1,
which runs, times and checks the workload and reports its own peak RSS.

--trace 0 prints the end-to-end metrics:

    wall_norm_s      mean time of one warm pass, at reference speed
    item_p95_norm_s  95th percentile over items (scenarios or scans) of
                     each item's mean time, at reference speed
    peak_rss_mb      peak resident memory of the workload process
    setup_s          median time of a fresh interpreter running
                     `import slowphoton.cli`

"At reference speed" means a measured time scaled by
REFERENCE_NOMINAL_S / r, where r is the mean time of the workload's
reference kernel (workloads.REFERENCE_KERNELS, which run no slowphoton
code) over the samples taken between the items of the run's passes, 5%
of their time.  Other tenants of a shared host change the speed of a
core by up to 1.8x from one millisecond to the next, and its average
speed by 30-50% over minutes.  The mean of the kernel's samples follows
the average speed the items ran at, so the scaled times hold still while
the host drifts, and a change to the library moves them as much as the
raw ones.  The raw pass times are printed beside them and kept in the
result record.

--trace 1 prints the per-layer metrics of a separate traced run.  The
lines before the last one describe the run, its environment and sample
counts; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The full record also goes to
``.perfbench_work/<workload>/result-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("figures", "sweep", "scan")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
IMPORT_PACKAGES = ("slowphoton", "scipy", "numpy")
RUN_BUDGET_S = 170.0
REFERENCE_NOMINAL_S = 1e-3
E2E_UNITS = {"wall_norm_s": "s", "item_p95_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Self-time metrics compared to name the layer a workload spends most in.
SELF_TIME_NAMES = (
    "propagate.numeric_self_s",
    "propagate.quad_s",
    "media.spectral_response_s",
    "waveforms.spectral_amplitude_s",
    "rational.self_s",
    "observables.quad_s",
    "cli.self_s",
    "cli.parse_validate_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def fresh_import(env: dict, *flags: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running `import slowphoton.cli`, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import slowphoton.cli"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import slowphoton.cli failed:\n{proc.stderr}")
    return elapsed, proc.stderr


def import_self_times(stderr: str) -> dict[str, float]:
    """Self import time per top-level package from `python -X importtime` output."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        package = name.split(".")[0]
        if package in totals:
            totals[package] += int(self_us) * 1e-6
    return totals


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def at_reference_speed(pass_item_s: list[list[float]], pass_reference_s: list[list[float]]) -> list[list[float]]:
    """Item times of every pass, scaled by the reference kernel's mean time over the run."""
    scale = REFERENCE_NOMINAL_S / statistics.fmean(t for ref in pass_reference_s for t in ref)
    return [[t * scale for t in times] for times in pass_item_s]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def highest_tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return math.floor(100 * (n - 10) / n) if n > 10 else None


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="slowphoton benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced inputs, for the tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    missing = [p for p in (SRC / "slowphoton" / "cli.py", ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print(f"error: not a slowphoton checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    env = child_env()
    fresh_import(env)  # compiles bytecode and warms the file cache, untimed
    repeats = 1 if args.small else SETUP_REPEATS
    setup = [fresh_import(env)[0] for _ in range(repeats)]
    import_times = []
    if args.trace:
        for _ in range(1 if args.small else IMPORTTIME_REPEATS):
            import_times.append(import_self_times(fresh_import(env, "-X", "importtime")[1]))

    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ] + (["--small"] if args.small else [])
    budget = RUN_BUDGET_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {RUN_BUDGET_S:g} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        **child["versions"],
        "threads": {var: env[var] for var in THREAD_VARS},
    }
    print("env " + json.dumps(env_record, sort_keys=True))

    norm = at_reference_speed(child["pass_item_s"], child["pass_reference_s"])
    norm_walls = [sum(p) for p in norm]
    if args.trace:
        traced = at_reference_speed(child["traced_pass_item_s"], child["traced_pass_reference_s"])
        metrics = dict(child["layers"])
        for package in IMPORT_PACKAGES:
            metrics[f"setup.{package}_s"] = statistics.median(t[package] for t in import_times)
        metrics["trace.overhead_frac"] = (
            statistics.fmean(sum(p) for p in traced) / statistics.fmean(norm_walls) - 1.0
        )
        notes = {name: f"median of {len(traced)} traced passes" for name in metrics}
        for package in IMPORT_PACKAGES:
            notes[f"setup.{package}_s"] = f"median of {len(import_times)} fresh interpreters, -X importtime"
        notes["trace.overhead_frac"] = "mean pass time at reference speed, traced over untraced"
        self_times = {k: metrics[k] for k in metrics if k in SELF_TIME_NAMES}
        print(f"largest self time: {max(self_times, key=self_times.get)}")
    else:
        raw_walls = [sum(p) for p in child["pass_item_s"]]
        references = [t for p in child["pass_reference_s"] for t in p]
        items = [statistics.fmean(times) for times in zip(*norm)]
        tail = highest_tail_percentile(len(items))
        tail_note = (
            f"p{tail} = {percentile(items, tail):.6g} s is the highest percentile with >= 10 items beyond it"
            if tail is not None
            else "fewer than 11 items, so no percentile has 10 beyond it"
        )
        q1, q2, q3 = quartiles(norm_walls)
        r1, r2, r3 = quartiles(raw_walls)
        f1, f2, f3 = quartiles(references)
        metrics = {
            "wall_norm_s": statistics.fmean(norm_walls),
            "item_p95_norm_s": percentile(items, 95),
            "peak_rss_mb": child["peak_rss_kib"] * 1024 / 1e6,
            "setup_s": statistics.median(setup),
        }
        notes = {
            "wall_norm_s": (
                f"mean of {len(norm)} warm passes of {len(items)} items, median {q2:.6g} s, "
                f"quartiles {q1:.6g} to {q3:.6g} s; raw pass time mean {statistics.fmean(raw_walls):.6g} s, "
                f"median {r2:.6g} s, quartiles {r1:.6g} to {r3:.6g} s; reference kernel mean "
                f"{statistics.fmean(references) * 1e3:.6g} ms, median {f2 * 1e3:.6g} ms, quartiles "
                f"{f1 * 1e3:.6g} to {f3 * 1e3:.6g} ms, {len(references)} samples, nominal {REFERENCE_NOMINAL_S * 1e3:g} ms"
            ),
            "item_p95_norm_s": (
                f"over {len(items)} items, each its mean over {len(norm)} passes; "
                f"p50 = {statistics.median(items):.6g} s; {tail_note}"
            ),
            "peak_rss_mb": "peak resident set of the workload process",
            "setup_s": f"median of {len(setup)} fresh interpreters",
        }
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name) if args.trace else E2E_UNITS[name]} ({notes[name]})")
    print(f"failed {child['failed']} of {child['attempted']} items")
    for problem in child["problems"]:
        print(f"  {problem}")

    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name) if args.trace else E2E_UNITS[name]}
            for name, value in metrics.items()
        },
    }
    record = {"env": env_record, "result": result, "samples": child, "setup_s": setup}
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
