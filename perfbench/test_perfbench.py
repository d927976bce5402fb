"""Tests of the benchmark itself, on reduced inputs.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from slowphoton import cli, propagate  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines), name


def test_value_perturbed_by_1e_9_counts_as_failed(tmp_path):
    item = next(i for i in workloads.figures_items(1, True, tmp_path) if i.id == "fig3b")
    out = tmp_path / "out"
    manifest = item.run(out)
    tally = workloads.Tally()
    tally.record(item.check(out, manifest))
    assert (tally.attempted, tally.failed) == (1, 0)

    copy = tmp_path / "copy"
    copy.mkdir()
    for name in manifest["files"].values():
        (copy / name).write_bytes((out / name).read_bytes())
    csv = copy / manifest["files"]["thickness_scan"]
    lines = csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    lines[5] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    tally.record(item.check(copy, manifest))
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, workload):
    items = workloads.BUILDERS[workload](2, True, tmp_path)
    tally = workloads.Tally()
    reference = workloads.REFERENCE_KERNELS[workload]
    plain = workloads.run_pass(items, reference, tmp_path / "plain", tally)
    tracer = tracing.Tracer()
    tracer.install(tracing.wrap_table())
    try:
        traced = workloads.run_pass(items, reference, tmp_path / "traced", tally, plain.digests, tracer)
    finally:
        tracer.uninstall()
    assert cli.propagate_numeric is propagate.propagate_numeric
    assert tracer.spans
    assert traced.digests == plain.digests
    assert tally.failed == 0
    for path in sorted((tmp_path / "plain").glob("*")):
        assert path.read_bytes() == (tmp_path / "traced" / path.name).read_bytes(), path.name
