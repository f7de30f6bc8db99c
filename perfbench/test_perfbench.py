"""Self-tests of the benchmark at small sizes.

    python3 -m pytest perfbench

Exact counts must repeat across runs with one seed, a second seed must run
without a failed check, the speed gauge must scale by the median probe near an
interval, the metric tables must match BENCHMARK.json, and the benchmark
must refuse to run without the sasm sources beside it.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import run as bench
bench.use_checkout_sources()
import workloads as W  # noqa: E402  (needs the checkout's src/ on the path)

EXACT = (
    "runtime.realized_per_batch",
    "runtime.eval_steps_per_batch",
    "runtime.undo_steps_per_batch",
    "runtime.reevaluated_per_batch",
    "runtime.skipped_per_batch",
    "runtime.matches_per_batch",
    "runtime.om_relabels",
    "runtime.state_growth_per_batch",
    "refmachine.steps",
    "tracing.prop_steps",
    "dps.size_ratio",
)


def _exact(workload: str, seed: int) -> dict:
    rep = W.run(workload, seed, 0, True, small=True)
    assert rep.attempted > 0 and rep.failed == 0, rep.failures
    layers = W.per_layer(rep)
    return {k: layers[k] for k in EXACT}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_exact_counts_repeat_for_one_seed(workload):
    first = _exact(workload, 1)
    assert first == _exact(workload, 1)
    assert any(first.values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_second_seed_fails_no_check(workload):
    rep = W.run(workload, 2, 0, False, small=True)
    assert rep.attempted > 0
    assert rep.failed == 0, rep.failures
    assert all(v > 0 for v in W.end_to_end(rep).values())


def test_gauge_scales_by_median_nearby_probe():
    g = calibrate.Gauge()
    g.times = [1.0, 1.1, 1.2, 5.0]
    g.durations = [0.010, 0.020, 0.030, 0.005]
    ref = calibrate.REFERENCE_S
    assert g.scale(1.1, 0.0) == pytest.approx(ref / 0.020)
    assert g.scale(4.8, 0.1) == pytest.approx(ref / 0.005)
    # no probe near: the ones just before and after
    assert g.scale(3.0, 0.1) == pytest.approx(ref / 0.0175)


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == W.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == W.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scratch_check",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
