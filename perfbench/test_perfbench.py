"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

They run the driver in ``--quick`` mode (one tiny input per workload),
so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402


def _quick(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--quick", "--trace", str(trace), "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _declared(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    result, lines = _quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == declared
    for name, unit in declared.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}")
            for line in lines
        ), name


def test_perturbed_output_line_is_caught(tmp_path):
    workload = run.WORKLOADS["gap_profiles"]
    args = run.command_args(workload, "fig5", run.QUICK_DATASETS)
    env = run.Runner(tmp_path, 0.0).env(tmp_path / "cache")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    expected = json.loads(run.DIGESTS.read_text())["gap_profiles"][
        " ".join(args)
    ]
    outcome = run.Outcome(args, proc.returncode, 0.0, 0.0, 0.0,
                          proc.stdout, proc.stderr)
    assert run.failed_cells(outcome, 11, expected) == (0, "")

    lines = proc.stdout.splitlines()
    row = next(i for i, line in enumerate(lines) if "rcm" in line)
    lines[row] = re.sub(
        r"\d", lambda m: str((int(m.group()) + 1) % 10), lines[row], count=1
    )
    outcome.stdout = "\n".join(lines) + "\n"
    assert run.failed_cells(outcome, 11, expected) == (
        11, "output differs from the recorded digest"
    )

    outcome.stdout = re.sub(r"\(\d+\.\ds\)", "(123.4s)", proc.stdout)
    assert outcome.stdout != proc.stdout
    assert run.failed_cells(outcome, 11, expected) == (0, "")
    outcome.stdout = proc.stdout + "row  nan\n"
    assert run.failed_cells(outcome, 11, expected) == (1, "1 NaN cell(s)")
    outcome.status = 1
    assert run.failed_cells(outcome, 11, expected)[0] == 11


def test_failed_sample_check_fails_every_cell_of_the_sample():
    workload = run.WORKLOADS["gap_profiles"]
    datasets = run.QUICK_DATASETS
    outcomes = [
        run.Outcome(run.command_args(workload, e, datasets), 0, 0.0, 0.0,
                    0.0, f"== {e} ==\n", "")
        for e in workload.timed
    ]
    expected = {o.key: run.digest(o.stdout) for o in outcomes}
    expected["orderings euroroad"] = "good"
    tally = run.Tally(workload, datasets, expected)
    tally.sample(outcomes, "good")
    assert (tally.attempted, tally.failed) == (22, 0)
    tally.sample(outcomes, "wrong")
    assert (tally.attempted, tally.failed) == (44, 22)
    tally.sample(outcomes, "good", reference=(outcomes, "other"))
    assert (tally.attempted, tally.failed) == (66, 44)
    assert tally.reasons == [
        "orderings euroroad: cached permutations differ",
        "traced and untraced cached permutations differ",
    ]


def test_gap_profiles_warm_hit_ratio_records_the_nd_miss():
    # nested_dissection writes its store entry under a key that includes
    # the _pos/_max_depth it sets during compute(), so the warm fig6a
    # process misses it: 10 of 11 schemes hit.  A fix should move this.
    result, _lines = _quick("gap_profiles", 1)
    metrics = result["metrics"]
    assert metrics["ordering.store.warm_hit_ratio"]["value"] == 10 / 11
    assert metrics["ordering.order.calls"]["value"] == 12


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.bench.__main__  # noqa: F401

        before = {
            name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name.startswith("repro") and mod is not None
        }
        from repro.bench.experiments import ALL_EXPERIMENTS
        from repro.simulator.parallel import SimulatedMachine

        experiments = dict(ALL_EXPERIMENTS)
        run_dynamic = SimulatedMachine.__dict__["run_dynamic"]
        trace = tracer.Tracer()
        trace.install()
        from repro.apps import community_detection
        from repro.ordering import community as ordering_community

        louvain_module = sys.modules["repro.community.louvain"]

        assert community_detection.louvain is ordering_community.louvain
        assert community_detection.louvain is not before[
            "repro.community.louvain"]["louvain"]
        assert louvain_module.louvain is community_detection.louvain
        trace.restore()
        for name, attrs in before.items():
            current = vars(sys.modules[name])
            for key, value in attrs.items():
                assert current.get(key) is value, f"{name}.{key}"
        assert ALL_EXPERIMENTS == experiments
        assert SimulatedMachine.__dict__["run_dynamic"] is run_dynamic
        from repro.ordering.base import get_scheme

        nd = type(get_scheme("nested_dissection"))
        assert not hasattr(nd.compute, "__wrapped__")
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_self_time_nests_children():
    records = [{
        "spans": [
            ["bench.process", 0, 10_000_000, -1, True],
            ["ordering.order", 1_000_000, 9_000_000, 0, True],
            ["community.louvain", 2_000_000, 6_000_000, 1, True],
            ["bench.experiment", 500_000, 9_500_000, 0, True],
        ],
        "counts": {},
        "degrade_events": 0,
        "breakers_open": 0,
    }]
    metrics = tracer.summarize(records, 0.01)
    assert metrics["layer.community.self_ms"] == 4.0
    assert metrics["layer.ordering.self_ms"] == 4.0
    assert metrics["community.louvain.ms"] == 4.0
    assert metrics["bench.startup_ms"] == 0.5
    assert metrics["trace.layer_share"] == pytest.approx(0.8)


def test_missing_source_tree_exits_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes(run.SPEC.read_bytes())
    for name in ("run.py", "tracer.py", "digests.json"):
        (tmp_path / "perfbench" / name).write_bytes(
            (HERE / name).read_bytes()
        )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "community",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
