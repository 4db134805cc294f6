"""Self-test of the benchmark.

    python3 -m pytest -q perfbench

Runs every workload once at tiny sizes, untraced and traced, and checks
that each metric BENCHMARK.json names is emitted; checks that the output
checks reject tampered reports; and checks that the benchmark refuses to
run without the package's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=600, check=False, cwd=cwd,
    )


def _cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "cointoss.cli", *args], capture_output=True,
                          text=True, timeout=120, check=True, env=env)
    return done.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif workload == "mc-protocol":
        # measure reaches collapse through qstate's globals, and protocol
        # imports measure by name: both calls must be seen inside runs.
        assert metrics["qstate.measure.calls_per_trial"] > 0
        assert metrics["qstate.collapse.calls_per_trial"] > 0
        assert metrics["kernels.trials_sampled"] == 0
    elif workload == "mc-kernel":
        assert metrics["kernels.uniform_bytes"] > 0
        assert metrics["protocol.run_honest.calls"] == 0
    else:
        assert metrics["kernels.grid_points"] == 20**3
        assert metrics["kernels.grid_bytes"] > 0


def test_tampered_win_frequency_is_rejected():
    report = _cli("montecarlo", "--strategy", "optimal-alice", "--trials", "20000", "--seed", "0")
    workloads.check_sampled(report, 0.75, 1 / 6)
    fields = workloads.parse_report(report)
    sigma = float(fields["result.win_standard_error"])
    moved = float(fields["result.win_frequency"]) + 10 * sigma
    tampered = report.replace(f"result.win_frequency: {fields['result.win_frequency']}",
                              f"result.win_frequency: {moved!r}")
    with pytest.raises(CheckError):
        workloads.check_sampled(tampered, 0.75, 1 / 6)


def test_nonzero_count_of_impossible_outcome_is_rejected():
    report = _cli("honest", "--trials", "1000", "--seed", "0")
    workloads.check_sampled(report, 0.5, 0.0)
    tampered = report.replace("result.aborts: 0", "result.aborts: 1").replace(
        "result.abort_frequency: 0", "result.abort_frequency: 0.001")
    with pytest.raises(CheckError):
        workloads.check_sampled(tampered, 0.5, 0.0)


def test_transcript_without_outcome_is_rejected():
    OUT.mkdir(exist_ok=True)
    path = OUT / "selftest-transcript.jsonl"
    _cli("cheat-alice", "--trials", "1000", "--seed", "0", "--transcript", str(path))
    text = path.read_text(encoding="utf-8")
    path.unlink()
    workloads.check_transcript(text)
    with pytest.raises(CheckError):
        workloads.check_transcript("".join(text.splitlines(keepends=True)[:-1]))


def test_bob_reference_matches_known_values():
    from cointoss.strategies import parse_strategy_id

    assert reference.bob_win_probability(parse_strategy_id("measure-and-pick", 1), 1) == pytest.approx(0.75, abs=1e-12)
    assert reference.bob_win_probability(parse_strategy_id("random-bob:3", 1), 1) == pytest.approx(0.5, abs=1e-12)
    assert reference.random_bob_id(0) == "random-bob:7"
    assert reference.bob_win_probability(parse_strategy_id("random-bob:7", 1), 1) == pytest.approx(0.5845, abs=1e-4)


def test_refuses_to_run_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in BENCH.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    try:
        done = _bench("--workload", "exact", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout
