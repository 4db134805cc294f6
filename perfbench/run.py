#!/usr/bin/env python3
"""Benchmark of the cointoss command-line interface.

Each command of a workload runs as a fresh child process,
``python -m cointoss.cli ...`` with ``src`` on the path, one at a time
(a closed loop with one client). The workload is repeated while another
pass fits in ``--seconds``; end-to-end metrics are medians over those
passes. Every command's output is checked against exact values, and a
command that exits non-zero or fails its check counts as failed.

With ``--trace 1`` the benchmark instead runs the workload in this
process, with and without spans around each layer's functions, and
reports the per-layer metrics (see tracing.py).

A child's ``ru_maxrss`` starts from its parent's peak RSS, so this process
imports neither numpy nor cointoss before it has launched the measured
children; reference.py computes the seed's reference values in a child.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mc-kernel --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload in turn

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from workloads import CheckError, Command  # noqa: E402

SETUP_RUNS_PER_PASS = 2
MIB = 1024 * 1024

# name -> unit; each end-to-end metric comes from the untraced child processes.
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "throughput_per_s": "1/s",
}
# The work unit each workload's throughput counts. On exact it is scan steps:
# over ten seeds, grid points per second of optimize spread twice as much.
THROUGHPUT = {"mc-kernel": "trials", "mc-protocol": "trials", "exact": "scan_points"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(args: list[str]) -> tuple[float, resource.struct_rusage, int, str, str]:
    """Run ``python <args>`` and wait for it.

    Returns wall seconds, the resource usage of this child alone (from
    ``wait4``), exit code, stdout and stderr.
    """
    with open(OUT / "child.out", "w+b") as out, open(OUT / "child.err", "w+b") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], _child_env(),
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return wall, usage, os.waitstatus_to_exitcode(status), stdout, stderr


def run_command(command: Command) -> tuple[float, float, int, bool]:
    """One CLI child: wall seconds, CPU seconds, peak RSS bytes, and whether it passed."""
    wall, usage, code, stdout, stderr = spawn(["-m", "cointoss.cli", *command.argv])
    cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024
    try:
        if code != 0:
            raise CheckError(f"exit code {code}: {stderr.strip()[-500:]}")
        command.verify(stdout)
    except CheckError as exc:
        print(f"FAILED {command.label}: {exc}", file=sys.stderr)
        return wall, cpu, rss, False
    return wall, cpu, rss, True


def import_seconds() -> float:
    """Wall time of a child that only imports ``cointoss.cli``."""
    wall, _, code, _, stderr = spawn(["-c", "import cointoss.cli"])
    if code != 0:
        raise SystemExit(f"cannot import cointoss.cli: {stderr.strip()[-500:]}")
    return wall


def measure(workload: str, commands: list[Command], seconds: float) -> tuple[dict, int, int]:
    """Repeat the workload's commands for `seconds`: end-to-end metrics.

    Each pass also times a few import-only children for ``setup_s``, so
    that its median spans the same period as the commands'. One untimed
    import runs first, so bytecode caches exist.
    """
    import_seconds()
    setup = []
    walls = [[] for _ in commands]
    cpus = [[] for _ in commands]
    rss = [[] for _ in commands]
    failed = 0
    for _ in workloads.timed_passes(seconds):
        setup += [import_seconds() for _ in range(SETUP_RUNS_PER_PASS)]
        for i, command in enumerate(commands):
            wall, cpu, peak, ok = run_command(command)
            walls[i].append(wall)
            cpus[i].append(cpu)
            rss[i].append(peak)
            failed += not ok
    wall = [statistics.median(w) for w in walls]
    rates = {}
    for unit in ("trials", "grid_points", "scan_points"):
        work = [getattr(c, unit) for c in commands]
        if any(work):
            rates[unit] = sum(work) / sum(w for w, n in zip(wall, work) if n)
    metrics = {
        "wall_s": sum(wall),
        "peak_rss_mb": max(statistics.median(r) for r in rss) / MIB,
        "setup_s": statistics.median(setup),
        "throughput_per_s": rates[THROUGHPUT[workload]],
    }
    passes = len(walls[0])
    print(f"{workload}: {passes} passes of {len(commands)} commands")
    for command, w, c, r in zip(commands, walls, cpus, rss):
        print(f"  {statistics.median(w):8.4f} s wall {statistics.median(c):8.4f} s cpu"
              f" {statistics.median(r) / MIB:8.1f} MB  {command.label}")
    for unit, rate in rates.items():
        print(f"  {unit}_per_s: {rate:.6g} 1/s")
    return metrics, passes * len(commands), failed


def rss_bytes_per_trial(commands: list[Command]) -> tuple[float, int, int]:
    """Peak-RSS slope between the smallest and largest ``honest`` commands."""
    honest = sorted((c for c in commands if c.argv[0] == "honest"), key=lambda c: c.trials)
    if len(honest) < 2:
        return 0.0, 0, 0
    (*_, low, ok_low), (*_, high, ok_high) = run_command(honest[0]), run_command(honest[-1])
    slope = (high - low) / (honest[-1].trials - honest[0].trials)
    return slope, 2, (not ok_low) + (not ok_high)


def reference_values(seed: int) -> dict:
    _, _, code, stdout, stderr = spawn([str(BENCH / "reference.py"), "--seed", str(seed)])
    if code != 0:
        raise SystemExit(f"reference.py failed: {stderr.strip()[-500:]}")
    return json.loads(stdout)


def environment(reference: dict) -> dict:
    def version(name: str) -> str | None:
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        cpuinfo = ""
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=False).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels_backend": reference["kernels_backend"],
        "cointoss_env": {k: v for k, v in os.environ.items() if k.startswith("COINTOSS_")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def bench(workload: str, seed: int, reference: dict, seconds: float, trace: bool,
          tiny: bool) -> dict:
    """One workload: the result object printed as the last line."""
    commands = workloads.build(workload, seed, reference, OUT, tiny=tiny)
    if trace:
        import tracing

        slope, attempted, failed = rss_bytes_per_trial(commands)
        metrics, n, bad = tracing.run(commands, seconds, OUT / f"spans-{workload}.csv")
        metrics["mem.rss_bytes_per_trial"] = slope
        units = tracing.metric_units()
        attempted, failed = attempted + n, failed + bad
    else:
        metrics, attempted, failed = measure(workload, commands, seconds)
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name}: {metrics[name]:.6g} {unit}")
    print(f"  ops_failed_ratio: {failed / attempted:.6g} ({failed} failed of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cointoss" / "cli.py").is_file():
        print(f"run.py: no cointoss package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    reference = reference_values(args.seed)
    env = environment(reference)
    print("env: " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: bench(w, args.seed, reference, args.seconds, bool(args.trace), args.tiny)
               for w in names}
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    record = {"env": env, "args": vars(args), "result": result}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
