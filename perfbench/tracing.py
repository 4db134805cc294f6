"""In-process traced run: spans around the public functions of each layer.

The tracer wraps the functions listed in ``WRAPPED`` from outside the
package. A function imported by name into another module is a separate
reference, so every ``cointoss`` module attribute that is the original
function is replaced, and restored afterwards. Spans are kept in memory
and written out when the run ends. A span's self time is its duration
minus the durations of its child spans.

A function that a later version of the package no longer has is left
unwrapped; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import CheckError, Command, timed_passes

WRAPPED = {
    "cli": ("dispatch",),
    "analysis": (
        "monte_carlo",
        "exact_win_probability",
        "alice_branch_table",
        "bob_branch_table",
        "optimize_alice",
        "sensitivity_scan",
    ),
    "protocol": ("run_honest", "run_cheating_alice", "run_cheating_bob"),
    "qstate": (
        "measure",
        "collapse",
        "branch_probabilities",
        "project_bell",
        "apply_unitary",
        "tensor",
        "make_state",
    ),
    "strategies": ("parse_strategy_id", "aligned_strategy"),
    "kernels": ("alice_trials", "bob_trials", "objective_grid_scan"),
}

# Functions called thousands of times in a pass also get call-time percentiles.
PERCENTILES = {f"qstate.{name}" for name in WRAPPED["qstate"]} | {
    f"protocol.{name}" for name in WRAPPED["protocol"]
} | {"analysis.exact_win_probability", "analysis.alice_branch_table", "strategies.aligned_strategy"}

RUNS = tuple(f"protocol.{name}" for name in WRAPPED["protocol"])

# Counts computed from the arguments and arrays of kernel calls.
COUNTERS = {
    "kernels.trials_sampled": "count",
    "kernels.uniform_bytes": "B",
    "kernels.grid_points": "count",
    "kernels.grid_bytes": "B",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, names in WRAPPED.items():
        for name in names:
            span = f"{layer}.{name}"
            units[f"{span}.calls"] = "count"
            units[f"{span}.self_s"] = "s"
            if span in PERCENTILES:
                units[f"{span}.p50_us"] = "us"
                units[f"{span}.p99_us"] = "us"
    for name in WRAPPED["qstate"]:
        units[f"qstate.{name}.calls_per_trial"] = "calls/trial"
    units.update(COUNTERS)
    units["mem.rss_bytes_per_trial"] = "B/trial"
    units["other.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_uniforms(counters: Counter, fn, args, kwargs):
    # The trial samplers take one array of pre-drawn uniforms per decision.
    uniforms = [v for k, v in _bound(fn, args, kwargs).items() if k.startswith("u_")]
    counters["kernels.trials_sampled"] += len(uniforms[0])
    counters["kernels.uniform_bytes"] += sum(u.nbytes for u in uniforms)
    return fn(*args, **kwargs)


def _grid_memory(counters: Counter, fn, args, kwargs):
    # numpy reports its array buffers to tracemalloc. The peak is rounded
    # down to whole n-by-n float64 slabs, which drops the few bytes of Python
    # objects and leaves a count that repeats exactly.
    n = _bound(fn, args, kwargs)["resolution"]
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        slab = 8 * n * n
        counters["kernels.grid_points"] += n**3
        counters["kernels.grid_bytes"] = max(counters["kernels.grid_bytes"], peak // slab * slab)


HOOKS = {
    "kernels.alice_trials": _count_uniforms,
    "kernels.bob_trials": _count_uniforms,
    "kernels.objective_grid_scan": _grid_memory,
}


class Tracer:
    """Spans ``[name, parent index, start ns, end ns]`` and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(counters, fn, args, kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cointoss"]
        try:
            for layer, names in WRAPPED.items():
                module = sys.modules.get(f"cointoss.{layer}")
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        continue
                    wrapper = self._wrap(f"{layer}.{name}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                self._patches.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(self._patches):
                setattr(m, attr, original)
            self._patches.clear()


def _run_pass(commands: list[Command]) -> tuple[int, int, int]:
    """Run each command through ``cli.main`` in this process.

    Returns the summed call time in ns, and the attempted and failed counts.
    """
    from cointoss import cli

    wall = failed = 0
    for command in commands:
        stdout = io.StringIO()
        start = time.perf_counter_ns()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
        wall += time.perf_counter_ns() - start
        try:
            if code != 0:
                raise CheckError(f"exit code {code}")
            command.verify(stdout.getvalue())
        except CheckError as exc:
            failed += 1
            print(f"FAILED (in-process) {command.label}: {exc}", file=sys.stderr)
    return wall, len(commands), failed


def _pass_stats(spans: list[list]) -> dict:
    """Calls, self time, durations and in-run call counts of one pass's spans."""
    child_ns = [0] * len(spans)
    in_run = [False] * len(spans)
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    run_calls: Counter = Counter()
    durations: dict[str, list[int]] = {}
    root_ns = 0
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
        else:
            root_ns += end - start
    # A parent precedes its children, so its in_run flag is already set.
    for index, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_ns[name] += duration - child_ns[index]
        durations.setdefault(name, []).append(duration)
        in_run[index] = parent >= 0 and (in_run[parent] or spans[parent][0] in RUNS)
        if in_run[index]:
            run_calls[name] += 1
    return {"calls": calls, "self_ns": self_ns, "durations": durations,
            "run_calls": run_calls, "root_ns": root_ns}


def run(commands: list[Command], seconds: float, spans_path: Path) -> tuple[dict, int, int]:
    """Alternate untraced and traced in-process passes for `seconds`.

    Returns the per-layer metrics (without ``mem.rss_bytes_per_trial``),
    and the attempted and failed command counts.
    """
    import cointoss.cli  # noqa: F401  (loads every layer the CLI uses)

    untraced_ns, traced_ns, other_ns, passes, tracers = [], [], [], [], []
    attempted = failed = 0
    for _ in timed_passes(seconds):
        wall, n, bad = _run_pass(commands)
        untraced_ns.append(wall)
        attempted, failed = attempted + n, failed + bad
        tracer = Tracer()
        with tracer.installed():
            wall, n, bad = _run_pass(commands)
        traced_ns.append(wall)
        attempted, failed = attempted + n, failed + bad
        stats = _pass_stats(tracer.spans)
        other_ns.append(wall - stats["root_ns"])
        passes.append(stats)
        tracers.append(tracer)
    _write_spans(spans_path, tracers)

    last = passes[-1]
    metrics: dict[str, float] = {}
    runs = sum(last["calls"][name] for name in RUNS)
    for layer, names in WRAPPED.items():
        for name in names:
            span = f"{layer}.{name}"
            metrics[f"{span}.calls"] = last["calls"][span]
            metrics[f"{span}.self_s"] = statistics.median(p["self_ns"][span] for p in passes) / 1e9
            if span in PERCENTILES:
                pooled = [d for p in passes for d in p["durations"].get(span, ())]
                p50, p99 = np.percentile(pooled, (50, 99)) / 1e3 if pooled else (0.0, 0.0)
                metrics[f"{span}.p50_us"] = float(p50)
                metrics[f"{span}.p99_us"] = float(p99)
    for name in WRAPPED["qstate"]:
        in_runs = last["run_calls"][f"qstate.{name}"]
        metrics[f"qstate.{name}.calls_per_trial"] = in_runs / runs if runs else 0.0
    for name in COUNTERS:
        metrics[name] = tracers[-1].counters[name]
    metrics["other.self_s"] = statistics.median(other_ns) / 1e9
    metrics["trace.overhead_s"] = (statistics.median(traced_ns) - statistics.median(untraced_ns)) / 1e9
    return metrics, attempted, failed


def _write_spans(path: Path, tracers: list[Tracer]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write("pass,index,parent,name,start_ns,end_ns\n")
        for pass_index, tracer in enumerate(tracers):
            for index, (name, parent, start, end) in enumerate(tracer.spans):
                handle.write(f"{pass_index},{index},{parent},{name},{start},{end}\n")
