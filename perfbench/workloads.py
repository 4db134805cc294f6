"""The benchmark's workloads: the CLI commands each one runs, and their output checks.

Every check compares a command's output with exact values: the paper's
constants, or an exact probability that reference.py computes. Sampled
frequencies must lie within 5 standard errors of the exact probability;
where that probability is 0, the count must be exactly 0.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

WORKLOADS = ("mc-kernel", "mc-protocol", "exact")

# Full sizes, and the tiny sizes the self-test runs.
SIZES = {
    False: {"trials": 20_000_000, "trials_small": 1_000_000, "trials_protocol": 5_000,
            "grid": 250, "steps": 4_000},
    True: {"trials": 20_000, "trials_small": 1_000, "trials_protocol": 1_000,
           "grid": 20, "steps": 20},
}

Z_LIMIT = 5.0
EXACT_ATOL = 1e-9
ARGMAX_ATOL = 1e-6
OPTIMAL_ARGMAX = (math.sqrt(2 / 3), math.sqrt(1 / 6), math.sqrt(1 / 6), 0.0)


class CheckError(Exception):
    """A command's output disagrees with its exact reference."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the check on its stdout, and the work it does."""

    argv: tuple[str, ...]
    check: Callable[[str], None]
    trials: int = 0
    grid_points: int = 0
    scan_points: int = 0
    transcript: Path | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    def verify(self, stdout: str) -> None:
        """Check the output, then read and remove the transcript it wrote."""
        self.check(stdout)
        if self.transcript is not None:
            try:
                text = self.transcript.read_text(encoding="utf-8")
            except FileNotFoundError as exc:
                raise CheckError(f"no transcript at {self.transcript}") from exc
            self.transcript.unlink()
            check_transcript(text)


def timed_passes(seconds: float):
    """Yield once per pass for about `seconds`, and at least once.

    Another pass starts while at least half of an average pass still fits,
    so a run ends within half a pass of `seconds`.
    """
    start = time.perf_counter()
    count = 0
    while True:
        yield
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count / 2 > seconds:
            return


# ---------------------------------------------------------------------------
# Parsing and checks
# ---------------------------------------------------------------------------


def parse_report(text: str) -> dict[str, str]:
    """The ``key: value`` lines of a structured report."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            raise CheckError(f"not a report line: {line!r}")
        report[key] = value
    return report


def _field(report: dict[str, str], key: str, kind=float):
    try:
        return kind(report[key])
    except (KeyError, ValueError) as exc:
        raise CheckError(f"report field {key!r} missing or malformed") from exc


def _check_frequency(name: str, frequency: float, count: int, trials: int, p: float) -> None:
    if abs(frequency - count / trials) > EXACT_ATOL:
        raise CheckError(f"{name} frequency {frequency} disagrees with count {count}/{trials}")
    if p == 0.0:
        if count != 0:
            raise CheckError(f"{name} count is {count}, but its exact probability is 0")
        return
    z = (frequency - p) / math.sqrt(p * (1.0 - p) / trials)
    if abs(z) > Z_LIMIT:
        raise CheckError(f"{name} frequency {frequency} is {z:+.2f} standard errors from {p}")


def check_sampled(text: str, p_win: float, p_abort: float) -> None:
    """A Monte Carlo report against its exact win and abort probabilities."""
    report = parse_report(text)
    trials = _field(report, "result.trials", int)
    heads = _field(report, "result.heads", int)
    tails = _field(report, "result.tails", int)
    aborts = _field(report, "result.aborts", int)
    if heads + tails + aborts != trials:
        raise CheckError(f"counts {heads}+{tails}+{aborts} do not add up to {trials} trials")
    wins = heads if _field(report, "result.target", int) == 0 else tails
    _check_frequency("win", _field(report, "result.win_frequency"), wins, trials, p_win)
    _check_frequency("abort", _field(report, "result.abort_frequency"), aborts, trials, p_abort)


def check_bias(text: str, p_win: float, p_abort: float) -> None:
    report = parse_report(text)
    for key, exact in (("result.p_win_exact", p_win), ("result.p_abort_exact", p_abort)):
        value = _field(report, key)
        if abs(value - exact) > EXACT_ATOL:
            raise CheckError(f"{key} is {value}, expected {exact}")


def check_optimize(text: str) -> None:
    report = parse_report(text)
    value = _field(report, "result.value")
    if abs(value - 0.75) > EXACT_ATOL:
        raise CheckError(f"optimum {value} is not 3/4")
    for name, exact in zip(("a00", "a01", "a10", "a11"), OPTIMAL_ARGMAX):
        got = _field(report, f"result.argmax.{name}")
        if abs(got - exact) > ARGMAX_ATOL:
            raise CheckError(f"argmax.{name} is {got}, expected {exact}")


def check_scan(text: str, steps: int) -> None:
    rows = list(csv.reader(l for l in text.splitlines() if not l.startswith("#")))
    if not rows or rows[0] != ["strategy", "p_win", "p_detect"]:
        raise CheckError("scan table has no strategy,p_win,p_detect header")
    try:
        points = [(float(r[1]), float(r[2])) for r in rows[1:]]
    except (IndexError, ValueError) as exc:
        raise CheckError("malformed scan row") from exc
    if len(points) != steps:
        raise CheckError(f"scan has {len(points)} rows, expected {steps}")
    for (p_win, p_detect), (win, detect) in ((points[0], (0.5, 0.0)), (points[-1], (0.75, 1 / 6))):
        if abs(p_win - win) > EXACT_ATOL or abs(p_detect - detect) > EXACT_ATOL:
            raise CheckError(f"scan endpoint ({p_win}, {p_detect}) is not ({win}, {detect})")
    for p_win, p_detect in points:
        if p_win > 0.5 and not p_detect > 0.0:
            raise CheckError(f"p_win {p_win} > 1/2 with p_detect {p_detect}")


def check_transcript(text: str) -> None:
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        raise CheckError(f"transcript line is not JSON: {exc}") from exc
    if [r.get("index") for r in records] != list(range(len(records))):
        raise CheckError("transcript indices are not contiguous from 0")
    if not records or records[-1].get("kind") != "outcome":
        raise CheckError("transcript does not end with an outcome record")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _sampled(argv, trials, p_win, p_abort, transcript=None) -> Command:
    argv = tuple(argv) + ("--trials", str(trials))
    if transcript is not None:
        argv += ("--transcript", str(transcript))
    return Command(
        argv=argv,
        check=lambda text: check_sampled(text, p_win, p_abort),
        trials=trials,
        transcript=transcript,
    )


def _bias(strategy: str, target: int, p_win: float, p_abort: float) -> Command:
    return Command(
        argv=("bias", "--strategy", strategy, "--target", str(target)),
        check=lambda text: check_bias(text, p_win, p_abort),
    )


def build(workload: str, seed: int, reference: dict, workdir: Path, tiny: bool = False) -> list[Command]:
    """The commands of one workload, each with ``--seed <seed>`` appended.

    `reference` is what reference.py prints for the same seed.
    """
    size = SIZES[tiny]
    bob, bob_p1 = reference["bob"], reference["bob_p1"]
    if workload == "mc-kernel":
        n = size["trials"]
        commands = [
            _sampled(("honest",), n, 0.5, 0.0),
            _sampled(("cheat-alice", "--strategy", "optimal-alice", "--target", "1"), n, 0.75, 1 / 6),
            _sampled(("cheat-bob", "--strategy", "measure-and-pick", "--target", "0"), n, 0.75, 0.0),
            _sampled(("montecarlo", "--strategy", bob, "--target", "1"), n, bob_p1, 0.0),
            _sampled(("honest",), size["trials_small"], 0.5, 0.0),
        ]
    elif workload == "mc-protocol":
        n = size["trials_protocol"]
        engine = ("montecarlo", "--engine", "protocol", "--strategy")
        commands = [
            _sampled(engine + ("honest",), n, 0.5, 0.0),
            _sampled(engine + ("optimal-alice", "--target", "0"), n, 0.75, 1 / 6,
                     transcript=workdir / "transcript.jsonl"),
            _sampled(engine + ("measure-and-pick", "--target", "1"), n, 0.75, 0.0),
            _sampled(engine + (bob, "--target", "1"), n, bob_p1, 0.0),
        ]
    elif workload == "exact":
        grid, steps = size["grid"], size["steps"]
        commands = [
            Command(argv=("optimize", "--grid-resolution", str(grid)), check=check_optimize,
                    grid_points=grid**3),
            Command(argv=("scan", "--steps", str(steps)),
                    check=lambda text: check_scan(text, steps), scan_points=steps),
            _bias("optimal-alice", 0, 0.75, 1 / 6),
            _bias("optimal-alice", 1, 0.75, 1 / 6),
            _bias("measure-and-pick", 0, 0.75, 0.0),
            _bias(bob, 1, bob_p1, 0.0),
            _bias("coefficients:0.5,0.5,0.5,0.5", 0, 0.5, 0.0),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return [replace(c, argv=c.argv + ("--seed", str(seed))) for c in commands]
