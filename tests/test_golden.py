"""Golden files: fixed CLI invocations must reproduce their stored bytes.

Each case is one command line. A report case compares the report body
(written with ``--out``); a transcript case compares the JSONL transcript
written with ``--transcript``. The files pin the contract that one seed
gives the same bytes.

To rewrite the files after a deliberate, recorded change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
from pathlib import Path

import pytest

from cointoss.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

# (file stem, argv); the transcript comes from a 1000-trial run command.
_TRANSCRIPT_RUNS = [
    ("honest", ["honest"]),
    ("cheat-alice-honest", ["cheat-alice", "--strategy", "honest"]),
    ("optimal-alice-t0", ["cheat-alice", "--strategy", "optimal-alice", "--target", "0"]),
    ("optimal-alice-t1", ["cheat-alice", "--strategy", "optimal-alice", "--target", "1"]),
    ("coefficients", ["cheat-alice", "--strategy", "coefficients:0.7,0.5,0.5,0.1"]),
    ("measure-and-pick-t0", ["cheat-bob", "--strategy", "measure-and-pick", "--target", "0"]),
    ("measure-and-pick-t1", ["cheat-bob", "--strategy", "measure-and-pick", "--target", "1"]),
    ("random-bob-3", ["cheat-bob", "--strategy", "random-bob:3"]),
    ("random-bob-7", ["cheat-bob", "--strategy", "random-bob:7"]),
]

TRANSCRIPTS = [
    (f"{stem}-seed{seed}", argv + ["--trials", "1000", "--seed", str(seed)])
    for stem, argv in _TRANSCRIPT_RUNS
    for seed in range(5)
]

_BIAS = [
    ("honest", "0"),
    ("optimal-alice", "0"),
    ("optimal-alice", "1"),
    ("coefficients:0.7,0.5,0.5,0.1", "0"),
    ("measure-and-pick", "0"),
    ("measure-and-pick", "1"),
    ("random-bob:3", "0"),
    ("random-bob:7", "0"),
    # 1/2 for an exactly unitary operation: epsilon is the exact excess
    # that rounding the Haar unitary's entries to floats leaves.
    ("random-bob:101", "1"),
]

_SAMPLED = [
    ("honest", ["honest"]),
    ("cheat-alice", ["cheat-alice"]),
    ("cheat-bob", ["cheat-bob"]),
    ("montecarlo", ["montecarlo"]),
    ("montecarlo-honest", ["montecarlo", "--strategy", "honest"]),
    ("montecarlo-random-bob-7", ["montecarlo", "--strategy", "random-bob:7", "--target", "1"]),
]

REPORTS = (
    [
        (f"{stem}-protocol", argv + ["--trials", "2000", "--seed", "5", "--engine", "protocol"])
        for stem, argv in _SAMPLED
    ]
    + [
        (
            f"bias-{strategy.replace(':', '-').replace(',', '_')}-t{target}",
            ["bias", "--strategy", strategy, "--target", target],
        )
        for strategy, target in _BIAS
    ]
    + [
        ("optimize-20", ["optimize", "--grid-resolution", "20"]),
        ("scan-7", ["scan", "--steps", "7"]),
        ("cheat-alice-tabular", ["cheat-alice", "--trials", "2000", "--format", "tabular"]),
        ("optimize-20-tabular", ["optimize", "--grid-resolution", "20", "--format", "tabular"]),
        # A coefficients id puts commas in the strategy field, which is quoted.
        (
            "bias-coefficients-0.6_0.8_0_0-tabular",
            ["bias", "--strategy", "coefficients:0.6,0.8,0,0", "--format", "tabular"],
        ),
        (
            "montecarlo-coefficients-0.6_0.8_0_0-tabular",
            ["montecarlo", "--strategy", "coefficients:0.6,0.8,0,0", "--trials", "2000",
             "--seed", "5", "--format", "tabular"],
        ),
    ]
)

# Reports printed as CSV: the tabular format, and every scan.
TABULAR = [name for name, argv in REPORTS if "tabular" in argv or argv[0] == "scan"]


def _produce(argv, flag, path):
    assert main(argv + [flag, str(path)]) == EXIT_OK
    return path.read_bytes()


@pytest.mark.parametrize("name,argv", TRANSCRIPTS, ids=[n for n, _ in TRANSCRIPTS])
def test_transcript_matches_golden(name, argv, tmp_path, capsys):
    produced = _produce(argv, "--transcript", tmp_path / "run.jsonl")
    assert produced == (GOLDEN / "transcripts" / f"{name}.jsonl").read_bytes()


@pytest.mark.parametrize("name,argv", REPORTS, ids=[n for n, _ in REPORTS])
def test_report_matches_golden(name, argv, tmp_path):
    produced = _produce(argv, "--out", tmp_path / "report.txt")
    assert produced == (GOLDEN / "reports" / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", TABULAR)
def test_tabular_golden_rows_are_as_long_as_the_header(name):
    text = (GOLDEN / "reports" / f"{name}.txt").read_text(encoding="utf-8")
    table = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(table))
    assert len(rows) >= 2
    assert {len(row) for row in rows} == {len(rows[0])}


def test_every_golden_file_belongs_to_a_case():
    cases = {f"transcripts/{name}.jsonl" for name, _ in TRANSCRIPTS}
    cases |= {f"reports/{name}.txt" for name, _ in REPORTS}
    files = {path.relative_to(GOLDEN).as_posix() for path in GOLDEN.rglob("*") if path.is_file()}
    assert files == cases


def test_alice_side_transcripts_show_both_verdicts():
    kinds = set()
    for name, _ in TRANSCRIPTS:
        if not name.startswith(("measure-and-pick", "random-bob")):
            kinds |= {
                kind
                for kind in ("verdict_pass", "verdict_abort")
                if f'"kind": "{kind}"' in (GOLDEN / "transcripts" / f"{name}.jsonl").read_text()
            }
    assert kinds == {"verdict_pass", "verdict_abort"}


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()):
        for folder, flag, suffix, cases in (
            ("transcripts", "--transcript", ".jsonl", TRANSCRIPTS),
            ("reports", "--out", ".txt", REPORTS),
        ):
            (GOLDEN / folder).mkdir(parents=True, exist_ok=True)
            for name, argv in cases:
                data = _produce(argv, flag, Path(scratch) / name)
                (GOLDEN / folder / f"{name}{suffix}").write_bytes(data)
