"""CLI behavior: output determinism, formats, exit codes, seeding, output files."""

import errno
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import cointoss
from cointoss import HONEST_WEIGHTS, OPTIMAL_WEIGHTS, cli, forms, protocol, strategies
from cointoss.cli import (
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNKNOWN_STRATEGY,
    build_parser,
    format_value,
    main,
)


SUBCOMMANDS = ("honest", "cheat-alice", "cheat-bob", "bias", "montecarlo", "optimize", "scan")

# Each subcommand's own options, each set away from its default; every
# subcommand also takes `COMMON_OPTIONS`.
RUN_OPTIONS = "--target 1 --trials 5000 --engine protocol --transcript t"
OWN_OPTIONS = {
    "honest": RUN_OPTIONS,
    "cheat-alice": "--strategy honest " + RUN_OPTIONS,
    "cheat-bob": "--strategy random-bob:7 " + RUN_OPTIONS,
    "bias": "--strategy measure-and-pick --target 1",
    "montecarlo": "--strategy honest " + RUN_OPTIONS,
    "optimize": "--grid-resolution 5",
    "scan": "--steps 7",
}
COMMON_OPTIONS = "--seed 3 --format tabular --out o"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBias:
    def test_optimal_alice_report(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--strategy", "optimal-alice", "--target", "0")
        assert code == EXIT_OK
        assert "result.p_win_exact: 0.75" in out
        assert "result.analytic_bound: 0.75" in out
        assert "result.kitaev_reference: 0.207106781187" in out
        assert "config.seed: 0" in out

    def test_measure_and_pick_report(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--strategy", "measure-and-pick")
        assert code == EXIT_OK
        assert "result.party: B" in out
        assert "result.p_abort_exact: 0" in out

    def test_tabular_format(self, capsys):
        code, out, _ = run_cli(capsys, "bias", "--format", "tabular")
        assert code == EXIT_OK
        lines = out.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("config.seed" in c for c in comments)
        assert len(data) == 2
        assert data[0].startswith("party,target,strategy,p_win_exact")


class TestExitCodes:
    def test_unknown_strategy_is_three(self, capsys):
        code, _, err = run_cli(capsys, "bias", "--strategy", "telepathy")
        assert code == EXIT_UNKNOWN_STRATEGY
        assert "unknown strategy" in err

    def test_trials_below_minimum_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "honest", "--trials", "0")
        assert code == EXIT_PARSE
        assert "invalid configuration" in err

    def test_party_mismatch_is_parse_error(self, capsys, tmp_path):
        out = tmp_path / "o.txt"
        for command, strategy, party, needed in (
            ("cheat-alice", "measure-and-pick", "a Bob", "Alice's"),
            ("cheat-bob", "optimal-alice", "an Alice", "Bob's"),
            ("cheat-bob", "honest", "an Alice", "Bob's"),
        ):
            code, stdout, err = run_cli(capsys, command, "--strategy", strategy, "--out", str(out))
            assert (code, stdout) == (EXIT_PARSE, "")
            assert err == (
                f"cointoss: invalid configuration: '{strategy}' is {party} strategy;"
                f" {command} needs {needed}\n"
            )
            assert not out.exists()

    def test_unknown_strategy_propagates(self, capsys, tmp_path):
        out = tmp_path / "o.txt"
        code, stdout, err = run_cli(
            capsys, "cheat-alice", "--strategy", "telepathy", "--out", str(out)
        )
        assert (code, stdout) == (EXIT_UNKNOWN_STRATEGY, "")
        assert err == "cointoss: unknown strategy: unknown strategy identifier 'telepathy'\n"
        assert not out.exists()

    def test_output_paths_are_checked_before_the_strategy(self, capsys, tmp_path):
        # Naming one file twice is found before the strategy id is parsed.
        path = tmp_path / "f"
        code, stdout, err = run_cli(
            capsys, "cheat-alice", "--strategy", "telepathy", "--trials", "1000",
            "--out", str(path), "--transcript", str(path),
        )
        assert (code, stdout) == (EXIT_PARSE, "")
        assert err == f"cointoss: invalid configuration: --out and --transcript both name {path}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["honest", "--bogus"],  # an unknown option
            [],  # no subcommand
            ["scan", "--steps", "x"],  # not an int
            ["bias", "--target", "7"],  # not a choice
            ["honest", "--seed", "-1"],
        ],
    )
    def test_argparse_errors_are_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cointoss: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_bad_coefficients_is_parse_error(self, capsys):
        code, _, _ = run_cli(capsys, "bias", "--strategy", "coefficients:0.6,0.8,0,0.1")
        assert code == EXIT_PARSE

    def test_negative_coefficient_is_one_plain_line(self, capsys):
        code, out, err = run_cli(capsys, "bias", "--strategy", "coefficients:-0.5,0.5,0.5,0.5")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (
            "cointoss: invalid configuration: "
            "coefficients must be nonnegative, got [-0.5, 0.5, 0.5, 0.5]\n"
        )

    # A square that overflows, and finite squares whose sum does.
    @pytest.mark.parametrize("weights", ["1e200,0,0,0", "1e154,1e154,0,0"])
    def test_huge_coefficient_is_one_line_without_a_warning(self, capsys, weights):
        # The squared sum overflows to inf, which the check names, with no
        # warning or traceback around it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bias", "--strategy", f"coefficients:{weights}")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            "cointoss: invalid configuration: "
            "squared coefficients sum to inf, expected 1 within 1e-10\n"
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coefficients_are_parse_errors(self, capsys, value):
        code, _, err = run_cli(capsys, "bias", "--strategy", f"coefficients:{value},0,0,1")
        assert code == EXIT_PARSE
        assert "must be finite" in err

    def test_coefficient_with_a_newline_is_unknown_and_prints_nothing(self, capsys):
        # float() would read "0\n", and the echoed id would break the report.
        code, out, err = run_cli(capsys, "bias", "--strategy", "coefficients:0.6,0.8,0,0\n")
        assert code == EXIT_UNKNOWN_STRATEGY
        assert out == ""
        assert len(err.splitlines()) == 1

    def test_unknown_run_strategy_exits_before_sampling(self, capsys):
        # 10**20 trials would be rejected as too many, but the strategy is
        # resolved first.
        code, out, err = run_cli(
            capsys, "montecarlo", "--strategy", "telepathy", "--engine", "protocol",
            "--trials", str(10**20),
        )
        assert (code, out) == (EXIT_UNKNOWN_STRATEGY, "")
        assert err.startswith("cointoss: unknown strategy:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--steps", "1"],
            ["cheat-alice", "--engine", "protocol", "--trials", "999"],
            ["montecarlo", "--engine", "protocol", "--trials", str(2**63)],
            ["cheat-bob", "--engine", "protocol", "--trials", str(10**20)],
            ["scan", "--steps", str(10**6 + 1)],
            ["scan", "--steps", str(10**12)],
            ["montecarlo", "--trials", str(2**63)],
            ["honest", "--trials", str(10**20)],
        ],
    )
    def test_sizes_past_their_bound_are_parse_errors(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("cointoss: invalid configuration:")
        assert err.count("\n") == 1

    def test_default_engine_has_no_trial_bound(self, capsys):
        code, out, _ = run_cli(capsys, "honest", "--trials", "10000001")
        assert code == EXIT_OK
        assert "result.trials: 10000001" in out

    def test_runs_go_up_to_the_int64_maximum(self, capsys):
        code, out, _ = run_cli(
            capsys, "cheat-alice", "--engine", "protocol", "--trials", str(2**63 - 1)
        )
        assert code == EXIT_OK
        assert "result.trials: 9223372036854775807" in out

    def test_kernel_engine_is_a_parse_error_that_writes_nothing(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        with pytest.raises(SystemExit) as excinfo:
            main(["montecarlo", "--engine", "kernel", "--out", str(path)])
        assert excinfo.value.code == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "cointoss: argument --engine: invalid choice: 'kernel' (choose from 'protocol')\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_help_documents_size_bounds(self):
        text = build_parser().format_help()
        assert "--trials is between 1000 and 2**63 - 1 (9223372036854775807)" in text
        assert "--grid-resolution is only echoed" in text
        assert "--engine takes only protocol" in text
        assert "--steps is between 2 and 1000000" in text

    def test_help_documents_exit_codes(self):
        text = build_parser().format_help()
        for needle in ("exit codes", "2 ", "3 ", "4 "):
            assert needle in text
        assert str(EXIT_INVARIANT) in text
        assert "an unwritable output path or stdout" in text
        # A cheat-* command given the other party's id exits 2, so each
        # party's ids are listed on their own line, under their command.
        lines = text.splitlines()
        assert "strategies (bias and montecarlo take either party's):" in lines
        assert (
            "  Alice, cheat-alice: honest | optimal-alice | coefficients:<a00,a01,a10,a11>"
            in lines
        )
        assert "  Bob, cheat-bob:     measure-and-pick | random-bob:<seed>" in lines


    @pytest.mark.parametrize(
        "argv",
        [
            ["bias", "--strategy", "random-bob:7"],
            ["honest", "--trials", "1000"],
            ["cheat-alice", "--trials", "1000"],
            ["cheat-bob", "--trials", "1000"],
            ["montecarlo", "--strategy", "honest", "--trials", "1000"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_tree_command_builds_one_tree(self, capsys, monkeypatch, argv):
        # `dispatch` builds the one tree that `bias` sums and the sampled
        # commands draw from, parsing the strategy at most once for it.
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for module, name in ((protocol, "build_tree"), (strategies, "parse_strategy_id")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out.startswith("schema: cointoss.report/")) == (EXIT_OK, True)
        assert calls.count("build_tree") == 1
        assert calls.count("parse_strategy_id") <= 1


class TestDeterminism:
    def test_same_config_same_bytes(self, capsys):
        args = ("montecarlo", "--strategy", "optimal-alice", "--trials", "20000", "--seed", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("command", ["honest", "cheat-alice", "cheat-bob", "montecarlo"])
    def test_engine_protocol_is_the_default(self, capsys, command):
        args = (command, "--trials", "20000", "--seed", "5")
        _, default, _ = run_cli(capsys, *args)
        _, protocol, _ = run_cli(capsys, *args, "--engine", "protocol")
        assert default == protocol
        assert "config.engine: protocol\n" in default
        assert "result.engine: protocol\n" in default

    def test_seed_changes_counts(self, capsys):
        _, first, _ = run_cli(capsys, "montecarlo", "--trials", "20000", "--seed", "5")
        _, second, _ = run_cli(capsys, "montecarlo", "--trials", "20000", "--seed", "6")
        assert first != second

    def test_probabilities_printed_with_twelve_digits(self, capsys):
        _, out, _ = run_cli(capsys, "montecarlo", "--trials", "30000", "--seed", "1")
        match = re.search(r"result\.win_frequency: (\S+)", out)
        assert match
        digits = match.group(1).replace(".", "").lstrip("0")
        assert len(digits) <= 12


class TestSeeding:
    @pytest.mark.parametrize("argv", [[c] for c in SUBCOMMANDS] + [["--help"]], ids=" ".join)
    def test_the_environment_sets_no_seed(self, capsys, monkeypatch, argv):
        # The argv is the CLI's only input: COINTOSS_SEED, set to a seed or
        # to a malformed one, changes no byte and no exit code.
        def run():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return code, capsys.readouterr()

        unset = run()
        assert unset[0] == EXIT_OK
        for value in ("77", "x", "-1"):
            monkeypatch.setenv("COINTOSS_SEED", value)
            assert run() == unset

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_negative_seed_rejected_by_parser(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--seed", "-1"])
        assert excinfo.value.code == EXIT_PARSE
        assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err


class TestRunsAndFiles:
    def test_honest_runs_report(self, capsys):
        code, out, _ = run_cli(capsys, "honest", "--trials", "50000", "--seed", "2")
        assert code == EXIT_OK
        match = re.search(r"result\.heads_frequency: (\S+)", out)
        assert abs(float(match.group(1)) - 0.5) < 0.02
        assert "result.abort_frequency: 0\n" in out

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run_cli(
            capsys, "bias", "--strategy", "optimal-alice", "--out", str(path)
        )
        assert code == EXIT_OK
        assert out == ""
        assert "result.p_win_exact: 0.75" in path.read_text()

    def test_outputs_are_written_without_newline_translation(self, capsys, monkeypatch, tmp_path):
        # A file and a device each end their lines in "\n" on every platform.
        newlines = []

        def recording_open(*args, **kwargs):
            newlines.append(kwargs.get("newline"))
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        out = str(tmp_path / "report.txt")
        argv = ["honest", "--trials", "1000", "--out", out, "--transcript", os.devnull]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert newlines == ["", ""]

    @pytest.mark.parametrize(
        "flag, name, reason, other",
        [
            pytest.param(flag, name, reason, None, id=f"{flag}{suffix}")
            for name, reason, suffix in [
                ("missing/x.txt", "No such file or directory", ""),
                ("loop", "Too many levels of symbolic links", "-loop"),
                ("a" * 300, "File name too long", "-long"),
            ]
            for flag in ["--out", "--transcript"]
        ]
        + [
            # A writable --out, so the transcript's loop is met by the
            # collision check before any write.
            pytest.param(
                "--transcript", "loop", "Too many levels of symbolic links", "--out",
                id="--out-ok--transcript-loop",
            ),
        ],
    )
    def test_unwritable_path_is_parse_error(self, capsys, tmp_path, flag, name, reason, other):
        (tmp_path / "loop").symlink_to("loop")
        before = sorted(os.listdir(tmp_path))
        path = tmp_path / name
        others = [other, str(tmp_path / "ok.txt")] if other else []
        code, _, err = run_cli(capsys, "honest", "--trials", "1000", *others, flag, str(path))
        assert code == EXIT_PARSE
        assert err == f"cointoss: cannot write {path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("flag", ["--out", "--transcript"])
    def test_full_device_is_named_in_the_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "honest", "--trials", "1000", flag, "/dev/full")
        assert code == EXIT_PARSE
        assert err == "cointoss: cannot write /dev/full: No space left on device\n"

    @pytest.mark.parametrize("flag", ["--out", "--transcript"])
    def test_failed_write_keeps_the_old_file(self, capsys, monkeypatch, tmp_path, flag):
        path = tmp_path / "kept.txt"
        path.write_bytes(b"old bytes\n")

        def failing_replace(source, target):
            raise OSError(errno.ENOSPC, "No space left on device", str(source))

        # Stdout takes the report before the renames, as --out /dev/stdout does.
        report = "" if flag == "--out" else run_cli(capsys, "honest", "--trials", "1000")[1]
        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = run_cli(capsys, "honest", "--trials", "1000", flag, str(path))
        assert (code, out) == (EXIT_PARSE, report)
        assert err == f"cointoss: cannot write {path}: No space left on device\n"
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["kept.txt"]

    def test_failed_out_leaves_the_transcript_alone(self, capsys, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b"old transcript\n")
        out = tmp_path / "missing" / "x.txt"
        code, stdout, err = run_cli(
            capsys, "honest", "--trials", "1000", "--transcript", str(transcript), "--out", str(out)
        )
        assert (code, stdout) == (EXIT_PARSE, "")
        assert err == f"cointoss: cannot write {out}: No such file or directory\n"
        assert transcript.read_bytes() == b"old transcript\n"

    def test_failed_transcript_leaves_out_unchanged(self, capsys, tmp_path):
        out = tmp_path / "o.txt"
        out.write_bytes(b"old report\n")
        transcript = tmp_path / "missing" / "t.jsonl"
        code, stdout, err = run_cli(
            capsys, "honest", "--trials", "1000", "--out", str(out), "--transcript", str(transcript)
        )
        assert (code, stdout) == (EXIT_PARSE, "")
        assert err == f"cointoss: cannot write {transcript}: No such file or directory\n"
        assert out.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["o.txt"]

    @pytest.mark.parametrize("flag", ["--out", "--transcript"])
    def test_empty_path_is_parse_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "honest", "--trials", "1000", flag, "")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "cointoss: cannot write '': No such file or directory\n"

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    def test_out_and_transcript_naming_one_file_is_parse_error(self, capsys, tmp_path, link):
        # Replacing either name of a hard-linked file would split the link.
        path = tmp_path / "f"
        if link == "symlink":
            (tmp_path / "link").symlink_to(path)
        else:
            path.write_bytes(b"old bytes\n")
            os.link(path, tmp_path / "link")
        code, out, err = run_cli(
            capsys, "honest", "--trials", "1000", "--out", str(path),
            "--transcript", str(tmp_path / "link"),
        )
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"cointoss: invalid configuration: --out and --transcript both name {path}\n"
        if link == "symlink":
            assert not path.exists()
        else:
            assert (tmp_path / "link").read_bytes() == path.read_bytes() == b"old bytes\n"
            assert os.stat(path).st_nlink == 2

    @pytest.mark.parametrize("spelling", ["/dev/stdout", "own path"])
    def test_transcript_naming_the_stdout_file_is_parse_error(self, tmp_path, spelling):
        # Replacing stdout's file with the transcript would lose the report
        # that stdout then writes to the unlinked file.
        path = tmp_path / "both"
        transcript = str(path) if spelling == "own path" else spelling
        with open(path, "w") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "cointoss.cli", "honest", "--trials", "1000",
                 "--transcript", transcript],
                env=child_env(),
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert done.returncode == EXIT_PARSE
        assert done.stderr == (
            f"cointoss: invalid configuration: stdout and --transcript both name {transcript}\n"
        )
        assert path.read_bytes() == b""
        assert [p.name for p in tmp_path.iterdir()] == ["both"]

    def test_out_and_transcript_may_share_a_device(self, capsys):
        code, out, err = run_cli(
            capsys, "honest", "--trials", "1000", "--out", os.devnull, "--transcript", os.devnull
        )
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_out_replaces_an_existing_file_through_a_symlink(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("x" * 10_000)
        (tmp_path / "link.txt").symlink_to(path)
        code, _, _ = run_cli(capsys, "bias", "--out", str(tmp_path / "link.txt"))
        assert code == EXIT_OK
        assert (tmp_path / "link.txt").is_symlink()
        assert path.read_text().startswith("schema: cointoss.report/2\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "report.txt"]

    def test_out_writes_straight_into_a_pipe(self, capsys, tmp_path):
        # A pipe cannot be replaced by a file; the report goes through it.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, "bias", "--out", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == EXIT_OK
        assert received[0].startswith("schema: cointoss.report/2\n")

    def test_transcript_emission(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        code, _, _ = run_cli(
            capsys,
            "cheat-alice",
            "--trials",
            "2000",
            "--seed",
            "8",
            "--transcript",
            str(path),
        )
        assert code == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert '"kind": "run_header"' in lines[0]
        assert '"kind": "outcome"' in lines[-1]

    def test_protocol_engine_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "cheat-bob", "--trials", "1500", "--seed", "4", "--engine", "protocol"
        )
        assert code == EXIT_OK
        assert "result.engine: protocol" in out
        assert "result.aborts: 0" in out


class TestOptimizeAndScan:
    def test_optimize_report(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--grid-resolution", "100")
        assert code == EXIT_OK
        value = float(re.search(r"result\.value: (\S+)", out).group(1))
        assert abs(value - 0.75) < 1e-12
        a00 = float(re.search(r"result\.argmax\.a00: (\S+)", out).group(1))
        assert abs(a00 - 0.816496580928) < 1e-12
        assert "result.spectral_gap: 0.5\n" in out
        assert "result.p_detect: 0.166666666667\n" in out
        assert "result.residual: 0\n" in out
        assert "grid_resolution" not in out.split("config.format")[1]

    @pytest.mark.parametrize("resolution", ["5", "2001", str(10**11)])
    def test_grid_resolution_is_only_echoed(self, capsys, resolution):
        code, out, _ = run_cli(capsys, "optimize", "--grid-resolution", resolution)
        assert code == EXIT_OK
        _, default, _ = run_cli(capsys, "optimize")
        assert out == default.replace(
            "config.grid_resolution: 100\n", f"config.grid_resolution: {resolution}\n"
        )

    def test_scan_emits_table(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--steps", "10")
        assert code == EXIT_OK
        assert "# analytic_bound: 0.75" in out
        assert "# kitaev_reference: 0.207106781187" in out
        data = [l for l in out.splitlines() if not l.startswith("#")]
        assert data[0] == "strategy,p_win,p_detect"
        assert len(data) == 11
        last = data[-1].split(",")
        assert abs(float(last[1]) - 0.75) < 1e-9

    # The array expressions are the reference the plain loop must match byte
    # for byte: a one-point last chunk, and a path over four chunks.
    @pytest.mark.parametrize("steps", [forms.SCAN_CHUNK + 1, 10**5])
    def test_scan_matches_row_by_row_rendering_across_chunks(self, capsys, steps):
        code, out, _ = run_cli(capsys, "scan", "--steps", str(steps))
        assert code == EXIT_OK
        t = np.linspace(0.0, 1.0, steps)
        raw = np.outer(1.0 - t, HONEST_WEIGHTS) + np.outer(t, OPTIMAL_WEIGHTS)
        a00, a01, a10, a11 = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).T
        win = forms._objective(a00, a01, a10)
        detect = forms._detection(a00, a01, a10, a11)
        rows = "".join(
            f"path:t={u:.6f},{format_value(w)},{format_value(d)}\n"
            for u, w, d in zip(t.tolist(), win.tolist(), detect.tolist())
        )
        assert out.endswith("\nstrategy,p_win,p_detect\n" + rows)

    @pytest.fixture
    def forms_past_one(self, monkeypatch):
        # a00**2 / 2 more detection lifts the top eigenvalue of M + D from 1
        # to 3/2, at a00 = 1.
        detection = forms._detection
        monkeypatch.setattr(forms, "_detection", lambda *w: detection(*w) + w[0] * w[0] / 2.0)
        return str(forms.SCAN_CHUNK + 1)

    def test_scan_checks_every_chunk_before_printing(self, capsys, forms_past_one):
        code, out, err = run_cli(capsys, "scan", "--steps", forms_past_one)
        assert (code, out) == (EXIT_INVARIANT, "")
        assert re.fullmatch(
            r"cointoss: internal invariant violation: win \+ detection reaches 1\.5\d* "
            r"on a unit weight vector\n",
            err,
        )

    def test_scan_out_is_written_whole_or_not_at_all(
        self, capsys, monkeypatch, tmp_path, forms_past_one
    ):
        path = tmp_path / "scan.csv"
        code, _, _ = run_cli(capsys, "scan", "--steps", forms_past_one, "--out", str(path))
        assert code == EXIT_INVARIANT
        monkeypatch.undo()

        def failing_replace(source, target):
            raise OSError(errno.ENOSPC, "No space left on device", str(source))

        monkeypatch.setattr(os, "replace", failing_replace)
        code, out, err = run_cli(capsys, "scan", "--steps", forms_past_one, "--out", str(path))
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"cointoss: cannot write {path}: No space left on device\n"
        assert list(tmp_path.iterdir()) == []


def child_env(**env_vars: str) -> dict:
    """This environment with `src` on the path."""
    return {**os.environ, "PYTHONPATH": str(Path(cointoss.__file__).parents[1]), **env_vars}


class TestUnwritableStdout:
    """A report that stdout cannot take, in a child whose stdout fails."""

    def test_closed_pipe_exits_two_with_one_line(self):
        # Far more output than a pipe buffers, so the child is still
        # writing when the reader goes away.
        with subprocess.Popen(
            [sys.executable, "-m", "cointoss.cli", "scan", "--steps", "1000000"],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.readline() == b"# schema: cointoss.report/2\n"
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == EXIT_PARSE
        assert err == b"cointoss: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_two_with_one_line(self):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "cointoss.cli", "honest", "--trials", "1000"],
                env=child_env(),
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert done.returncode == EXIT_PARSE
        assert done.stderr == "cointoss: cannot write stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_keeps_the_transcript(self, tmp_path):
        # Stdout takes the report before the transcript replaces its file.
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b"kept\n")
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "cointoss.cli", "honest", "--trials", "1000",
                 "--transcript", str(transcript)],
                env=child_env(),
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert done.returncode == EXIT_PARSE
        assert done.stderr == "cointoss: cannot write stdout: No space left on device\n"
        assert transcript.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]


class TestStartup:
    """What importing the package and the CLI loads and sets, mostly in a
    fresh child, and the parser each command builds."""

    @staticmethod
    def child(code: str, *options: str, **env_vars: str) -> str:
        done = subprocess.run(
            [sys.executable, *options, "-c", code],
            env=child_env(**env_vars),
            capture_output=True,
            text=True,
            check=True,
        )
        return done.stdout

    def test_package_root_loads_no_numeric_library(self):
        loaded = self.child(
            "import cointoss, sys; print([m for m in ('numpy', 'scipy', 'sympy') if m in sys.modules])"
        )
        assert loaded == "[]\n"

    def test_cli_freezes_its_import_time_objects(self):
        # A command that loads the tree modules freezes their objects too.
        code = (
            "import contextlib, gc, io\n"
            "from cointoss import cli\n"
            "imported = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['honest', '--trials', '1000'])\n"
            "print(imported > 0, gc.get_freeze_count() > imported)"
        )
        assert self.child(code) == "True True\n"

    def test_only_commands_that_build_a_tree_load_its_modules(self):
        # Each command in turn, in one child: the scan and optimize are closed
        # forms alone, `bias` sums the tree in `protocol`, only the sampled
        # commands load `analysis`, which draws from it, only a random-bob id
        # compiles the generator that draws it, and no command loads
        # `fractions`, whose import costs milliseconds.
        tree = [f"cointoss.{m}" for m in ("protocol", "qstate", "strategies")]
        runs = [
            (["--help"], []),
            (["scan", "--steps", "7"], ["cointoss.forms"]),
            (["optimize"], []),
            (["bias"], tree),
            (["bias", "--strategy", "random-bob:7"], ["cointoss.random_bob"]),
            (["honest", "--trials", "1000"], ["cointoss.analysis"]),
        ]
        code = (
            "import contextlib, io, sys\n"
            "from cointoss import cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'cointoss' or m == 'fractions')\n"
            "print(loaded())\n"
            f"for argv in {[argv for argv, _ in runs]!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "        cli.main(argv)\n"
            "    print(loaded())\n"
        )
        expected = ["cointoss", "cointoss.cli"]
        lines = [f"{expected}\n"]
        for _, added in runs:
            expected = sorted(expected + added)
            lines.append(f"{expected}\n")
        assert self.child(code) == "".join(lines)

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["optimize"], ["forms"]),
            (["bias"], ["protocol", "qstate", "strategies"]),
            (["honest", "--trials", "1000"], ["analysis", "protocol", "qstate", "strategies"]),
            (["montecarlo", "--trials", "1000"], ["analysis", "protocol", "qstate", "strategies"]),
        ],
        ids=["optimize", "bias", "honest", "montecarlo"],
    )
    def test_command_loads_only_its_own_modules(self, argv, added):
        # Each in a fresh child: optimize is closed forms alone, a tree
        # command builds its strategy without the closed forms, only a
        # sampled command loads `analysis`, and none loads `fractions`.
        code = (
            "import contextlib, io, sys\n"
            "from cointoss import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code, 'fractions' in sys.modules,"
            " sorted(m for m in sys.modules if m.split('.')[0] == 'cointoss'))\n"
        )
        loaded = sorted(["cointoss", "cointoss.cli"] + [f"cointoss.{m}" for m in added])
        assert self.child(code) == f"{EXIT_OK} False {loaded}\n"

    def test_no_command_loads_numpy(self, tmp_path):
        # The package computes with Python floats and complex numbers, so
        # no command pays numpy's import: about 120 ms and 12 MB of peak RSS.
        runs = [
            [command, "--trials", "5000"]
            for command in ("honest", "cheat-alice", "cheat-bob", "montecarlo")
        ]
        runs += [
            ["honest", "--transcript", str(tmp_path / "t.jsonl")],
            ["bias"],
            ["bias", "--strategy", "random-bob:7"],
            ["optimize"],
            ["scan", "--steps", "7"],
        ]
        code = (
            "import contextlib, io, sys\n"
            "from cointoss import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, 'numpy' in sys.modules)"
        )
        assert self.child(code) == f"{[EXIT_OK] * len(runs)} False\n"

    @pytest.mark.parametrize("run", ["", "cointoss.cli.main(['optimize']); "], ids=["import", "optimize"])
    def test_cli_loads_no_dataclasses_or_json_beyond_argparse(self, run):
        # Whatever argparse loads itself is not held against it. The children
        # run without `site` (-S), whose .pth files may load any of these first.
        probe = (
            "import sys, {}; {}"
            "print(sorted({{'dataclasses', 'json', 'pathlib', 'typing'}} & set(sys.modules)))"
        )
        baseline = self.child(probe.format("argparse", ""), "-S")
        loaded = self.child(probe.format("cointoss.cli", run), "-S").splitlines()[-1]
        assert f"{loaded}\n" == baseline

    # `main` builds only the subcommand that argv names: it parses as the
    # whole parser does.
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    @pytest.mark.parametrize("sample", [False, True])
    def test_one_subcommand_parses_as_all_of_them(self, command, sample):
        argv = [command] + (f"{OWN_OPTIONS[command]} {COMMON_OPTIONS}".split() if sample else [])
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_one_subcommand_helps_as_all_of_them(self, capsys, command):
        texts = []
        for parser in (build_parser(command), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"usage: cointoss {command} [-h]")

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"]])
    def test_any_other_argv_builds_every_subcommand(self, argv):
        usage = build_parser(argv[0] if argv else None).format_usage()
        assert "{" + ",".join(SUBCOMMANDS) + "}" in usage
