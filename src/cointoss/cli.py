"""Command-line interface: runs, bias reports, optimization, scans, Monte Carlo.

Reports are deterministic: the same configuration (including the seed)
produces a byte-identical body. Structured output is flat ``key: value``
lines; tabular output is CSV with the configuration echoed in ``#``
comment lines. Scan output is always a CSV table, written as it is
formatted, a chunk of rows at a time.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

from . import ANALYTIC_BOUND, KITAEV_REFERENCE, InvariantViolationError, UnknownStrategyError

# The ~12k objects alive after these imports, ~80 of them this package's, live
# until exit; frozen, they are walked by no later collection, the ones at exit included.
# `dispatch` freezes again once it has loaded the modules that build a tree.
gc.freeze()

REPORT_SCHEMA = "cointoss.report/2"

# Every report ends with these, and the scan's header lists them.
_CONSTANTS = {"analytic_bound": ANALYTIC_BOUND, "kitaev_reference": KITAEV_REFERENCE}

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNKNOWN_STRATEGY = 3
EXIT_INVARIANT = 4

_EPILOG = """\
exit codes:
  0  success
  2  invalid arguments or configuration, or an unwritable output path or stdout
  3  unknown strategy identifier
  4  internal invariant violation

strategies (bias and montecarlo take either party's):
  Alice, cheat-alice: honest | optimal-alice | coefficients:<a00,a01,a10,a11>
  Bob, cheat-bob:     measure-and-pick | random-bob:<seed>

sizes:
  --trials is between 1000 and 2**63 - 1 (9223372036854775807).
  --steps is between 2 and 1000000.
  optimize is solved in closed form; --grid-resolution is only echoed.
  --engine takes only protocol; it is kept for scripts that pass it.

The default seed is 0.
"""


def _seed(text: str) -> int:
    """A seed: a nonnegative integer, which seeds ``random.Random(seed)``
    (Python keeps that stream the same across releases)."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return seed


class _Parser(argparse.ArgumentParser):
    """A parser whose errors, and its subcommands' errors, are one stderr line."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"cointoss: {message}\n")


def _strategy(default: str) -> tuple:
    return ("--strategy", {"default": default})


_TARGET = ("--target", {"type": int, "choices": (0, 1), "default": 0})
_RUNS = (
    ("--trials", {"type": int, "default": 100_000}),
    ("--engine", {"choices": ("protocol",), "default": "protocol"}),
    (
        "--transcript",
        {"metavar": "PATH", "help": "also write the JSONL transcript of one run with this seed"},
    ),
)

# Each subcommand's help and its own options, in the order --help lists them;
# every subcommand then takes --seed, --format and --out.
_COMMANDS = {
    "honest": ("honest runs", (_TARGET, *_RUNS)),
    "cheat-alice": ("runs with a cheating Alice", (_strategy("optimal-alice"), _TARGET, *_RUNS)),
    "cheat-bob": ("runs with a cheating Bob", (_strategy("measure-and-pick"), _TARGET, *_RUNS)),
    "bias": ("exact win/abort probabilities", (_strategy("optimal-alice"), _TARGET)),
    "montecarlo": (
        "sampled frequencies vs exact values",
        (_strategy("optimal-alice"), _TARGET, *_RUNS),
    ),
    "optimize": (
        "maximize Alice's objective",
        (("--grid-resolution", {"type": int, "default": 100}),),
    ),
    "scan": ("honest-to-optimal sensitivity scan", (("--steps", {"type": int, "default": 50}),)),
}
_COMMON = (
    ("--seed", {"type": _seed, "default": 0}),
    ("--format", {"choices": ("structured", "tabular"), "default": "structured"}),
    ("--out", {"metavar": "PATH"}),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command line, the CLI's only input.

    Given one subcommand's name, only that subcommand's parser is built: it
    parses that subcommand's argv as the whole parser does. Any other
    `command` builds all of them, as --help and the errors list them.
    """
    parser = _Parser(
        prog="cointoss",
        description="Entanglement-based strong coin tossing: simulation and cheating analysis.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _COMMANDS else _COMMANDS:
        help_text, options = _COMMANDS[name]
        sub = subparsers.add_parser(name, help=help_text)
        for flag, keywords in options + _COMMON:
            sub.add_argument(flag, **keywords)
    return parser


def _config_mapping(args: argparse.Namespace) -> dict:
    config = {"command": args.command, "seed": args.seed}
    for key in ("strategy", "target", "trials", "engine", "grid_resolution", "steps"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    config["format"] = args.format
    return config


def format_value(value) -> str:
    """A report value: a float with 12 significant digits, anything else by `str`."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    """The table's CSV lines; a field holding a comma, such as a
    ``coefficients:`` strategy id, is quoted as RFC 4180 says."""
    import csv  # only tabular reports use it; the CLI starts without it
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(format_value, row) for row in rows)
    return out.getvalue().splitlines()


def _render(config: dict, result: dict, output_format: str) -> str:
    result = {**result, **_CONSTANTS}
    if output_format == "structured":
        lines = [f"schema: {REPORT_SCHEMA}"]
        lines += [f"config.{k}: {format_value(v)}" for k, v in config.items()]
        lines += [f"result.{k}: {format_value(v)}" for k, v in result.items()]
        return "\n".join(lines) + "\n"
    lines = _comment_lines(config)
    lines += csv_lines(list(result.keys()), [list(result.values())])
    return "\n".join(lines) + "\n"


def _comment_lines(config: dict, constants: dict | None = None) -> list[str]:
    lines = [f"# schema: {REPORT_SCHEMA}"]
    lines += [f"# config.{k}: {format_value(v)}" for k, v in config.items()]
    lines += [f"# {k}: {format_value(v)}" for k, v in (constants or {}).items()]
    return lines


def _is_stream(path: str) -> bool:
    """Whether `path` names a pipe, a device or any other existing
    non-regular file, such as /dev/stdout, which takes bytes directly."""
    target = Path(path)
    return target.exists() and not target.is_file()


def _same_regular_file(first: str, second: str) -> bool:
    """Whether both paths name one file, which the second write would replace.

    A pipe or a device, such as /dev/stdout, takes both streams in turn.
    """
    return not _is_stream(first) and Path(first).resolve() == Path(second).resolve()


def _is_stdout_file(path: str) -> bool:
    """Whether `path` names the regular file that stdout writes to, which
    replacing it would take from under the report; a stdout without a file
    descriptor, such as a test's captured one, names none."""
    try:
        return not _is_stream(path) and os.path.samestat(
            os.stat(path), os.fstat(sys.stdout.fileno())
        )
    except (OSError, ValueError):
        return False


def _write_atomic(writes: list[tuple[str | None, Iterable[str]]]) -> None:
    """Write each (path, text chunks) pair whole, or change no file at all;
    the path None is stdout.

    A regular file's text goes to a new file beside it, and only once every
    write has succeeded does `os.replace` move each onto its target. A pipe
    or a device takes its bytes directly, after the files' text is written,
    and stdout takes its bytes last, before the renames. On any `OSError`
    the temporary files are removed and the error names the path, an empty
    one as ``''``. A failed stdout's file descriptor is pointed at
    os.devnull, so the interpreter's own flush at exit cannot fail again.
    """
    moves, path = [], ""
    try:
        # Files, then devices, then stdout (a stable sort), so a failed
        # write sends no later stream a byte.
        for path, chunks in sorted(writes, key=lambda w: 2 if w[0] is None else _is_stream(w[0])):
            if path is None:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            elif _is_stream(path):
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.writelines(chunks)
            else:
                target = Path(path).resolve()  # through a symlink, replace the file it names
                temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
                with open(temp, "x", encoding="utf-8", newline="") as handle:
                    moves.append((path, temp, target))
                    handle.writelines(chunks)
        for path, temp, target in moves:
            os.replace(temp, target)
    except OSError as exc:
        if path is None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise OSError(exc.errno, exc.strerror, "stdout" if path is None else path or "''") from None
    finally:
        for _, temp, _ in moves:
            temp.unlink(missing_ok=True)


def dispatch(args: argparse.Namespace) -> tuple[Iterable[str], str | None]:
    """The report body's text chunks, and the transcript when ``--transcript`` is given.

    Every check runs here, before `main` writes a byte; `main` then writes
    the report (to ``--out``, or else stdout) and the transcript in one
    `_write_atomic` call, so a failed write changes no file.
    """
    config = _config_mapping(args)

    if args.command in ("optimize", "scan"):
        from . import forms  # the closed forms alone: no strategy, no tree

        if args.command == "optimize":
            # --grid-resolution is echoed in the config and otherwise unused.
            return [_render(config, forms.optimize_alice(), args.format)], None
        chunks = forms.scan_chunks(args.steps)
        header = _comment_lines(config, _CONSTANTS) + ["strategy,p_win,p_detect"]
        return itertools.chain(["\n".join(header) + "\n"], forms.scan_csv(chunks)), None

    # Every other command builds one tree here: `protocol` builds and sums
    # it, and `analysis`, which only the sampled commands load, draws from
    # it. These modules load here, on first use, and their import-time
    # objects are frozen as the CLI's own are above.
    sampled = args.command != "bias"
    loaded = len(sys.modules)
    from . import protocol, strategies

    if sampled:
        from . import analysis
    if len(sys.modules) > loaded:
        gc.freeze()

    if getattr(args, "transcript", None) is not None:
        if args.out is not None and _same_regular_file(args.out, args.transcript):
            raise ValueError(f"--out and --transcript both name {args.out}")
        if args.out is None and _is_stdout_file(args.transcript):
            raise ValueError(f"stdout and --transcript both name {args.transcript}")
    # Only `honest` and `montecarlo --strategy honest` run all honest, with no target.
    cheater, target = None, None
    if args.command != "honest" and (args.command != "montecarlo" or args.strategy != "honest"):
        cheater, target = strategies.parse_strategy_id(args.strategy, args.target), args.target
    tree = protocol.build_tree(cheater, target)
    if args.command == ("cheat-bob" if tree.bob is None else "cheat-alice"):
        party, other = ("an Alice", "Bob's") if tree.bob is None else ("a Bob", "Alice's")
        raise ValueError(f"{args.strategy!r} is {party} strategy; {args.command} needs {other}")
    if not sampled:
        return [_render(config, protocol.exact_win_probability(tree), args.format)], None
    result = analysis.monte_carlo(tree, args.target, args.trials, args.seed)
    transcript = None
    if args.transcript is not None:
        transcript = analysis.to_jsonl(analysis.walk(tree, args.seed)[1])
    return [_render(config, result, args.format)], transcript


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        body, transcript = dispatch(args)
        writes = [(args.out, body)]
        if transcript is not None:
            writes.append((args.transcript, [transcript]))
        _write_atomic(writes)
    except OSError as exc:
        print(f"cointoss: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownStrategyError as exc:
        print(f"cointoss: unknown strategy: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_STRATEGY
    except ValueError as exc:
        print(f"cointoss: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantViolationError as exc:
        print(f"cointoss: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
