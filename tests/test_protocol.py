"""Protocol steps, checked on every path a run can take, and transcripts:
ordering, determinism, schema."""

import json
from fractions import Fraction

import pytest

from cointoss.analysis import TRANSCRIPT_SCHEMA, to_jsonl, walk
from cointoss.protocol import ProtocolOutcome, build_tree, leaves
from cointoss.strategies import (
    honest_alice,
    measure_and_pick_bob,
    optimal_alice,
)
from test_closed_forms import outcome_chances

EXPECTED_ORDER = ["state_transfer", "choice_announcement", "qubit_transfer"]
NOT_MESSAGES = ("run_header", "measurement", "outcome")

# The outcome each coin bit stands for.
COIN = (ProtocolOutcome.HEADS, ProtocolOutcome.TAILS)


def live_paths(tree):
    """Each root-to-leaf path a run can take, as its branches and the
    (sender, kind, payload) lines a walk down it records; no path enters a
    dead branch, whose lines are None."""
    paths = [(tree.root,)]
    while paths:
        path = paths.pop()
        if path[-1].children:
            paths += [path + (child,) for child in path[-1].children if child.lines is not None]
        else:
            yield path, [line for node in path for line in node.lines]


def kinds(lines):
    return [kind for _, kind, _ in lines]


@pytest.mark.parametrize(
    "tree, count",
    [
        (build_tree(None, None), 4),
        (build_tree(optimal_alice(0), 0), 8),
        (build_tree(measure_and_pick_bob(0), 0), 4),
    ],
)
def test_live_paths_end_on_every_live_leaf(tree, count):
    ends = [path[-1] for path, _ in live_paths(tree)]
    assert len(ends) == count
    assert {id(leaf) for leaf in ends} == {id(leaf) for leaf in leaves(tree) if leaf.lines}


class TestHonestRuns:
    def test_parties_always_agree_and_never_abort(self):
        for path, lines in live_paths(build_tree(None, None)):
            assert path[-1].outcome is not ProtocolOutcome.ABORT
            readings = [payload["outcome"] for _, kind, payload in lines if kind == "measurement"]
            assert len(readings) == 2
            assert readings[0] == readings[1]
            assert COIN[readings[0]] is path[-1].outcome

    def test_verification_always_passes(self):
        for _, lines in live_paths(build_tree(None, None)):
            assert "verdict_pass" in kinds(lines)
            assert "verdict_abort" not in kinds(lines)


class TestTranscripts:
    def test_message_order_matches_protocol_steps(self):
        for tree in (
            build_tree(None, None),
            build_tree(optimal_alice(0), 0),
            build_tree(measure_and_pick_bob(0), 0),
        ):
            for _, lines in live_paths(tree):
                order = [kind for kind in kinds(lines) if kind not in NOT_MESSAGES]
                assert order[:3] == EXPECTED_ORDER
                assert order[3] in ("verdict_pass", "verdict_abort")
                assert len(order) == 4

    def test_replay_is_deterministic(self):
        for tree in (
            build_tree(None, None),
            build_tree(optimal_alice(1), 1),
            build_tree(measure_and_pick_bob(1), 1),
        ):
            first_outcome, first = walk(tree, 424242)
            second_outcome, second = walk(tree, 424242)
            assert first_outcome == second_outcome
            assert first == second
            assert to_jsonl(first) == to_jsonl(second)

    def test_indices_contiguous_from_zero(self):
        _, transcript = walk(build_tree(measure_and_pick_bob(0), 0), 3)
        assert [r.index for r in transcript] == list(range(len(transcript)))

    def test_jsonl_round_trip(self):
        outcome, transcript = walk(build_tree(None, None), 17)
        records = [json.loads(line) for line in to_jsonl(transcript).splitlines()]
        assert len(records) == len(transcript)
        header = records[0]
        assert header["kind"] == "run_header"
        assert header["payload"]["schema"] == TRANSCRIPT_SCHEMA
        assert header["payload"]["seed"] == 17
        assert records[-1]["kind"] == "outcome"
        assert records[-1]["payload"]["outcome"] == outcome.value
        for record in records:
            assert set(record) == {"index", "sender", "kind", "payload", "probability"}
            assert record["sender"] in ("alice", "bob", "-")
            if record["probability"] is not None:
                assert 0.0 <= record["probability"] <= 1.0

    def test_abort_only_after_abort_verdict(self):
        aborts = 0
        for path, lines in live_paths(build_tree(optimal_alice(0), 0)):
            aborted = path[-1].outcome is ProtocolOutcome.ABORT
            assert ("verdict_abort" in kinds(lines)) == aborted
            aborts += aborted
        assert aborts > 0


class TestCheatingAlice:
    def test_honest_strategy_special_case(self):
        half = Fraction(1, 2)
        for target in (0, 1):
            assert outcome_chances(build_tree(honest_alice(), target)) == [half, half, 0]

    def test_sends_partner_of_unchosen_pair(self):
        # Step 4: after choice 1 Alice returns A2, after choice 2 A1, and
        # Bob checks it with his half of the same pair.
        expected = {1: ("A2", ["A2", "B2"]), 2: ("A1", ["A1", "B1"])}
        seen = set()
        for _, lines in live_paths(build_tree(optimal_alice(0), 0)):
            records = {kind: payload for _, kind, payload in lines}
            choice = records["choice_announcement"]["choice"]
            verdict = records.get("verdict_pass") or records["verdict_abort"]
            assert (records["qubit_transfer"]["label"], verdict["pair"]) == expected[choice]
            seen.add(choice)
        assert seen == {1, 2}


class TestCheatingBob:
    def test_never_aborts(self):
        for path, lines in live_paths(build_tree(measure_and_pick_bob(0), 0)):
            assert path[-1].outcome is not ProtocolOutcome.ABORT
            assert "verdict_abort" not in kinds(lines)

    def test_outcome_is_alices_measurement(self):
        for path, lines in live_paths(build_tree(measure_and_pick_bob(0), 0)):
            readings = [
                payload["outcome"]
                for sender, kind, payload in lines
                if kind == "measurement" and sender == "alice"
            ]
            assert len(readings) == 1
            assert COIN[readings[0]] is path[-1].outcome


class TestMessageKinds:
    def test_kinds_are_stable_schema(self):
        # Every record kind a tree emits; `walk` adds the run header.
        kinds = set()

        def visit(node):
            kinds.update(kind for _, kind, _ in node.lines or ())
            for child in node.children:
                visit(child)

        for tree in (
            build_tree(None, None),
            build_tree(optimal_alice(0), 0),
            build_tree(measure_and_pick_bob(0), 0),
        ):
            visit(tree.root)
        assert kinds == {
            "state_transfer",
            "choice_announcement",
            "measurement",
            "qubit_transfer",
            "verdict_pass",
            "verdict_abort",
            "outcome",
        }
