"""Protocol state-machine tests: runs, transcripts, ordering, determinism."""

import json

import numpy as np
import pytest

from cointoss.analysis import TRANSCRIPT_SCHEMA, to_jsonl, walk
from cointoss.protocol import ProtocolOutcome, build_tree
from cointoss.strategies import (
    honest_alice,
    measure_and_pick_bob,
    optimal_alice,
)

EXPECTED_ORDER = ["state_transfer", "choice_announcement", "qubit_transfer"]
NOT_MESSAGES = ("run_header", "measurement", "outcome")

# The outcome each coin bit stands for.
COIN = (ProtocolOutcome.HEADS, ProtocolOutcome.TAILS)


def coin_measurements(transcript):
    return [r for r in transcript if r.kind == "measurement"]


class TestHonestRuns:
    def test_parties_always_agree_and_never_abort(self):
        tree = build_tree(None, None)
        for seed in range(300):
            outcome, transcript = walk(tree, seed)
            assert outcome is not ProtocolOutcome.ABORT
            records = coin_measurements(transcript)
            assert len(records) == 2
            assert records[0].payload["outcome"] == records[1].payload["outcome"]
            assert COIN[records[0].payload["outcome"]] is outcome

    def test_heads_frequency(self):
        tree = build_tree(None, None)
        heads = sum(walk(tree, seed)[0] is ProtocolOutcome.HEADS for seed in range(10_000))
        # 5 sigma at 10^4 trials
        assert heads / 10_000 == pytest.approx(0.5, abs=0.025)

    def test_verification_always_passes(self):
        tree = build_tree(None, None)
        for seed in range(100):
            _, transcript = walk(tree, seed)
            kinds = [r.kind for r in transcript]
            assert "verdict_pass" in kinds
            assert "verdict_abort" not in kinds


class TestTranscripts:
    def test_message_order_matches_protocol_steps(self):
        honest = build_tree(None, None)
        alice = build_tree(optimal_alice(0), 0)
        bob = build_tree(measure_and_pick_bob(0), 0)
        for seed in range(50):
            for tree in (honest, alice, bob):
                records = walk(tree, seed)[1]
                order = [r.kind for r in records if r.kind not in NOT_MESSAGES]
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
        seen_abort = False
        tree = build_tree(optimal_alice(0), 0)
        for seed in range(200):
            outcome, transcript = walk(tree, seed)
            kinds = [r.kind for r in transcript]
            if outcome is ProtocolOutcome.ABORT:
                seen_abort = True
                assert "verdict_abort" in kinds
            else:
                assert "verdict_abort" not in kinds
        assert seen_abort  # abort probability is 1/6; 200 seeds must hit it


class TestCheatingAlice:
    def test_win_frequency_near_three_quarters(self):
        wins = 0
        aborts = 0
        n = 3000
        tree = build_tree(optimal_alice(0), 0)
        for seed in range(n):
            outcome, _ = walk(tree, seed)
            wins += outcome is ProtocolOutcome.HEADS
            aborts += outcome is ProtocolOutcome.ABORT
        assert wins / n == pytest.approx(0.75, abs=5 * np.sqrt(0.75 * 0.25 / n))
        assert aborts / n == pytest.approx(1 / 6, abs=5 * np.sqrt((1 / 6) * (5 / 6) / n))

    def test_honest_strategy_special_case(self):
        tree = build_tree(honest_alice(), 0)
        outcomes = [walk(tree, seed)[0] for seed in range(1500)]
        assert not any(o is ProtocolOutcome.ABORT for o in outcomes)
        wins = sum(o is ProtocolOutcome.HEADS for o in outcomes)
        assert wins / 1500 == pytest.approx(0.5, abs=0.065)

    def test_sends_partner_of_unchosen_pair(self):
        # Step 4: after choice 1 Alice returns A2, after choice 2 A1, and
        # Bob checks it with his half of the same pair.
        tree = build_tree(optimal_alice(0), 0)
        expected = {1: ("A2", ["A2", "B2"]), 2: ("A1", ["A1", "B1"])}
        seen = set()
        for seed in range(40):
            records = {r.kind: r.payload for r in walk(tree, seed)[1]}
            choice = records["choice_announcement"]["choice"]
            verdict = records.get("verdict_pass") or records["verdict_abort"]
            assert (records["qubit_transfer"]["label"], verdict["pair"]) == expected[choice]
            seen.add(choice)
        assert seen == {1, 2}


class TestCheatingBob:
    def test_never_aborts(self):
        tree = build_tree(measure_and_pick_bob(0), 0)
        for seed in range(500):
            outcome, transcript = walk(tree, seed)
            assert outcome is not ProtocolOutcome.ABORT
            assert "verdict_abort" not in [r.kind for r in transcript]

    def test_outcome_is_alices_measurement(self):
        tree = build_tree(measure_and_pick_bob(0), 0)
        for seed in range(100):
            outcome, transcript = walk(tree, seed)
            alice_records = [
                r
                for r in transcript
                if r.kind == "measurement" and r.sender == "alice"
            ]
            assert len(alice_records) == 1
            assert COIN[alice_records[0].payload["outcome"]] is outcome


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
