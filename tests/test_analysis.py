"""Exact cheating probabilities, optimizer, scans, and Monte Carlo cross-checks."""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cointoss import (
    ANALYTIC_BOUND,
    HONEST_WEIGHTS,
    KITAEV_REFERENCE,
    OPTIMAL_WEIGHTS,
    InvariantViolationError,
    analysis,
    cli,
    forms,
    protocol,
    qstate,
    strategies,
)
from cointoss.analysis import _binomial, monte_carlo
from cointoss.cli import csv_lines, format_value
from cointoss.forms import _detection, _objective, optimize_alice, scan_chunks, scan_csv
from cointoss.protocol import build_tree, exact_win_probability
from cointoss.qstate import A1, A2, B1, B2
from cointoss.strategies import (
    AliceCheatStrategy,
    aligned_strategy,
    honest_alice,
    measure_and_pick_bob,
    optimal_alice,
    parse_strategy_id,
)

from test_closed_forms import HONEST_BOB, _aligned_forms


unit_weights = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(
    lambda w: math.fsum(x * x for x in w) > 1e-6
).map(lambda w: tuple((np.asarray(w) / np.linalg.norm(w)).tolist()))


def argmax(result: dict) -> tuple[float, float, float, float]:
    """The optimizer's argmax, read back from its report's keys."""
    return tuple(result[f"argmax.{name}"] for name in ("a00", "a01", "a10", "a11"))


def sample(run_kind, strategy_id="honest", target=0, trials=100_000, root_seed=0):
    """`monte_carlo` over a run of this kind, as the CLI builds it, whose
    report names that kind."""
    cheater = None if run_kind == "honest" else parse_strategy_id(strategy_id, target)
    tree = build_tree(cheater, None if cheater is None else target)
    report = monte_carlo(tree, target, trials, root_seed)
    assert report["run_kind"] == run_kind
    return report


def scan_points(steps):
    """The scan's t, win and detection arrays, its chunks joined."""
    return [np.array(column) for column in zip(*itertools.chain.from_iterable(scan_chunks(steps)))]


class TestFidelityBound:
    """Verification after Bob picks pair 1 and reads 0, in the branch tree.

    Bob reads 0 with chance ``(a00^2+a01^2) / (a00^2+a01^2+a10^2+a11^2)``.
    Alice's aligned state then leaves ``a00|00> + a01|11>`` on the other
    pair, which passes with ``(a00+a01)^2 / (2*(a00^2+a01^2))``.
    """

    @staticmethod
    def coin(*weights):
        """Bob's reading of B1 after he picks pair 1; its children read 0 and 1."""
        return protocol.build_tree(aligned_strategy(weights), 0).root.children[0]

    def read_zero(self, *weights):
        return self.coin(*weights).children[0]

    @staticmethod
    def chances(node):
        """The exact chances of the node's two children."""
        return tuple(Fraction(child.mass, node.mass) for child in node.children)

    def test_symmetric_case_reaches_one(self):
        passed, _ = self.chances(self.read_zero(0.5, 0.5, 0.5, 0.5))
        assert passed == pytest.approx(1.0, abs=1e-12)

    def test_product_state_half(self):
        assert self.chances(self.read_zero(1.0, 0.0, 0.0, 0.0))[0] == pytest.approx(
            0.5, abs=1e-15
        )

    def test_optimal_branch_nine_tenths(self):
        passed, _ = self.chances(self.read_zero(*OPTIMAL_WEIGHTS))
        assert passed == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("mass", [0.0, 1e-13, 5e-13, 2e-12])
    def test_degenerate_branch_signaled(self, mass):
        # A reading of 0 and then a pass, each aimed at chance `mass`: at
        # exactly 0 the branch is dead and its sibling's chance exactly 1,
        # and any other chance, however small, stays live with its exact
        # value, its sibling's 1 - p.
        reading = (0.0, math.sqrt(mass), 0.6, 0.8)
        s = 2 * (math.sqrt(mass - mass**2) - mass) / (1 - 2 * mass)  # (a00+a01) at a00 = 1
        verdict = (1.0, s - 1.0, 1.0, 1.0)
        (m0, _), (m1, _) = qstate.measure(aligned_strategy(reading).initial_state, B1)
        read = Fraction(m0, m0 + m1)
        posterior = qstate.measure(aligned_strategy(verdict).initial_state, B1)[0][1]
        overlap = qstate.bell_overlap(posterior, (A2, B2))
        passed = Fraction(overlap, 2 * qstate.squared_norm(posterior))
        for node, p in ((self.coin(*reading), read), (self.read_zero(*verdict), passed)):
            assert p == pytest.approx(mass, rel=1e-6, abs=0)
            first, second = node.children
            if mass == 0:
                assert first == (0, None, (), None) and second.mass == node.mass
            else:
                assert self.chances(node) == (p, 1 - p)
                assert first.lines is not None


class TestOptimizer:
    def test_reaches_three_quarters(self):
        result = optimize_alice()
        assert result["value"] == pytest.approx(0.75, abs=1e-15)
        np.testing.assert_allclose(argmax(result), OPTIMAL_WEIGHTS, atol=1e-15)

    def test_canonical_order(self):
        result = optimize_alice()
        assert result["argmax.a01"] >= result["argmax.a10"]

    def test_exact_certificate(self):
        # The closed form in exact arithmetic: M's spectrum, its top
        # eigenvector and the detection probability there. The forms'
        # entries are dyadic, so their floats are these rationals exactly.
        import sympy

        objective, detection = (
            sympy.Matrix(form).applyfunc(sympy.Rational) for form in _aligned_forms()
        )
        third = sympy.Rational(3, 4)
        assert objective.eigenvals() == {third: 1, sympy.Rational(1, 4): 1, 0: 2}
        x = sympy.Matrix([sympy.sqrt(sympy.Rational(2, 3)), *[sympy.sqrt(sympy.Rational(1, 6))] * 2, 0])
        assert sympy.simplify(x.dot(x)) == 1
        assert sympy.simplify(objective * x - third * x) == sympy.zeros(4, 1)
        assert sympy.simplify((x.T * detection * x)[0]) == sympy.Rational(1, 6)

        result = optimize_alice()
        np.testing.assert_allclose(argmax(result), [float(v) for v in x], atol=1e-15)
        assert result["value"] == 0.75
        assert result["spectral_gap"] == 0.5
        assert result["p_detect"] == 1 / 6
        assert result["residual"] == 0.0


class TestExactWinProbability:
    def test_optimal_alice_win_and_abort(self):
        for target in (0, 1):
            report = exact_win_probability(build_tree(optimal_alice(target), target))
            assert report["p_win_exact"] == pytest.approx(0.75, abs=1e-9)
            assert report["p_abort_exact"] == pytest.approx(1 / 6, abs=1e-9)
            assert report["party"] == "A"

    def test_honest_strategies_are_fair(self):
        alice = exact_win_probability(build_tree(honest_alice(), 0))
        assert alice["p_win_exact"] == pytest.approx(0.5, abs=1e-12)
        assert alice["p_abort_exact"] == 0.0
        assert alice["epsilon"] == 0.0
        bob = exact_win_probability(build_tree(HONEST_BOB, 0))
        assert bob["p_win_exact"] == pytest.approx(0.5, abs=1e-12)

    def test_swapped_response_mapping_only_reaches_one_third(self):
        # The rejected reading of "send A1 or A2 depending on the choice":
        # returning the chosen pair's own partner scores far below 3/4. The
        # protocol sends the unchosen pair's partner, so swapping the names
        # of Alice's two qubits in the optimal state plays that reading.
        state = optimal_alice(0).initial_state._replace(register=(A2, B1, A1, B2))
        swapped = AliceCheatStrategy("swapped-mapping", state)
        report = exact_win_probability(build_tree(swapped, 0))
        assert report["p_win_exact"] == pytest.approx(1 / 3, abs=1e-9)

    def test_epsilon_definition(self):
        report = exact_win_probability(build_tree(optimal_alice(0), 0))
        assert report["epsilon"] == pytest.approx(report["p_win_exact"] - 0.5, abs=1e-12)
        assert KITAEV_REFERENCE == pytest.approx(1 / np.sqrt(2) - 0.5, abs=1e-15)

    def test_report_invariant_guard(self, monkeypatch, capsys):
        # A win past 3/4 stops the report, in the library and on the CLI.
        impossible = [19, 6, 0]
        monkeypatch.setattr(protocol, "leaf_probabilities", lambda tree: impossible)
        message = "win probability 0.76 escapes [0, bound] for optimal-alice:target=0"
        with pytest.raises(InvariantViolationError) as excinfo:
            exact_win_probability(build_tree(optimal_alice(0), 0))
        assert str(excinfo.value) == message
        assert cli.main(["bias"]) == cli.EXIT_INVARIANT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"cointoss: internal invariant violation: {message}\n"


class TestSensitivityScan:
    def test_endpoints(self):
        _, win, detect = scan_points(50)
        assert len(win) == len(detect) == 50
        assert win[0] == pytest.approx(0.5, abs=1e-12)
        assert detect[0] == pytest.approx(0.0, abs=1e-12)
        assert win[-1] == pytest.approx(0.75, abs=1e-9)
        assert detect[-1] == pytest.approx(1 / 6, abs=1e-9)

    def test_cheating_is_detectable(self):
        _, win, detect = scan_points(50)
        assert np.all(detect[win > 0.5 + 1e-6] > 0.0)

    def test_step_floor(self):
        with pytest.raises(ValueError):
            scan_chunks(1)

    def test_forms_summing_past_one_raise_before_any_chunk(self, monkeypatch):
        # a00**2 / 2 more detection lifts the spectrum of M + D from
        # {1, 1, 3/4, 1/4} to {3/2, 1, 3/4, 1/4}.
        detection = forms._detection
        monkeypatch.setattr(forms, "_detection", lambda *w: detection(*w) + w[0] * w[0] / 2.0)
        with pytest.raises(InvariantViolationError, match=r"^win \+ detection reaches 1\.5 "):
            scan_chunks(7)

    def test_forms_off_the_quarter_integers_raise_before_any_chunk(self, monkeypatch):
        # 1.5 D holds entries -3/8, so 4(M + 1.5 D) is no integer matrix, and
        # its spectrum, 4 times {3/2, 1, 3/4 +- sqrt(3)/4}, is not all integers.
        calls, detection = [], forms._detection
        monkeypatch.setattr(
            forms, "_detection", lambda *w: (calls.append(w), 1.5 * detection(*w))[1]
        )
        with pytest.raises(InvariantViolationError, match=r"^4 times a polarized form"):
            scan_chunks(7)
        assert len(calls) == 10

    @pytest.mark.parametrize(
        "steps", [7, forms.SCAN_CHUNK, forms.SCAN_CHUNK + 1, 3 * forms.SCAN_CHUNK + 5]
    )
    def test_evaluates_each_point_once(self, monkeypatch, steps):
        calls, objective = [], forms._objective
        monkeypatch.setattr(forms, "_objective", lambda *w: (calls.append(w), objective(*w))[1])
        chunks = scan_chunks(steps)
        # The check's fixed calls, at the four unit vectors and six pair sums.
        checked = len(calls)
        assert checked == 10
        assert sum(len(rows) for rows in chunks) == steps
        assert len(calls) - checked == steps

    def test_honest_endpoint_is_never_detected(self):
        assert scan_points(7)[2][0] == 0.0

    # Fixed examples, so every run of the suite checks the same cases.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(unit_weights)
    def test_closed_form_matches_branch_enumeration(self, c):
        # The tree counts a branch below 1e-12 mass toward no outcome, so
        # the two agree to 1e-11, not to roundoff.
        report = exact_win_probability(build_tree(aligned_strategy(c), 0))
        assert abs(_objective(*c) - report["p_win_exact"]) < 1e-11
        assert abs(_detection(*c) - report["p_abort_exact"]) < 1e-11

    @pytest.mark.parametrize("steps", [2, 7, 30])
    def test_scan_matches_branch_enumeration_along_the_path(self, steps):
        _, win, detect = scan_points(steps)
        rows = "".join(scan_csv(scan_chunks(steps))).splitlines()
        assert len(rows) == steps
        start, end = np.array(HONEST_WEIGHTS), np.array(OPTIMAL_WEIGHTS)
        for i, t in enumerate(np.linspace(0.0, 1.0, steps)):
            raw = (1.0 - t) * start + t * end
            strategy = aligned_strategy(raw / np.linalg.norm(raw))
            report = exact_win_probability(build_tree(strategy, 0))
            assert rows[i].startswith(f"path:t={t:.6f},")
            assert abs(win[i] - report["p_win_exact"]) < 1e-11
            assert abs(detect[i] - report["p_abort_exact"]) < 1e-11

    def test_builds_no_strategy_and_no_tree(self, monkeypatch):
        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(original.__name__)
                return original(*args, **kwargs)

            return wrapper

        # Each is called by the name its module defines; `forms` imports neither.
        patched = ((protocol, "build_tree"), (strategies, "aligned_strategy"))
        for module, name in patched:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        exact_win_probability(protocol.build_tree(optimal_alice(0), 0))
        assert set(calls) == {"build_tree", "aligned_strategy"}
        calls.clear()
        optimize_alice()
        assert sum(len(rows) for rows in scan_chunks(1000)) == 1000
        assert calls == []


class TestBinomialSampler:
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5])
    def test_matches_the_exact_pmf(self, p):
        # n p = 1 and 6 take the geometric method, n p = 10 takes BTRS.
        n, draws = 20, 10_000
        rng = random.Random(17)
        counts = [0] * (n + 1)
        for _ in range(draws):
            counts[_binomial(rng, n, p)] += 1
        # Chi-square over bins pooled until each expects at least 5 draws.
        statistic, bins, expected, observed = 0.0, 0, 0.0, 0
        for k in range(n + 1):
            expected += draws * math.comb(n, k) * p**k * (1 - p) ** (n - k)
            observed += counts[k]
            if expected >= 5 or k == n:
                statistic += (observed - expected) ** 2 / expected
                bins, expected, observed = bins + 1, 0.0, 0
        df = bins - 1
        assert statistic < df + 5 * math.sqrt(2 * df)

    @pytest.mark.parametrize("p", [0.5, 1 / 6, 1e-3])
    @pytest.mark.parametrize("n", [10**6, 10**12, 2**53, 2**63 - 1])
    def test_standardized_draws_have_mean_0_and_variance_1(self, n, p):
        # The offset from n p is taken in exact integers: near 2**63 a float
        # holds only every 1024th count.
        num, den = p.as_integer_ratio()
        sd, draws = math.sqrt(n * p * (1 - p)), 2000
        rng = random.Random(23)
        z = [(_binomial(rng, n, p) * den - n * num) / den / sd for _ in range(draws)]
        mean = math.fsum(z) / draws
        variance = math.fsum((x - mean) ** 2 for x in z) / (draws - 1)
        assert abs(mean) < 5 / math.sqrt(draws)
        assert abs(variance - 1) < 5 * math.sqrt(2 / draws)

    @pytest.mark.parametrize("n", [1, 1000, 2**63 - 1])
    def test_certain_outcomes_are_exact(self, n):
        rng = random.Random(0)
        assert _binomial(rng, n, 0.0) == 0
        assert _binomial(rng, n, 1.0) == n


# Runs that name themselves: (command, strategy id, the strategy it parses
# to, target, run kind, strategy label).
NAMED_RUNS = [
    ("montecarlo", "honest", None, None, "honest", "honest"),
    ("cheat-alice", "honest", honest_alice(), 0, "cheat-alice", "honest"),
    ("montecarlo", "optimal-alice", optimal_alice(1), 1, "cheat-alice", "optimal-alice:target=1"),
    (
        "montecarlo",
        "measure-and-pick",
        measure_and_pick_bob(0),
        0,
        "cheat-bob",
        "measure-and-pick:target=0",
    ),
    (
        "montecarlo",
        "random-bob:7",
        parse_strategy_id("random-bob:7"),
        1,
        "cheat-bob",
        "random-bob:7",
    ),
]


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "run_kind,strategy_id",
        [
            ("honest", "honest"),
            ("cheat-alice", "optimal-alice"),
            ("cheat-alice", "coefficients:0.7,0.5,0.5,0.1"),
            ("cheat-bob", "measure-and-pick"),
            ("cheat-bob", "random-bob:12"),
        ],
    )
    def test_sampled_frequencies_match_exact(self, run_kind, strategy_id):
        report = sample(run_kind, strategy_id, target=0, trials=100_000, root_seed=9)
        if run_kind == "honest":
            expected_win, expected_abort = 0.5, 0.0
        else:
            exact = exact_win_probability(build_tree(parse_strategy_id(strategy_id, 0), 0))
            expected_win, expected_abort = exact["p_win_exact"], exact["p_abort_exact"]
        tolerance = 5 * np.sqrt(expected_win * (1 - expected_win) / report["trials"]) + 1e-9
        assert report["win_frequency"] == pytest.approx(expected_win, abs=max(tolerance, 5e-4))
        abort_tolerance = 5 * np.sqrt(expected_abort * (1 - expected_abort) / report["trials"])
        assert report["abort_frequency"] == pytest.approx(
            expected_abort, abs=max(abort_tolerance, 1e-9)
        )

    def test_protocol_engine_agrees_with_exact(self):
        report = sample("cheat-alice", "optimal-alice", 0, trials=3000, root_seed=4)
        assert report["win_frequency"] == pytest.approx(
            0.75, abs=5 * np.sqrt(0.75 * 0.25 / 3000)
        )
        assert report["abort_frequency"] == pytest.approx(
            1 / 6, abs=5 * np.sqrt((1 / 6) * (5 / 6) / 3000)
        )

    def test_engines_deterministic(self):
        first = sample("honest", trials=2000, root_seed=33)
        second = sample("honest", trials=2000, root_seed=33)
        assert first == second

    @pytest.mark.parametrize("trials", [5000, 10**12])
    @pytest.mark.parametrize(
        "run_kind,strategy_id",
        [
            ("honest", "honest"),
            ("cheat-alice", "optimal-alice"),
            ("cheat-alice", "coefficients:0.7,0.5,0.5,0.1"),
            ("cheat-bob", "measure-and-pick"),
            ("cheat-bob", "random-bob:7"),
        ],
    )
    def test_counts_sum_to_trials_for_every_run(self, run_kind, strategy_id, trials):
        report = sample(run_kind, strategy_id, 0, trials, 11)
        assert report["heads"] + report["tails"] + report["aborts"] == trials

    @pytest.mark.parametrize(
        "run_kind,strategy_id",
        [
            ("honest", "honest"),
            ("cheat-alice", "honest"),
            ("cheat-bob", "measure-and-pick"),
            ("cheat-bob", "random-bob:7"),
        ],
    )
    def test_impossible_aborts_stay_zero_in_constant_time(self, run_kind, strategy_id):
        # Honest play never fails verification: an honest preparation passes
        # with probability 1 - 4.4e-16, which is 1. A cheating Bob holds the
        # verdict.
        start = time.perf_counter()
        report = sample(run_kind, strategy_id, 0, 2**63 - 1, 3)
        assert time.perf_counter() - start < 1.0
        assert report["aborts"] == 0

    def test_protocol_engine_sends_no_run_down_a_dead_branch(self):
        # The honest tree's dead branches have mass exactly 0: no run of
        # 2**63 - 1 may reach one.
        report = sample("honest", trials=2**63 - 1, root_seed=1)
        assert report["aborts"] == 0
        assert report["heads"] + report["tails"] == 2**63 - 1

    def test_protocol_engine_walks_no_path(self, monkeypatch):
        calls = []

        def counting_sample_path(*args):
            calls.append(args)
            return original(*args)

        original = analysis.sample_path
        monkeypatch.setattr(analysis, "sample_path", counting_sample_path)
        for cheater in (None, optimal_alice(0), parse_strategy_id("random-bob:7")):
            tree = build_tree(cheater, None if cheater is None else 0)
            monte_carlo(tree, 0, 10**6, 5)
        assert calls == []
        analysis.walk(tree, 5)
        assert len(calls) == 1

    def test_protocol_engine_builds_one_tree_per_call(self, monkeypatch):
        calls = []

        def counting_measure(*args):
            calls.append(args)
            return original(*args)

        original = protocol.measure
        monkeypatch.setattr(protocol, "measure", counting_measure)
        counts = []
        for trials in (1000, 3000):
            calls.clear()
            sample("cheat-alice", "optimal-alice", 0, trials, 5)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_trials_bounded_by_the_int64_maximum(self):
        with pytest.raises(ValueError, match="between 1000 and 9223372036854775807"):
            sample("honest", trials=2**63)
        report = sample("cheat-alice", "optimal-alice", 0, 2**63 - 1, 2)
        assert report["heads"] + report["tails"] + report["aborts"] == 2**63 - 1

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            sample("honest", trials=999)

    def test_party_mismatch_rejected(self, monkeypatch):
        # A cheat-* command whose strategy belongs to the other party is
        # refused before any tree is sampled.
        def no_sampling(*args):
            raise AssertionError("monte_carlo ran on a mismatched run")

        monkeypatch.setattr(analysis, "monte_carlo", no_sampling)
        for command, strategy_id, message in (
            ("cheat-alice", "measure-and-pick", "is a Bob strategy; cheat-alice needs Alice's"),
            ("cheat-bob", "optimal-alice", "is an Alice strategy; cheat-bob needs Bob's"),
        ):
            args = cli.build_parser(command).parse_args(
                [command, "--strategy", strategy_id, "--seed", "0"]
            )
            with pytest.raises(ValueError, match=message):
                cli.dispatch(args)

    @pytest.mark.parametrize(
        "command,strategy_id,cheater,target,kind,label",
        NAMED_RUNS,
        ids=[f"{strategy_id}-{kind}-{label}" for _, strategy_id, _, _, kind, label in NAMED_RUNS],
    )
    def test_run_kind_inferred_from_strategy(
        self, capsys, command, strategy_id, cheater, target, kind, label
    ):
        # A tree names its own run: an honest Alice still makes a cheat-alice
        # run. montecarlo runs the party that its strategy names.
        report = monte_carlo(build_tree(cheater, target), target or 0, 2000, 0)
        assert (report["run_kind"], report["strategy"]) == (kind, label)
        argv = [command, "--strategy", strategy_id, "--target", str(target or 0)]
        assert cli.main(argv + ["--trials", "2000"]) == cli.EXIT_OK
        assert f"result.run_kind: {kind}\nresult.strategy: {label}\n" in capsys.readouterr().out

    def test_mapping_carries_reference_constants(self, capsys):
        # The CLI appends both constants to every report it prints.
        assert cli.main(["honest", "--trials", "2000"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            f"result.analytic_bound: {format_value(ANALYTIC_BOUND)}",
            f"result.kitaev_reference: {format_value(KITAEV_REFERENCE)}",
        ]


class TestReportFormatting:
    def test_twelve_significant_digits(self):
        assert format_value(1 / 3) == "0.333333333333"
        assert format_value(0.75) == "0.75"
        assert format_value(5) == "5"

    def test_csv_lines(self):
        lines = csv_lines(("a", "b"), [(1 / 3, "s")])
        assert lines == ["a,b", "0.333333333333,s"]
        assert csv_lines(("s",), [("c:1,0",)]) == ["s", '"c:1,0"']
