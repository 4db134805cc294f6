"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines (pytest hides captured output of passing tests otherwise).
"""

import time

import numpy as np

from cointoss import ANALYTIC_BOUND, OPTIMAL_WEIGHTS
from cointoss.analysis import monte_carlo
from cointoss.forms import _objective, optimize_alice, scan_chunks
from cointoss.protocol import build_tree, exact_win_probability
from cointoss.strategies import (
    coefficient_strategy,
    honest_alice,
    measure_and_pick_bob,
    optimal_alice,
)

from test_closed_forms import (
    BOB_DUALS,
    bob_povm,
    bob_readings,
    normalized,
    outcome_operators,
    povm_win,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def five_sigma(p: float, trials: int) -> float:
    return 5.0 * np.sqrt(p * (1.0 - p) / trials)


def test_criterion_1_honest_protocol():
    started = time.perf_counter()
    heads_exact = exact_win_probability(build_tree(honest_alice(), 0))
    tails_exact = exact_win_probability(build_tree(honest_alice(), 1))
    exact_ok = (
        abs(heads_exact["p_win_exact"] - 0.5) < 1e-12
        and abs(tails_exact["p_win_exact"] - 0.5) < 1e-12
        and abs(heads_exact["p_abort_exact"]) < 1e-12
    )
    mc = monte_carlo(build_tree(None, None), 0, 1_000_000, 101)
    mc_ok = (
        abs(mc["heads"] / mc["trials"] - 0.5) < five_sigma(0.5, mc["trials"])
        and abs(mc["tails"] / mc["trials"] - 0.5) < five_sigma(0.5, mc["trials"])
        and mc["aborts"] == 0
    )
    elapsed = time.perf_counter() - started
    report(
        1,
        exact_ok and mc_ok and elapsed < 30.0,
        f"exact P(heads)={heads_exact['p_win_exact']:.15f}, "
        f"P(abort)={heads_exact['p_abort_exact']:.2e}; "
        f"MC heads={mc['heads'] / mc['trials']:.6f} aborts={mc['aborts']} "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_2_optimal_alice():
    exact_ok = True
    details = []
    for target in (0, 1):
        result = exact_win_probability(build_tree(optimal_alice(target), target))
        exact_ok &= abs(result["p_win_exact"] - 0.75) < 1e-9
        exact_ok &= abs(result["p_abort_exact"] - 1 / 6) < 1e-9
        details.append(f"target {target}: win={result['p_win_exact']:.12f}")
    mc = monte_carlo(build_tree(optimal_alice(0), 0), 0, 1_000_000, 102)
    mc_ok = abs(mc["win_frequency"] - 0.75) < five_sigma(0.75, mc["trials"]) and abs(
        mc["abort_frequency"] - 1 / 6
    ) < five_sigma(1 / 6, mc["trials"])
    report(
        2,
        exact_ok and mc_ok,
        "; ".join(details)
        + f"; MC win={mc['win_frequency']:.6f} abort={mc['abort_frequency']:.6f}",
    )


def test_criterion_3_optimizer():
    started = time.perf_counter()
    result = optimize_alice()
    elapsed = time.perf_counter() - started
    expected = np.array(OPTIMAL_WEIGHTS)
    found = np.array([result[f"argmax.{name}"] for name in ("a00", "a01", "a10", "a11")])
    coords_ok = bool(np.all(np.abs(found - expected) < 1e-15))
    argmax = tuple(round(float(v), 5) for v in found)
    report(
        3,
        abs(result["value"] - 0.75) < 1e-15 and coords_ok and elapsed < 1.0,
        f"value={result['value']:.9f}, argmax={argmax} ({elapsed:.3f}s < 1s)",
    )


def test_criterion_4_closed_form_equals_simulation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        raw = np.abs(rng.normal(size=4))
        c = tuple((raw / np.linalg.norm(raw)).tolist())
        simulated = exact_win_probability(build_tree(coefficient_strategy(c), 0))
        worst = max(worst, abs(simulated["p_win_exact"] - _objective(*c)))
    report(4, worst < 1e-9, f"max |closed form - simulation| = {worst:.2e} over 100 tuples")


def test_criterion_5_bob_bound():
    # Against an honest Alice every Bob strategy is a POVM {E_1, E_2} on
    # (B1, B2) that wins sum_c tr(E_c A_c) <= tr Y, since each Y - A_c >= 0.
    slacks = [BOB_DUALS[t] - a for t in (0, 1) for a in bob_readings(t).values()]
    slack = min(np.linalg.eigvalsh(s)[0] for s in slacks)
    duals = [float(np.trace(BOB_DUALS[t])) for t in (0, 1)]
    bobs = {t: measure_and_pick_bob(t) for t in (0, 1)}
    exact = [exact_win_probability(build_tree(bob, t)) for t, bob in bobs.items()]
    models = [povm_win(bob_povm(bob), t) for t, bob in bobs.items()]
    wins, aborts = [e["p_win_exact"] for e in exact], [e["p_abort_exact"] for e in exact]
    report(
        5,
        slack == 0.0
        and duals == [ANALYTIC_BOUND] * 2
        and aborts == [0.0, 0.0]
        and max(abs(w - ANALYTIC_BOUND) for w in wins + models) < 1e-12,
        f"dual tr Y = {duals}, least slack eigenvalue {slack}; "
        f"measure-and-pick win={wins}, POVM model {models}, aborts={aborts}",
    )


def test_criterion_6_cheat_sensitivity():
    [rows] = scan_chunks(50)  # one chunk
    _, win, detect = map(np.array, zip(*rows))
    cheating = win > 0.5 + 1e-6
    increases = int(np.sum(np.diff(detect) >= -1e-12))
    report(
        6,
        bool(np.all(detect[cheating] > 0.0)),
        f"all {int(np.sum(cheating))} cheating points detectable; "
        f"p_detect observed non-decreasing on {increases}/49 steps",
    )


def test_criterion_7_balance():
    details = []
    balanced = True
    for build, name in ((optimal_alice, "optimal-alice"), (measure_and_pick_bob, "measure-and-pick")):
        p0 = exact_win_probability(build_tree(build(0), 0))
        p1 = exact_win_probability(build_tree(build(1), 1))
        balanced &= abs(p0["p_win_exact"] - p1["p_win_exact"]) < 1e-9
        balanced &= abs(p0["epsilon"] - 0.25) < 1e-9
        details.append(f"{name}: eps0={p0['epsilon']:.12f} eps1={p1['epsilon']:.12f}")
    report(7, balanced, "; ".join(details))


def test_criterion_8_every_alice_state():
    # Any state Alice prepares on (A1, B1, A2, B2), phase-decorated aligned
    # states among them, wins with <psi|W|psi>: at most W's top eigenvalue.
    tops, attained = [], []
    for target in (0, 1):
        win = np.array(outcome_operators(target)[0])
        psi = normalized(optimal_alice(target).initial_state)
        tops.append(float(np.linalg.eigvalsh(win)[-1]))
        attained.append(float(np.vdot(psi, win @ psi).real))
    report(
        8,
        all(abs(v - ANALYTIC_BOUND) < 1e-12 for v in tops + attained),
        f"lambda_max(W_t) = {tops[0]:.15f}, {tops[1]:.15f}; "
        f"optimal state attains {attained[0]:.15f}, {attained[1]:.15f}",
    )
