"""Acceptance gate: the eight release criteria, each with pinned tolerances.

Reference values are frozen decimals established independently before the
implementation existed; they must never be regenerated from package output.
"""

import sys
import time

import numpy as np
import pytest

from conftest import entries_of, random_chain, scheme_from_entries
from onoffpriv.bounds import (
    closed_form_symmetric,
    rate_inner,
    rate_outer,
    theta_profile,
)
from onoffpriv.lp import formulate_lp, solve_simplex
from onoffpriv.markov import conditional_table, symmetric_chain
from onoffpriv.scheme import build_scheme, collapse_to_sets
from onoffpriv.sim import (
    InsufficientSamples,
    PrivacySchedule,
    SimConfig,
    average_download_rate,
    build_scheme_for_gap,
    empirical_privacy_test,
    run_simulation,
)
from onoffpriv.verify import check_scheme, expected_cost


@pytest.fixture
def announce(capsys):
    """Emit a summary line that survives output capture."""

    def emit(text):
        with capsys.disabled():
            sys.stdout.write("\n" + text + "\n")
            sys.stdout.flush()

    return emit


# three-state, one-step-gap reference rates on the alpha grid (sixtieths)
SWEEP_R_INNER = {
    0 / 60: 1 / 3,
    3 / 60: 0.367295763494787,
    6 / 60: 0.405486659150695,
    9 / 60: 0.453841056226742,
    12 / 60: 0.521739130434783,
    15 / 60: 0.626016260162602,
    18 / 60: 0.802142407057341,
    20 / 60: 1.0,
    23 / 60: 0.764650283553875,
    26 / 60: 0.618343195266272,
    29 / 60: 0.523781212841855,
    32 / 60: 0.4609375,
    35 / 60: 0.418367346938776,
    38 / 60: 0.389196675900277,
    41 / 60: 0.369125520523498,
    44 / 60: 0.355371900826446,
    47 / 60: 0.346084200995926,
    50 / 60: 0.34,
    53 / 60: 0.33624065503738,
    56 / 60: 0.334183673469388,
    59 / 60: 0.333381212295317,
}
SWEEP_R_OUTER = {
    3 / 60: 0.403508771929825,
    6 / 60: 0.481481481481482,
    9 / 60: 0.568627450980392,
    12 / 60: 0.666666666666667,
    15 / 60: 0.777777777777778,
    18 / 60: 0.904761904761905,
    20 / 60: 1.0,
    # above the crossover the two curves coincide
    23 / 60: 0.764650283553875,
    29 / 60: 0.523781212841855,
    35 / 60: 0.418367346938776,
    41 / 60: 0.369125520523498,
    47 / 60: 0.346084200995926,
    53 / 60: 0.33624065503738,
    59 / 60: 0.333381212295317,
}

# three-state reference rates per gap t = 1..6
GAP_SERIES = {
    (0.25, "outer"): [
        0.777777777777778, 0.863636363636364, 0.886939571150097,
        0.888482186432406, 0.888858372242058, 0.888882531108619,
    ],
    (0.25, "inner"): [
        0.626016260162602, 0.655172413793103, 0.665935940376163,
        0.666483617060223, 0.666655222989587, 0.66666380565736,
    ],
    (0.6, "outer"): [
        0.407407407407407, 0.474747474747475, 0.517730496453901,
        0.539320142059868, 0.548865893174454, 0.552847076747286,
    ],
    (0.6, "inner"): [
        0.407407407407407, 0.474747474747475, 0.517730496453901,
        0.539320142059868, 0.548865893174454, 0.552847076747286,
    ],
}


def cost_large_alpha(a):
    # closed-form cost above the crossover, three states, one-step gap
    return 6 * a * a / (3 * a * a - 2 * a + 1)


def cost_small_alpha(a):
    # closed-form costs below the crossover, three states, one-step gap
    outer = (3 - 3 * a) / (3 * a + 1)
    inner = 2 / (3 * a + 1) - (4 * a - 2) / (3 * a * a - 2 * a + 1) - 1
    return outer, inner


def test_criterion_1_alpha_sweep_closed_forms_and_reference_points(announce):
    start = time.perf_counter()
    grid = [k / 60 for k in range(60)]
    for a in grid:
        prof = theta_profile(conditional_table(symmetric_chain(3, a), 1))
        inv_i, inv_o = rate_inner(prof), rate_outer(prof)
        if a >= 1 / 3:
            cf = cost_large_alpha(a)
            assert inv_i == pytest.approx(cf, abs=1e-9), a
            assert inv_o == pytest.approx(cf, abs=1e-9), a
        else:
            cf_o, cf_i = cost_small_alpha(a)
            assert inv_i == pytest.approx(cf_i, abs=1e-9), a
            assert inv_o == pytest.approx(cf_o, abs=1e-9), a
        if a in SWEEP_R_INNER:
            assert 1 / inv_i == pytest.approx(SWEEP_R_INNER[a], abs=1e-5), a
        if a in SWEEP_R_OUTER:
            assert 1 / inv_o == pytest.approx(SWEEP_R_OUTER[a], abs=1e-5), a
    assert len(SWEEP_R_INNER) >= 10 and len(SWEEP_R_OUTER) >= 10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(
        f"PASS criterion 1: alpha sweep matches closed forms (1e-9) and "
        f"{len(SWEEP_R_INNER)}+{len(SWEEP_R_OUTER)} reference points (1e-5) "
        f"in {elapsed:.2f}s"
    )


def test_criterion_2_gap_series_reference_points(announce):
    start = time.perf_counter()
    checked = 0
    for (alpha, which), series in GAP_SERIES.items():
        for t, expected in enumerate(series, start=1):
            prof = theta_profile(conditional_table(symmetric_chain(3, alpha), t))
            inv = rate_inner(prof) if which == "inner" else rate_outer(prof)
            assert 1 / inv == pytest.approx(expected, abs=1e-5), (alpha, which, t)
            checked += 1
    assert checked == 24
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(
        f"PASS criterion 2: all 24 per-gap reference rates matched to 1e-5 "
        f"in {elapsed:.2f}s"
    )


def test_criterion_3_two_state_bounds_meet_the_lp_optimum(announce):
    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(50):
        P = random_chain(rng, 2)
        for delta in range(1, 6):
            cond = conditional_table(P, delta)
            prof = theta_profile(cond)
            vals = [
                rate_inner(prof),
                rate_outer(prof),
                solve_simplex(formulate_lp(cond)).value,
            ]
            spread = max(vals) - min(vals)
            worst = max(worst, spread)
            assert spread < 1e-7
    announce(
        f"PASS criterion 3: 50 two-state chains x gaps 1..5, bounds and LP "
        f"agree (worst spread {worst:.2e} < 1e-7)"
    )


def test_criterion_4_symmetric_closed_form_meets_bounds_and_lp(announce):
    checked_lp = 0
    for n in (3, 4, 5):
        for alpha in (1 / n, 0.5, 0.8, 1 - 1e-3):
            if alpha < 1 / n:
                continue
            for delta in range(1, 5):
                cf = closed_form_symmetric(n, alpha, delta)
                cond = conditional_table(symmetric_chain(n, alpha), delta)
                prof = theta_profile(cond)
                assert rate_inner(prof) == pytest.approx(cf, abs=1e-9)
                assert rate_outer(prof) == pytest.approx(cf, abs=1e-9)
                if n <= 4:
                    value = solve_simplex(formulate_lp(cond)).value
                    assert value == pytest.approx(cf, abs=1e-6)
                    checked_lp += 1
    announce(
        f"PASS criterion 4: closed form = inner = outer for n in 3..5, and "
        f"{checked_lp} LP optima agree to 1e-6 for n <= 4"
    )


def test_criterion_5_construction_passes_full_verification(announce):
    start = time.perf_counter()
    rng = np.random.default_rng(501)
    for trial in range(500):
        n = int(rng.integers(2, 7))
        delta = int(rng.integers(0, 7))
        P = random_chain(rng, n)
        cond = conditional_table(P, delta)
        prof = theta_profile(cond)
        s = build_scheme(prof, cond)
        report = check_scheme(s, cond, prof, tol=1e-9)
        assert report.decodability_violations == [], (trial, n, delta)
        assert report.max_privacy_gap < 1e-9, (trial, n, delta)
        assert report.max_marginal_error < 1e-9, (trial, n, delta)
        assert report.max_size_law_error < 1e-9, (trial, n, delta)
        assert report.expected_cost <= rate_inner(prof) + 1e-9
        assert report.entry_count <= n * n * n**4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(
        f"PASS criterion 5: 500 random constructions verified at 1e-9 "
        f"in {elapsed:.1f}s (< 30s)"
    )


def test_criterion_6_lp_is_sandwiched_and_never_beaten_by_the_scheme(announce):
    rng = np.random.default_rng(601)
    for _ in range(100):
        P = random_chain(rng, 3)
        delta = int(rng.integers(1, 4))
        cond = conditional_table(P, delta)
        prof = theta_profile(cond)
        value = solve_simplex(formulate_lp(cond)).value
        assert rate_outer(prof) - 1e-8 <= value <= rate_inner(prof) + 1e-8
        s = collapse_to_sets(build_scheme(prof, cond))
        prior = np.full(cond.m, 1.0 / cond.m)
        assert expected_cost(s, cond, prior) >= value - 1e-8
    announce(
        "PASS criterion 6: 100 three-state LP optima sit between the bounds "
        "and below no scheme cost (1e-8)"
    )


def test_criterion_7_always_on_schedule_downloads_everything(announce):
    cfg = SimConfig(
        chain=symmetric_chain(3, 0.6),
        schedule=PrivacySchedule("always-on"),
        horizon=100,
        seed=7,
    )
    trace = run_simulation(cfg)
    assert {trace.query_keys[i] for i in set(trace.query_ids.tolist())} == {(0, 1, 2)}
    assert average_download_rate(trace)["overall"] == 1 / 3
    announce(
        "PASS criterion 7: always-on schedule sends only full downloads, "
        "rate exactly 1/3"
    )


def test_criterion_8_end_to_end_simulation_with_fault_injection(announce):
    start = time.perf_counter()
    P = symmetric_chain(3, 0.6)

    # a single on-step yields one sample per gap value, too few for any
    # frequency test; this run documents that limit
    small = run_simulation(
        SimConfig(
            chain=P,
            schedule=PrivacySchedule("off-after-0"),
            horizon=200,
            seed=0,
        )
    )
    assert small.decodes().all()
    with pytest.raises(InsufficientSamples):
        empirical_privacy_test(small, 1)

    # the gap-2 periodic schedule revisits gap 1 every other step, giving
    # 1e5 samples at the same gap value for the frequency tests
    cfg = SimConfig(
        chain=P,
        schedule=PrivacySchedule("periodic", 2),
        horizon=200_000,
        seed=0,
    )
    trace = run_simulation(cfg)
    assert trace.decode_failures() == 0

    count = int(trace.gap_counts[1])
    mean_q = int(trace.gap_size_sums[1]) / count
    assert count >= 99_000
    assert mean_q == pytest.approx(2.454545, abs=0.01)

    stats = empirical_privacy_test(trace, 1)
    assert stats.max_tv_gap < 0.02
    assert not stats.flags_dependence()

    # shift 0.1 probability mass between two queries of one context: the
    # marginals survive, so only the frequency test can catch it
    honest = build_scheme_for_gap(P, 1)
    entries = entries_of(honest)
    entries[((0, 1, 2), 0, 0)] -= 0.1
    entries[((0,), 0, 0)] = entries.get(((0,), 0, 0), 0.0) + 0.1
    bad = scheme_from_entries(3, 1, "set", entries)
    faulty = run_simulation(cfg, scheme_overrides={1: bad})
    assert faulty.decodes().all()
    fault_stats = empirical_privacy_test(faulty, 1)
    assert fault_stats.flags_dependence()
    assert fault_stats.max_tv_gap > 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    announce(
        f"PASS criterion 8: 2e5-step run clean (tv gap "
        f"{stats.max_tv_gap:.4f} < 0.02, mean size {mean_q:.4f}), injected "
        f"fault flagged (tv gap {fault_stats.max_tv_gap:.4f}) in {elapsed:.1f}s"
    )
