import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onoffpriv.markov import (
    MIXED_TOL,
    ConditionalTable,
    TransitionMatrix,
    ZeroContextProbability,
    chain_from_dict,
    conditional_table,
    matrix_power,
    matrix_powers,
    symmetric_chain,
    symmetric_sigmas,
    u_index,
    u_pair,
)

from conftest import ROUNDING_TWO_CYCLE, symmetric_table


class TestTransitionMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix(entries=np.ones((2, 3)) / 3)

    def test_rejects_single_state(self):
        with pytest.raises(ValueError):
            TransitionMatrix(entries=np.ones((1, 1)))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix(entries=np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            TransitionMatrix(entries=np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_entries_are_read_only(self):
        P = symmetric_chain(3, 0.6)
        with pytest.raises(ValueError):
            P.entries[0, 0] = 0.0

    def test_strict_positivity_flag(self):
        assert symmetric_chain(3, 0.6).is_strictly_positive()
        assert not symmetric_chain(3, 0.0).is_strictly_positive()

    def test_dict_round_trip(self, rng, chain_factory):
        P = chain_factory(rng, 4)
        Q = chain_from_dict({"n": P.n, "rows": P.entries.tolist()})
        assert np.array_equal(P.entries, Q.entries)

    def test_symmetric_dict_form(self):
        P = chain_from_dict({"symmetric": {"n": 3, "alpha": 0.6}})
        assert np.array_equal(P.entries, symmetric_chain(3, 0.6).entries)


class TestContextIndex:
    def test_round_trip_all_pairs(self):
        for n in (2, 3, 5):
            for a in range(n):
                for b in range(n):
                    assert u_pair(u_index(a, b, n), n) == (a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            u_index(3, 0, 3)
        with pytest.raises(ValueError):
            u_pair(9, 3)


# periodic chains, whose powers never reach a fixed point: a 3-cycle; a
# bipartite 4-state chain, whose powers alternate between two limits; and a
# chain that leaves state 0 at once for a 2-cycle between states 1 and 2
THREE_CYCLE = TransitionMatrix(np.roll(np.eye(3), 1, axis=1))
BIPARTITE = TransitionMatrix(
    [[0, 0, 0.4, 0.6], [0, 0, 0.9, 0.1], [0.8, 0.2, 0, 0], [0.3, 0.7, 0, 0]]
)
INTO_A_FLIP = TransitionMatrix([[0, 0.5, 0.5], [0, 0, 1], [0, 1, 0]])


def has_mixed(power) -> bool:
    """Each column of power spreads across its rows by at most MIXED_TOL
    of its largest entry."""
    return bool((np.ptp(power, axis=0) <= MIXED_TOL * power.max(axis=0)).all())


def check_walk(P, start, stop, power_at):
    """matrix_powers over range(start, stop) yields power_at(delta) bit for
    bit, and its first names a gap with the same bits; returns the firsts."""
    walked = list(matrix_powers(P, start, stop))
    assert len(walked) == stop - start
    for delta, (first, power) in enumerate(walked, start):
        assert power.tobytes() == power_at(delta).tobytes(), delta
        assert first <= delta, delta
        assert power_at(first).tobytes() == power.tobytes(), delta
    return [first for first, _ in walked]


class TestMatrixPower:
    def test_two_step_symmetric_chain(self):
        # frozen: second power of the 3-state chain with self-loop 0.6
        P2 = matrix_power(symmetric_chain(3, 0.6), 2)
        assert np.allclose(np.diag(P2), 0.44, atol=1e-12)
        off = P2[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.28, atol=1e-12)

    def test_matches_library_power(self, rng, chain_factory):
        P = chain_factory(rng, 4)
        for delta in (0, 1, 3, 7):
            expected = np.linalg.matrix_power(P.entries, delta)
            assert np.allclose(matrix_power(P, delta), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "P",
        [symmetric_chain(3, 0.6), symmetric_chain(5, 0.95), symmetric_chain(2, 0.0)]
        + [
            TransitionMatrix(np.random.default_rng(s).dirichlet(np.full(n, c), size=n))
            for s, n, c in ((0, 7, 0.2), (1, 12, 1.0), (2, 20, 5.0))
        ]
        + [THREE_CYCLE, BIPARTITE, INTO_A_FLIP, ROUNDING_TWO_CYCLE],
    )
    def test_same_bits_as_every_product_taken(self, P):
        # the walk takes products until one has mixed, which it holds for
        # every later gap, or until one repeats the product saved at the
        # last power-of-two step, and every later product repeats with the
        # period found
        taken = [np.eye(P.n)]
        for _ in range(1100):
            last = taken[-1]
            taken.append(last if has_mixed(last) else last @ P.entries)
        for delta in range(201):
            assert matrix_power(P, delta).tobytes() == taken[delta].tobytes(), delta
        # every chain here is held, or finds its period, by product 1025;
        # the windows start at the identity, near or inside the hold or
        # the cycle, and past it
        for start in (0, 60, 131, 600, 1050):
            firsts = check_walk(P, start, 1101, taken.__getitem__)
            assert firsts[-1] < 1100

    @pytest.mark.parametrize(
        "P", [symmetric_chain(2, 0.0), THREE_CYCLE, BIPARTITE, INTO_A_FLIP]
    )
    def test_a_huge_gap_lands_on_the_cycle(self, P):
        # each chain's products repeat with a period dividing 6 from
        # product 100 on (the bipartite chain's from product 55 on)
        taken = [np.eye(P.n)]
        for _ in range(105):
            taken.append(taken[-1] @ P.entries)

        def power_at(delta):
            return taken[delta if delta < 100 else 100 + (delta - 100) % 6]

        for delta in (10**12, 10**12 + 1, 10**12 + 2, 3**30):
            assert matrix_power(P, delta).tobytes() == power_at(delta).tobytes(), delta
        # windows from the identity, inside the cycle and far past it
        huge = ((10**12, 10**12 + 13), (3**30, 3**30 + 7))
        for start, stop in ((0, 120), (100, 140)) + huge:
            check_walk(P, start, stop, power_at)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            matrix_power(symmetric_chain(2, 0.5), -1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=8),
        concentration=st.sampled_from([0.2, 1.0, 5.0]),
    )
    def test_a_held_power_keeps_every_later_table(self, seed, n, concentration):
        # the computed products past the hold drift in their last bits, the
        # row sums too, but the likelihood tables they give stay within
        # MIXED_TOL of the held power's
        P = TransitionMatrix(
            np.random.default_rng(seed).dirichlet(np.full(n, concentration), size=n)
        )
        taken = [np.eye(n)]
        for _ in range(2000):
            taken.append(taken[-1] @ P.entries)
        held = None
        for delta, (first, power) in enumerate(matrix_powers(P, 0, 2001)):
            # up to the hold, or to a cycle, each power is a product taken
            assert power.tobytes() == taken[first].tobytes(), delta
            if first == delta or not has_mixed(power):
                continue
            if held is None:
                held = conditional_table(P, first, power=power).values
            walked = conditional_table(P, delta, power=taken[delta]).values
            assert np.abs(walked - held).max() <= MIXED_TOL, delta


class TestConditionalTable:
    def test_zero_gap_rows_are_indicators(self, rng, chain_factory):
        P = chain_factory(rng, 3)
        cond = conditional_table(P, 0)
        for u in range(cond.m):
            xtau, _ = u_pair(u, 3)
            row = np.zeros(3)
            row[xtau] = 1.0
            assert np.allclose(cond.values[u], row, atol=1e-12)

    def test_uniform_chain_is_memoryless(self):
        P = symmetric_chain(4, 0.25)
        for delta in (1, 2, 5):
            cond = conditional_table(P, delta)
            assert np.allclose(cond.values, 0.25, atol=1e-12)

    def test_rows_stay_stochastic_at_large_gap(self, rng, chain_factory):
        P = chain_factory(rng, 5)
        cond = conditional_table(P, 50)
        assert np.allclose(cond.values.sum(axis=1), 1.0, atol=1e-9)
        assert cond.values.min() >= 0.0

    def test_relabeling_states_permutes_the_table(self, rng, chain_factory):
        n = 4
        P = chain_factory(rng, n)
        perm = rng.permutation(n)
        Q = TransitionMatrix(entries=P.entries[np.ix_(perm, perm)])
        condP = conditional_table(P, 2)
        condQ = conditional_table(Q, 2)
        for a in range(n):
            for b in range(n):
                u_new = u_index(a, b, n)
                u_old = u_index(perm[a], perm[b], n)
                assert np.allclose(
                    condQ.values[u_new], condP.values[u_old][perm], atol=1e-12
                )

    def test_unreachable_context_raises(self):
        P = TransitionMatrix(entries=np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ZeroContextProbability):
            conditional_table(P, 0)

    def test_validates_shape_and_mass(self):
        with pytest.raises(ValueError):
            ConditionalTable(n=2, delta=1, values=np.ones((3, 2)) / 2)
        with pytest.raises(ValueError):
            ConditionalTable(n=2, delta=1, values=np.full((4, 2), 0.3))


class TestNonFinite:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=5),
        pos=st.integers(min_value=0),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        table=st.booleans(),
    )
    def test_any_non_finite_entry_is_rejected(self, n, pos, bad, table):
        # NaN fails every sign and row-sum comparison, so only an explicit
        # finiteness check stops it
        if table:
            values = conditional_table(symmetric_chain(n, 0.6), 1).values.copy()
            values.flat[pos % values.size] = bad
            with pytest.raises(ValueError, match="finite"):
                ConditionalTable(n=n, delta=1, values=values)
        else:
            entries = symmetric_chain(n, 0.6).entries.copy()
            entries.flat[pos % entries.size] = bad
            with pytest.raises(ValueError, match="finite"):
                TransitionMatrix(entries=entries)


class TestSymmetricSigmas:
    def test_frozen_values_for_one_step_gap(self):
        # frozen: n=3, alpha=0.6, delta=1 in exact fractions
        s1, s2, s3, s4, s5 = symmetric_sigmas(3, 0.6, 1)
        assert s1 == pytest.approx(9 / 11, abs=1e-12)
        assert s2 == pytest.approx(3 / 7, abs=1e-12)
        assert s3 == pytest.approx(3 / 7, abs=1e-12)
        assert s4 == pytest.approx(1 / 11, abs=1e-12)
        assert s5 == pytest.approx(1 / 7, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        alpha_frac=st.floats(min_value=0.01, max_value=0.99),
        delta=st.integers(min_value=1, max_value=1100),
    )
    def test_pattern_matches_general_table(self, n, alpha_frac, delta):
        # the five-case pattern must agree with the general computation
        alpha = alpha_frac
        table = symmetric_table(n, delta, symmetric_sigmas(n, alpha, delta))
        cond = conditional_table(symmetric_chain(n, alpha), delta)
        assert np.allclose(table.values, cond.values, atol=1e-10)

    def test_rejects_zero_gap(self):
        with pytest.raises(ValueError):
            symmetric_sigmas(3, 0.6, 0)
