"""Tests for the generic birth--death chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import BirthDeathChain
from repro.rng import RandomSource


def simple_chain():
    # 4 states, mildly upward-biased.
    return BirthDeathChain(up=[0.5, 0.3, 0.2, 0.0], down=[0.0, 0.1, 0.1, 0.4])


class TestConstruction:
    def test_valid_chain(self):
        chain = simple_chain()
        assert chain.n == 4
        assert chain.p(1) == 0.5
        assert chain.q(4) == 0.4
        assert chain.stay(2) == pytest.approx(0.6)

    def test_boundary_violations_rejected(self):
        with pytest.raises(ValueError):
            BirthDeathChain(up=[0.5, 0.1], down=[0.1, 0.0])  # state 1 moves down
        with pytest.raises(ValueError):
            BirthDeathChain(up=[0.5, 0.1], down=[0.0, 0.0])  # top moves up

    def test_probability_violations_rejected(self):
        with pytest.raises(ValueError):
            BirthDeathChain(up=[-0.1, 0.0], down=[0.0, 0.1])
        with pytest.raises(ValueError):
            BirthDeathChain(up=[0.6, 0.6, 0.0], down=[0.0, 0.6, 0.1])
        with pytest.raises(ValueError):
            BirthDeathChain(up=[0.1], down=[0.0])  # single state

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BirthDeathChain(up=[0.1], down=[0.0, 0.1])

    def test_state_bounds_checked(self):
        chain = simple_chain()
        with pytest.raises(ValueError):
            chain.p(0)
        with pytest.raises(ValueError):
            chain.q(5)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        matrix = simple_chain().transition_matrix()
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_tridiagonal_structure(self):
        matrix = simple_chain().transition_matrix()
        for i in range(4):
            for j in range(4):
                if abs(i - j) > 1:
                    assert matrix[i, j] == 0.0


class TestHittingTimes:
    def test_recursion_matches_dense_solve_up(self):
        chain = simple_chain()
        dense = chain.hitting_times_dense(target=4)
        for start in (1, 2, 3):
            assert chain.hitting_time(start, 4) == pytest.approx(dense[start - 1])

    def test_recursion_matches_dense_solve_down(self):
        chain = simple_chain()
        dense = chain.hitting_times_dense(target=1)
        for start in (2, 3, 4):
            assert chain.hitting_time(start, 1) == pytest.approx(dense[start - 1])

    def test_hitting_time_same_state_is_zero(self):
        assert simple_chain().hitting_time(2, 2) == 0.0

    def test_two_state_closed_form(self):
        chain = BirthDeathChain(up=[0.25, 0.0], down=[0.0, 0.5])
        assert chain.hitting_time(1, 2) == pytest.approx(4.0)
        assert chain.hitting_time(2, 1) == pytest.approx(2.0)

    def test_unreachable_states_are_infinite(self):
        chain = BirthDeathChain(up=[0.0, 0.0, 0.0], down=[0.0, 0.2, 0.2])
        assert math.isinf(chain.hitting_time(1, 3))
        assert chain.hitting_time(3, 1) < math.inf

    def test_simulation_agrees_with_expected_hitting_time(self):
        chain = BirthDeathChain(up=[0.4, 0.4, 0.0], down=[0.0, 0.2, 0.2])
        expected = chain.hitting_time(1, 3)
        rng = RandomSource(seed=12)
        samples = []
        for _ in range(400):
            state, steps = 1, 0
            while state != 3:
                u = rng.random()
                if u < chain.q(state):
                    state -= 1
                elif u < chain.q(state) + chain.p(state):
                    state += 1
                steps += 1
            samples.append(steps)
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(expected, rel=0.15)

    @given(
        ups=st.lists(st.floats(0.05, 0.45), min_size=2, max_size=8),
        downs=st.lists(st.floats(0.05, 0.45), min_size=2, max_size=8),
    )
    @settings(max_examples=40)
    def test_recursive_and_dense_agree_for_random_chains(self, ups, downs):
        n = min(len(ups), len(downs))
        if n < 2:
            return
        up = ups[:n]
        down = downs[:n]
        up[-1] = 0.0
        down[0] = 0.0
        chain = BirthDeathChain(up, down)
        dense_top = chain.hitting_times_dense(target=n)
        dense_bottom = chain.hitting_times_dense(target=1)
        assert chain.hitting_time(1, n) == pytest.approx(dense_top[0], rel=1e-8)
        assert chain.hitting_time(n, 1) == pytest.approx(dense_bottom[-1], rel=1e-8)


def _lstsq_stationary(chain):
    """Reference: solve pi (P - I) = 0, sum(pi) = 1 densely.

    Least squares returns the minimum-norm solution, which is unique
    even when the chain is reducible and the system singular.
    """
    matrix = chain.transition_matrix()
    a = (matrix.T - np.eye(chain.n)).copy()
    a[-1, :] = 1.0
    b = np.zeros(chain.n)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return pi


class TestStationary:
    def test_stationary_sums_to_one_and_is_invariant(self):
        chain = simple_chain()
        pi = chain.stationary_distribution()
        assert sum(pi) == pytest.approx(1.0)
        assert np.allclose(np.array(pi) @ chain.transition_matrix(), pi, atol=1e-10)

    def test_detailed_balance_holds(self):
        chain = simple_chain()
        pi = chain.stationary_distribution()
        for i in range(1, chain.n):
            assert pi[i - 1] * chain.p(i) == pytest.approx(pi[i] * chain.q(i + 1), abs=1e-12)

    def test_absorbing_top_concentrates_mass(self):
        chain = BirthDeathChain(up=[0.5, 0.5, 0.0], down=[0.0, 0.0, 0.0])
        pi = chain.stationary_distribution()
        assert pi[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "up,down",
        [
            ([0.5, 0.3, 0.2, 0.0], [0.0, 0.1, 0.1, 0.4]),  # irreducible
            ([0.5, 0.5, 0.0], [0.0, 0.0, 0.0]),  # absorbing top
            ([0.0, 0.3, 0.0], [0.0, 0.2, 0.0]),  # both ends absorbing
            ([0.0, 0.3, 0.2, 0.0], [0.0, 0.2, 0.0, 0.4]),  # absorbing 1, closed {3,4}
            ([0.3, 0.0, 0.2, 0.0], [0.0, 0.2, 0.0, 0.4]),  # closed {1,2} and {3,4}
            ([0.3, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0]),  # transient-free split
            ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),  # every state absorbing
        ],
    )
    def test_product_form_matches_dense_solve(self, up, down):
        chain = BirthDeathChain(up, down)
        pi = chain.stationary_distribution()
        assert np.allclose(pi, _lstsq_stationary(chain), atol=1e-12)
        assert np.allclose(np.array(pi) @ chain.transition_matrix(), pi, atol=1e-12)

    def test_product_form_matches_dense_solve_on_paper_chains(self):
        from repro.core import RouterTimingParameters
        from repro.markov import synchronization_times

        paper = RouterTimingParameters(n_nodes=20, tp=121.0, tc=0.11, tr=0.1)
        for ratio in (0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0):
            chain = synchronization_times(paper.with_tr(ratio * 0.11), f2=19.0).chain
            pi = chain.stationary_distribution()
            assert sum(pi) == pytest.approx(1.0)
            assert np.allclose(pi, _lstsq_stationary(chain), atol=1e-8), ratio


class TestSimulate:
    def test_path_stays_in_state_space(self):
        chain = simple_chain()
        path = chain.simulate(RandomSource(seed=5), steps=500, start=2)
        assert len(path) == 501
        assert all(1 <= s <= 4 for s in path)
        assert all(abs(b - a) <= 1 for a, b in zip(path, path[1:]))

    def test_invalid_args(self):
        chain = simple_chain()
        with pytest.raises(ValueError):
            chain.simulate(RandomSource(1), steps=-1)
        with pytest.raises(ValueError):
            chain.simulate(RandomSource(1), steps=1, start=0)
