"""Generic birth--death Markov chains on states 1..N.

The paper's Section 5 chain is a lazy birth--death chain: from state
``i`` the system moves down with probability ``q_i``, up with ``p_i``,
and stays put otherwise.  This module provides the chain abstraction
— transition matrix, exact expected first-passage times (both by the
standard one-step recursion and by a dense linear solve), stationary
distribution, and direct simulation — independent of where the
probabilities come from.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from ..rng import RandomSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["BirthDeathChain"]


class BirthDeathChain:
    """A lazy birth--death chain on states ``1..n``.

    Parameters
    ----------
    up:
        ``up[i-1]`` is the probability of moving from state ``i`` to
        ``i+1``; the last entry must be 0.
    down:
        ``down[i-1]`` is the probability of moving from state ``i`` to
        ``i-1``; the first entry must be 0.
    """

    def __init__(self, up: Sequence[float], down: Sequence[float]) -> None:
        if len(up) != len(down):
            raise ValueError("up and down must have equal length")
        if len(up) < 2:
            raise ValueError("need at least two states")
        self.n = len(up)
        self.up = [float(p) for p in up]
        self.down = [float(q) for q in down]
        if self.down[0] != 0.0:
            raise ValueError("state 1 cannot move down")
        if self.up[-1] != 0.0:
            raise ValueError(f"state {self.n} cannot move up")
        for i, (p, q) in enumerate(zip(self.up, self.down), start=1):
            if p < 0 or q < 0:
                raise ValueError(f"negative probability at state {i}")
            if p + q > 1.0 + 1e-12:
                raise ValueError(f"p+q = {p + q} > 1 at state {i}")

    # -- basic structure ---------------------------------------------------

    def p(self, i: int) -> float:
        """Up-probability from state ``i``."""
        self._check_state(i)
        return self.up[i - 1]

    def q(self, i: int) -> float:
        """Down-probability from state ``i``."""
        self._check_state(i)
        return self.down[i - 1]

    def stay(self, i: int) -> float:
        """Self-loop probability of state ``i``."""
        return 1.0 - self.p(i) - self.q(i)

    def _check_state(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"state {i} outside 1..{self.n}")

    def transition_matrix(self) -> "np.ndarray":
        """The full (n x n) row-stochastic transition matrix.

        The dense-matrix views (this and :meth:`hitting_times_dense`)
        are the only numpy users in the chain; numpy is imported
        lazily so the recursion-based hitting times, the stationary
        distribution, and everything built on them (including the
        prediction surrogate) stay pure-Python.
        """
        import numpy as np

        matrix = np.zeros((self.n, self.n))
        for i in range(1, self.n + 1):
            row = i - 1
            if i > 1:
                matrix[row, row - 1] = self.q(i)
            if i < self.n:
                matrix[row, row + 1] = self.p(i)
            matrix[row, row] = self.stay(i)
        return matrix

    # -- expected first-passage times ---------------------------------------

    def expected_steps_up(self) -> list[float]:
        """``h[i-1]`` = expected steps from state ``i`` to ``i+1``.

        Computed by the standard recursion ``h_i = (1 + q_i h_{i-1}) / p_i``;
        ``math.inf`` where the chain cannot ascend.
        """
        h: list[float] = []
        for i in range(1, self.n):
            p, q = self.p(i), self.q(i)
            if p == 0.0:
                h.append(math.inf)
                continue
            prev = h[-1] if i > 1 else 0.0
            h.append((1.0 + q * prev) / p if not math.isinf(prev) else math.inf)
        return h

    def expected_steps_down(self) -> list[float]:
        """``d[i-2]`` = expected steps from state ``i`` to ``i-1`` (i = 2..n)."""
        d_rev: list[float] = []
        for i in range(self.n, 1, -1):
            p, q = self.p(i), self.q(i)
            if q == 0.0:
                d_rev.append(math.inf)
                continue
            nxt = d_rev[-1] if i < self.n else 0.0
            d_rev.append((1.0 + p * nxt) / q if not math.isinf(nxt) else math.inf)
        return list(reversed(d_rev))

    def hitting_time(self, start: int, target: int) -> float:
        """Expected steps from ``start`` to first reach ``target``."""
        self._check_state(start)
        self._check_state(target)
        if start == target:
            return 0.0
        if start < target:
            return sum(self.expected_steps_up()[start - 1 : target - 1])
        return sum(self.expected_steps_down()[target - 1 : start - 1])

    def hitting_times_dense(self, target: int) -> "np.ndarray":
        """Expected steps to ``target`` from every state, by linear solve.

        Solves ``(I - Q) t = 1`` where ``Q`` is the transition matrix
        restricted to the non-target states.  An independent check on
        the recursive formulas.
        """
        import numpy as np

        self._check_state(target)
        keep = [i for i in range(self.n) if i != target - 1]
        matrix = self.transition_matrix()
        q_part = matrix[np.ix_(keep, keep)]
        identity = np.eye(len(keep))
        times_restricted = np.linalg.solve(identity - q_part, np.ones(len(keep)))
        times = np.zeros(self.n)
        for index, state in enumerate(keep):
            times[state] = times_restricted[index]
        return times

    # -- long-run behaviour -----------------------------------------------------

    def stationary_distribution(self) -> list[float]:
        """The stationary distribution ``pi[i-1]`` of state ``i``.

        Pure Python, by the birth--death product form.  The states
        split into intervals whose neighbours communicate both ways;
        inside one, detailed balance gives ``pi_{i+1} = pi_i p_i /
        q_{i+1}`` (computed in logs, so extreme ratios cannot
        overflow).  Transient intervals get no mass.  A single closed
        interval carries all of it; with several (a reducible chain,
        e.g. both end states absorbing) each closed interval's own
        distribution ``pi_c`` is weighted by ``1 / |pi_c|^2`` — the
        minimum-norm solution of ``pi (P - I) = 0, sum(pi) = 1``,
        which is the one a least-squares solve picks.
        """
        n = self.n
        up, down = self.up, self.down
        pi = [0.0] * n
        parts: list[tuple[int, list[float], float]] = []
        start = 0
        for i in range(n):
            if i + 1 < n and up[i] > 0.0 and down[i + 1] > 0.0:
                continue  # i and i+1 communicate: the interval goes on
            if down[start] == 0.0 and up[i] == 0.0:  # no way out: closed
                logs = [0.0]
                for j in range(start, i):
                    logs.append(logs[-1] + math.log(up[j]) - math.log(down[j + 1]))
                top = max(logs)
                weights = [math.exp(v - top) for v in logs]
                total = sum(weights)
                dist = [w / total for w in weights]
                parts.append((start, dist, sum(v * v for v in dist)))
            start = i + 1
        scale = sum(1.0 / norm for _start, _dist, norm in parts)
        for first, dist, norm in parts:
            for offset, mass in enumerate(dist):
                pi[first + offset] = mass / (norm * scale)
        return pi

    def simulate(
        self,
        rng: RandomSource,
        steps: int,
        start: int = 1,
    ) -> list[int]:
        """Simulate the chain for ``steps`` transitions; returns the path."""
        self._check_state(start)
        if steps < 0:
            raise ValueError("steps must be non-negative")
        state = start
        path = [state]
        for _ in range(steps):
            u = rng.random()
            if u < self.q(state):
                state -= 1
            elif u < self.q(state) + self.p(state):
                state += 1
            path.append(state)
        return path
