"""Discrete-time Markov chains and probabilistic reachability.

§IV.B calls for "stochastic processes or uncertainty quantification
techniques" and "quantitative model checking".  A :class:`Dtmc` supports
the two standard quantitative queries via numpy linear solves (numpy is
imported by the methods that solve, so a run that builds no chain never
loads it):

* ``reachability_probability(targets)`` -- P(eventually reach target set)
  per state, solving ``x = A x + b`` on the non-target, non-doomed states;
* ``expected_steps(targets)`` -- expected hitting time where reaching is
  almost sure (infinity otherwise);
* ``bounded_reachability(targets, k)`` -- P(reach within k steps) by value
  iteration;
* ``stationary_distribution()`` -- for irreducible chains, the long-run
  state distribution (power iteration with analytic fallback).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple


class Dtmc:
    """A finite discrete-time Markov chain."""

    def __init__(self, name: str = "dtmc") -> None:
        self.name = name
        self._states: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self._rows: Dict[int, Dict[int, float]] = {}
        self._initial: Optional[int] = None

    # -- construction --------------------------------------------------------- #
    def add_state(self, state: Hashable, initial: bool = False) -> None:
        if state in self._index:
            raise ValueError(f"state {state!r} already exists")
        self._index[state] = len(self._states)
        self._states.append(state)
        self._rows[self._index[state]] = {}
        if initial:
            self._initial = self._index[state]

    def set_transition(self, src: Hashable, dst: Hashable, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} out of [0,1]")
        i, j = self._index[src], self._index[dst]
        self._rows[i][j] = probability

    def validate(self) -> None:
        """Check that every state's outgoing probabilities sum to 1."""
        for i, row in self._rows.items():
            total = sum(row.values())
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                raise ValueError(
                    f"state {self._states[i]!r} row sums to {total}, not 1"
                )

    # -- access ---------------------------------------------------------------- #
    @property
    def states(self) -> List[Hashable]:
        return list(self._states)

    @property
    def state_count(self) -> int:
        return len(self._states)

    def transition_matrix(self) -> "np.ndarray":
        import numpy as np

        n = self.state_count
        matrix = np.zeros((n, n))
        for i, row in self._rows.items():
            for j, p in row.items():
                matrix[i, j] = p
        return matrix

    # -- queries ---------------------------------------------------------------- #
    def reachability_probability(
        self, targets: Iterable[Hashable]
    ) -> Dict[Hashable, float]:
        """P(eventually reach ``targets``) from every state.

        Standard three-partition solve: states that cannot reach the
        target at all get probability 0; target states get 1; the rest
        solve the linear system ``(I - A) x = b``.
        """
        import numpy as np

        self.validate()
        target_idx = {self._index[t] for t in targets}
        n = self.state_count
        can_reach = self._backward_reachable(target_idx)
        result = np.zeros(n)
        for i in target_idx:
            result[i] = 1.0
        # Unknowns: states that can reach the target but are not targets;
        # everything else is doomed (probability 0, already set).
        unknown = sorted(can_reach - target_idx)
        if unknown:
            pos = {i: k for k, i in enumerate(unknown)}
            a = np.zeros((len(unknown), len(unknown)))
            b = np.zeros(len(unknown))
            for i in unknown:
                for j, p in self._rows[i].items():
                    if j in target_idx:
                        b[pos[i]] += p
                    elif j in pos:
                        a[pos[i], pos[j]] += p
                    # transitions to doomed states contribute 0
            x = np.linalg.solve(np.eye(len(unknown)) - a, b)
            for i in unknown:
                result[i] = float(np.clip(x[pos[i]], 0.0, 1.0))
        return {self._states[i]: float(result[i]) for i in range(n)}

    def bounded_reachability(
        self, targets: Iterable[Hashable], steps: int
    ) -> Dict[Hashable, float]:
        """P(reach ``targets`` within ``steps``) by value iteration."""
        import numpy as np

        self.validate()
        if steps < 0:
            raise ValueError("steps must be non-negative")
        target_idx = {self._index[t] for t in targets}
        n = self.state_count
        x = np.zeros(n)
        for i in target_idx:
            x[i] = 1.0
        matrix = self.transition_matrix()
        for _ in range(steps):
            x_next = matrix @ x
            for i in target_idx:
                x_next[i] = 1.0
            x = x_next
        return {self._states[i]: float(x[i]) for i in range(n)}

    def expected_steps(self, targets: Iterable[Hashable]) -> Dict[Hashable, float]:
        """Expected hitting time of ``targets``; inf where not a.s. reached."""
        import numpy as np

        self.validate()
        probabilities = self.reachability_probability(targets)
        target_idx = {self._index[t] for t in targets}
        n = self.state_count
        sure = {
            i for i in range(n)
            if math.isclose(probabilities[self._states[i]], 1.0, abs_tol=1e-9)
        }
        unknown = sorted(sure - target_idx)
        result = {s: math.inf for s in self._states}
        for i in target_idx:
            result[self._states[i]] = 0.0
        if unknown:
            pos = {i: k for k, i in enumerate(unknown)}
            a = np.zeros((len(unknown), len(unknown)))
            b = np.ones(len(unknown))
            for i in unknown:
                for j, p in self._rows[i].items():
                    if j in pos:
                        a[pos[i], pos[j]] += p
            x = np.linalg.solve(np.eye(len(unknown)) - a, b)
            for i in unknown:
                result[self._states[i]] = float(x[pos[i]])
        return result

    def stationary_distribution(self, tol: float = 1e-12) -> Dict[Hashable, float]:
        """Long-run distribution via the left-eigenvector linear system."""
        import numpy as np

        self.validate()
        matrix = self.transition_matrix()
        n = self.state_count
        # Solve pi (P - I) = 0 with sum(pi) = 1: replace one equation.
        a = (matrix.T - np.eye(n))
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        pi = np.linalg.solve(a, b)
        if np.any(pi < -1e-8):
            raise ValueError("no valid stationary distribution (chain may be reducible)")
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
        return {self._states[i]: float(pi[i]) for i in range(n)}

    # -- helpers ------------------------------------------------------------ #
    def _backward_reachable(self, target_idx: Set[int]) -> Set[int]:
        """States from which the target set is reachable with prob > 0."""
        predecessors: Dict[int, List[int]] = {i: [] for i in range(self.state_count)}
        for i, row in self._rows.items():
            for j, p in row.items():
                if p > 0.0:
                    predecessors[j].append(i)
        seen = set(target_idx)
        frontier = list(target_idx)
        while frontier:
            current = frontier.pop()
            for predecessor in predecessors[current]:
                if predecessor not in seen:
                    seen.add(predecessor)
                    frontier.append(predecessor)
        return seen


def availability_dtmc(failure_rate: float, repair_rate: float,
                      name: str = "availability") -> Tuple[Dtmc, float]:
    """The classic two-state up/down chain, plus its analytic availability.

    Returned analytic value ``repair / (failure + repair)`` is the check
    oracle used by tests and the Fig. 2 artifact.
    """
    if not 0.0 < failure_rate < 1.0 or not 0.0 < repair_rate < 1.0:
        raise ValueError("rates must be in (0, 1)")
    chain = Dtmc(name)
    chain.add_state("up", initial=True)
    chain.add_state("down")
    chain.set_transition("up", "down", failure_rate)
    chain.set_transition("up", "up", 1.0 - failure_rate)
    chain.set_transition("down", "up", repair_rate)
    chain.set_transition("down", "down", 1.0 - repair_rate)
    analytic = repair_rate / (failure_rate + repair_rate)
    return chain, analytic
