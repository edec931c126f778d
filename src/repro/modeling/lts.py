"""Labelled transition systems.

The modeling substrate of §IV.B: states carry atomic-proposition labels
(a Kripke structure), transitions carry action names.  Builders can
construct systems explicitly, compose them in parallel (interleaving with
synchronization on shared actions -- how component models combine into a
system model), or generate them from factory functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class State:
    """An LTS state: an id plus its atomic-proposition labels."""

    state_id: Hashable
    labels: FrozenSet[str] = frozenset()

    def has(self, proposition: str) -> bool:
        return proposition in self.labels


class LabelledTransitionSystem:
    """A finite LTS / Kripke structure."""

    def __init__(self, name: str = "lts") -> None:
        self.name = name
        self._states: Dict[Hashable, State] = {}
        self._transitions: Dict[Hashable, List[Tuple[str, Hashable]]] = {}
        self._initial: Optional[Hashable] = None

    # -- construction --------------------------------------------------------- #
    def add_state(
        self, state_id: Hashable, labels: Iterable[str] = (), initial: bool = False
    ) -> State:
        if state_id in self._states:
            raise ValueError(f"state {state_id!r} already exists in {self.name!r}")
        state = State(state_id, frozenset(labels))
        self._states[state_id] = state
        self._transitions[state_id] = []
        if initial:
            self.set_initial(state_id)
        return state

    def set_initial(self, state_id: Hashable) -> None:
        if state_id not in self._states:
            raise KeyError(f"unknown state {state_id!r}")
        self._initial = state_id

    def add_transition(self, src: Hashable, action: str, dst: Hashable) -> None:
        for endpoint in (src, dst):
            if endpoint not in self._states:
                raise KeyError(f"unknown state {endpoint!r}")
        self._transitions[src].append((action, dst))

    # -- access ----------------------------------------------------------------#
    @property
    def initial(self) -> State:
        if self._initial is None:
            raise ValueError(f"LTS {self.name!r} has no initial state")
        return self._states[self._initial]

    def state(self, state_id: Hashable) -> State:
        return self._states[state_id]

    def has_state(self, state_id: Hashable) -> bool:
        return state_id in self._states

    @property
    def states(self) -> List[State]:
        return list(self._states.values())

    @property
    def state_count(self) -> int:
        return len(self._states)

    @property
    def transition_count(self) -> int:
        return sum(len(ts) for ts in self._transitions.values())

    def successors(self, state_id: Hashable) -> List[Tuple[str, State]]:
        return [(a, self._states[d]) for (a, d) in self._transitions.get(state_id, ())]

    def actions(self) -> Set[str]:
        return {a for ts in self._transitions.values() for (a, _) in ts}

    def reachable_states(self) -> Set[Hashable]:
        """States reachable from the initial state (BFS)."""
        seen = {self.initial.state_id}
        frontier = [self.initial.state_id]
        while frontier:
            current = frontier.pop()
            for _, successor in self.successors(current):
                if successor.state_id not in seen:
                    seen.add(successor.state_id)
                    frontier.append(successor.state_id)
        return seen

    def deadlock_states(self) -> Set[Hashable]:
        """Reachable states with no outgoing transition."""
        return {
            s for s in self.reachable_states() if not self._transitions.get(s)
        }

    # -- composition ----------------------------------------------------------- #
    def parallel(self, other: "LabelledTransitionSystem",
                 sync_actions: Optional[Set[str]] = None) -> "LabelledTransitionSystem":
        """Parallel composition, synchronizing on ``sync_actions``.

        Actions in ``sync_actions`` (default: the intersection of both
        alphabets) must fire jointly; all other actions interleave.  State
        labels are unioned.  Only the reachable product is constructed.
        """
        sync = sync_actions if sync_actions is not None else (self.actions() & other.actions())
        product = LabelledTransitionSystem(name=f"{self.name}||{other.name}")
        init = (self.initial.state_id, other.initial.state_id)
        product.add_state(
            init, self.initial.labels | other.initial.labels, initial=True
        )
        frontier = [init]
        while frontier:
            (left_id, right_id) = current = frontier.pop()
            moves: List[Tuple[str, Tuple[Hashable, Hashable]]] = []
            left_succ = self.successors(left_id)
            right_succ = other.successors(right_id)
            for action, successor in left_succ:
                if action in sync:
                    for r_action, r_successor in right_succ:
                        if r_action == action:
                            moves.append((action, (successor.state_id, r_successor.state_id)))
                else:
                    moves.append((action, (successor.state_id, right_id)))
            for action, successor in right_succ:
                if action not in sync:
                    moves.append((action, (left_id, successor.state_id)))
            for action, (next_left, next_right) in moves:
                next_state = (next_left, next_right)
                if not product.has_state(next_state):
                    labels = self.state(next_left).labels | other.state(next_right).labels
                    product.add_state(next_state, labels)
                    frontier.append(next_state)
                product.add_transition(current, action, next_state)
        return product


def build_device_lifecycle_lts(device_id: str = "device") -> LabelledTransitionSystem:
    """The canonical per-device model: up / degraded / down / recovering.

    Used in examples, the Fig. 2 artifact, and as the component
    model in parallel compositions.
    """
    lts = LabelledTransitionSystem(name=f"lifecycle:{device_id}")
    lts.add_state("up", labels={"up", "serving"}, initial=True)
    lts.add_state("degraded", labels={"up"})
    lts.add_state("down", labels={"down"})
    lts.add_state("recovering", labels={"down", "recovering"})
    lts.add_transition("up", "degrade", "degraded")
    lts.add_transition("up", "crash", "down")
    lts.add_transition("degraded", "crash", "down")
    lts.add_transition("degraded", "repair", "up")
    lts.add_transition("down", "start_recovery", "recovering")
    lts.add_transition("recovering", "recovered", "up")
    return lts


def build_chain_lts(length: int, name: str = "chain") -> LabelledTransitionSystem:
    """A linear chain of ``length`` states; scaling fixture for benchmarks."""
    if length < 1:
        raise ValueError("length must be >= 1")
    lts = LabelledTransitionSystem(name=name)
    lts.add_state(0, labels={"start"}, initial=True)
    for i in range(1, length):
        labels = {"end"} if i == length - 1 else set()
        lts.add_state(i, labels=labels)
        lts.add_transition(i - 1, "step", i)
    return lts


def build_grid_lts(width: int, height: int, name: str = "grid") -> LabelledTransitionSystem:
    """A width x height grid with right/down moves; O(w*h) states for
    checker scaling measurements."""
    lts = LabelledTransitionSystem(name=name)
    for x in range(width):
        for y in range(height):
            labels = set()
            if (x, y) == (0, 0):
                labels.add("start")
            if (x, y) == (width - 1, height - 1):
                labels.add("goal")
            lts.add_state((x, y), labels=labels, initial=(x, y) == (0, 0))
    for x in range(width):
        for y in range(height):
            if x + 1 < width:
                lts.add_transition((x, y), "right", (x + 1, y))
            if y + 1 < height:
                lts.add_transition((x, y), "down", (x, y + 1))
            if x + 1 >= width and y + 1 >= height:
                lts.add_transition((x, y), "stay", (x, y))
    return lts
