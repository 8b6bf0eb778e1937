"""SVO-ordered conflict resolution for simultaneous joint actions.

Intended actions are screened through a FIFO consideration chain seeded with
agents sorted most-prosocial-first. Moves into obstacles or off the map are
invalid and replaced by idling with a collision penalty; moves that would
produce a vertex or edge conflict are restricted and replaced by idling, with
the penalty routed to the strictly more prosocial member of each conflicting
pair. Idling an agent can break previously valid plans, so affected agents
re-enter the chain; an idled agent is never un-idled, which bounds the chain.
A rotation left when the chain empties idles its most prosocial member.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .inputs import is_number, is_position
from .mapgen import GridMap
from .pathing import ACTION_DELTAS, IDLE, greedy_step

NORMAL = "normal"
INVALIDATED = "invalidated"
RESTRICTED_IDLED = "restricted-idled"

COLLISION_PENALTY = -2.0


class ResolverError(RuntimeError):
    """Internal contract violation (termination bound exceeded)."""


@dataclass
class ResolutionOutcome:
    """Conflict-free joint action with penalty routing and audit trail."""

    actions: np.ndarray      # adjusted action per agent
    penalties: np.ndarray    # COLLISION_PENALTY where assessed, else 0 (pass-through)
    annotations: list[str]   # NORMAL / INVALIDATED / RESTRICTED_IDLED per agent
    iterations: int          # chain pops consumed


def joint_move_fault(before, after) -> tuple[str, tuple[int, ...]] | None:
    """How the joint move of agents from cells before to cells after breaks
    the rule for a legal joint move, or None. The move is legal when no two
    agents end on one cell, swap cells, or rotate: three or more each entering
    the cell the next one leaves (a cycle conflict, Stern et al., SoCS 2019).
    The first fault, checked in order:
    - ("shared", (j, i)): i is the lowest agent that enters a cell an agent
      j < i enters too;
    - ("swap", (i, j)), else ("rotation", cycle): the cycle of agents, each
      entering the cell the next one leaves, that holds the lowest agent of
      any such cycle, listed from it.
    """
    if len(set(after)) < len(after):
        first = {}
        for i, cell in enumerate(after):
            j = first.setdefault(cell, i)
            if j != i:
                return "shared", (j, i)
    occupant = dict(zip(before, range(len(before))))
    # follows[i]: the agent whose cell moving agent i enters; a walk from
    # i stops or closes a cycle, so a cycle is met from its lowest member
    follows = {i: j for i, b in enumerate(after) if (j := occupant.get(b, i)) != i}
    cycles = []
    for i in list(follows):
        walk = [i]
        while walk[-1] in follows:
            walk.append(follows.pop(walk[-1]))
        if len(walk) > 1 and walk[-1] == i:
            cycles.append(tuple(walk[:-1]))
    if not cycles:
        return None
    cycle = min(cycles, key=lambda c: len(c) > 2)
    return "swap" if len(cycle) == 2 else "rotation", cycle


class _JointMove:
    """The resolver's working joint move, as two maps: cell -> agent before
    it and cell -> agents after it. Classifying an agent reads one bucket and
    one lookup, and idling an agent moves it between buckets."""

    def __init__(self, before, after):
        self.before, self.after = before, after
        self.occupant = dict(zip(before, range(len(before))))
        self.entering: dict = {}
        for i, cell in enumerate(self.after):
            self.entering.setdefault(cell, []).append(i)

    def classify(self, grid: GridMap, i: int) -> tuple[str, set[int]]:
        """Agent i's kind under the working joint move: ('invalid', {}) for an
        obstacle or boundary target, ('restricted', conflicts) for a shared
        target or a swap with the agents in conflicts, else ('valid', {})."""
        cell = self.after[i]
        if not grid.is_free(*cell):
            return "invalid", set()
        conflicts = set(self.entering[cell]) - {i}
        j = self.occupant.get(cell, i)
        if j != i and self.after[j] == self.before[i]:
            conflicts.add(j)
        return ("restricted", conflicts) if conflicts else ("valid", set())

    def stay(self, i: int) -> None:
        """Agent i keeps its cell instead of moving."""
        self.entering[self.after[i]].remove(i)
        self.after[i] = self.before[i]
        self.entering.setdefault(self.before[i], []).append(i)


def _as_actions(values: np.ndarray) -> np.ndarray:
    """A copy of values, one entry per agent, as int64 actions. Each entry must
    equal an integer in 0-4: 1.0 is the action 1; 1.5, 7, nan and "1" are none."""
    for i, a in enumerate(values.tolist()):
        if a not in ACTION_DELTAS:
            raise ValueError(f"agent {i}: action {a!r} is not an integer in 0-4")
    return values.astype(np.int64)


def _targets(positions, actions: np.ndarray) -> list[tuple[int, int]]:
    return [(r + ACTION_DELTAS[a][0], c + ACTION_DELTAS[a][1])
            for (r, c), a in zip(positions, actions.tolist())]


def resolve(
    grid: GridMap,
    positions: list[tuple[int, int]],
    intents: np.ndarray,
    svo_degrees: np.ndarray,
) -> ResolutionOutcome:
    """Produce a legal joint action from intended actions and SVOs. A
    ValueError names the first bad input, in this order: a position that is no
    (row, col) tuple of integers or no free cell of the map, an intent that is
    no action 0-4, two agents on one cell, an SVO angle that is no finite
    number in [0, 45]. A bool is neither an integer nor a number here."""
    n = len(positions)
    intents = np.asarray(intents)
    svo = svo_degrees.tolist() if isinstance(svo_degrees, np.ndarray) else svo_degrees
    if intents.shape != (n,) or not isinstance(svo, (list, tuple)) or len(svo) != n:
        raise ValueError("intents and svo_degrees must both have one entry per agent")
    for i, p in enumerate(positions):
        if not is_position(p):
            raise ValueError(f"positions[{i}]: {p!r} is not a (row, col) tuple of two integers")
        if not grid.is_free(*p):
            raise ValueError(f"positions[{i}]: {list(p)} is not a free cell of the "
                             f"{grid.height}x{grid.width} map")
    actions = _as_actions(intents)
    move = _JointMove(positions, _targets(positions, actions))
    if len(move.occupant) < n:
        j, i = joint_move_fault(positions, positions)[1]
        raise ValueError(f"positions[{i}]: agents {j} and {i} share {list(positions[i])}")
    for i, z in enumerate(svo):
        # a float needs only the range test, which NaN and both infinities fail
        if not ((type(z) is float or is_number(z)) and 0 <= z <= 45):
            raise ValueError(f"svos[{i}]: {z} is not an angle in [0, 45] degrees")

    penalties = np.zeros(n, dtype=np.float64)
    annotations = [NORMAL] * n     # an agent idles for good once it leaves NORMAL
    order = sorted(range(n), key=lambda i: (-svo[i], i))
    chain = deque(order)
    queued = set(order)
    max_pops = 4 * n
    iterations = 0

    def idle(i: int, annotation: str, conflicts=()) -> None:
        actions[i] = IDLE
        annotations[i] = annotation
        for j in sorted(conflicts):
            if svo[i] > svo[j]:
                penalties[i] = COLLISION_PENALTY
            elif svo[j] > svo[i]:
                penalties[j] = COLLISION_PENALTY
        # Agent i now permanently occupies its cell; everyone aiming at that
        # cell has a broken plan and must be reconsidered. Only this idling
        # re-queues them, so each agent enters the chain at most twice.
        move.stay(i)
        for j in sorted(move.entering[positions[i]]):
            if annotations[j] == NORMAL and j not in queued:
                chain.append(j)
                queued.add(j)

    while True:
        while chain:
            i = chain.popleft()
            queued.discard(i)
            iterations += 1
            if iterations > max_pops:
                raise ResolverError(f"chain exceeded {max_pops} pops for {n} agents")
            if annotations[i] != NORMAL:
                continue
            kind, conflicts = move.classify(grid, i)
            if kind == "invalid":
                penalties[i] = COLLISION_PENALTY
                idle(i, INVALIDATED)
            elif kind == "restricted":
                idle(i, RESTRICTED_IDLED, conflicts)
            # valid: intended action stands, reward passes through
        # The chain leaves no shared cell and no swap, but it can leave a
        # rotation (of three agents at least): its most prosocial member
        # idles, the cascade the rest.
        fault = joint_move_fault(positions, move.after) if n > 2 else None
        if fault is None:
            return ResolutionOutcome(actions, penalties, annotations, iterations)
        i = min(fault[1], key=lambda k: (-svo[k], k))
        idle(i, RESTRICTED_IDLED, set(fault[1]) - {i})


def greedy_intents(
    grid: GridMap,
    positions: list[tuple[int, int]],
    goals: list[tuple[int, int]],
) -> np.ndarray:
    """Baseline intent generator: first distance-decreasing move, idle on goal."""
    return np.array(
        [greedy_step(grid, pos, goal) for pos, goal in zip(positions, goals)],
        dtype=np.int64,
    )
