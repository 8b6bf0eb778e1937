"""Partner selection and socially-aware reward machinery.

An agent's partner is the other agent whose planned path conflicts with its
own the most: shared cells visited with differing movement directions
accumulate decay-weighted overlap, same-direction co-visits contribute
nothing. Fixed partners persist until the overlap with them drops to zero.
The SVO angle then redistributes external rewards between an agent and its
partner, and the stability target blends consecutive SVO distributions with
a weight driven by that same overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mapgen import GridMap
from .pathing import STOP, NoPathError, PathFlow, astar_path

DEFAULT_OVERLAP_DECAY = 0.95
DEFAULT_SVO_IMPORTANCE = 2.0
DEFAULT_OVERLAP_CAP = 1.0  # saturation bound for the stability blend weight
DEFAULT_SVO_BINS = 5


def svo_bin_angles(n_bins: int = DEFAULT_SVO_BINS) -> np.ndarray:
    """Bin-center angles in degrees, uniform over [0, 45]."""
    if n_bins < 2:
        raise ValueError("need at least 2 SVO bins")
    return np.linspace(0.0, 45.0, n_bins)


@dataclass
class OverlapResult:
    """Weighted path-flow overlap matrix plus derived temporary partners.

    visits and hits are what the next step's call reuses (see compute_overlap).
    """

    matrix: np.ndarray          # symmetric n x n, zero diagonal
    partners: np.ndarray        # temporary partner per agent (self = no conflict)
    flows: list[PathFlow]       # per-agent planned flow used for the overlap
    unreachable: list[int]      # agents whose goal had no path this step
    # per agent, its flow as cell -> (t, direction)
    visits: list[dict] = field(repr=False)
    # symmetric n x n: the pair shares a cell with differing directions. A hit
    # can sum to 0.0 (decay ** t underflows on long paths), so the matrix
    # cannot stand in for it.
    hits: np.ndarray = field(repr=False)


def compute_overlap(
    grid: GridMap,
    positions: list[tuple[int, int]],
    goals: list[tuple[int, int]],
    decay: float = DEFAULT_OVERLAP_DECAY,
    previous: OverlapResult | None = None,
) -> OverlapResult:
    """Pairwise weighted overlap of planned path flows, and temporary partners.

    For every cell both agents visit with differing directions, decay**t_i +
    decay**t_j is added to both matrix entries, t being the cell's index along
    each path (0 = the agent's current cell). A parked goal cell carries STOP,
    which differs from every movement direction, so paths crossing another
    agent's terminal cell do register overlap. Partners are the row argmax
    (lowest index on ties); an all-zero row selects the agent itself.

    previous, this call's result one step earlier on the same map, goals and
    decay, lets the call reuse what the step left unchanged; the result is
    the same, bit for bit. A flow is a function of (position, goal) alone and
    a pair's sum a function of its two flows, so an agent on the same cell
    keeps its flow and visit map, and a pair whose agents both stayed keeps
    its sum. Descent is deterministic (see pathing), so an agent that stepped
    onto vertices[1] of its old flow takes that flow's suffix without
    planning; only first-step and off-flow agents call astar_path. A pair
    without a hit also keeps its zero when each agent stayed or stepped along
    its flow, since the shared cells can only shrink.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    n = len(positions)
    if len(goals) != n:
        raise ValueError("positions and goals must have equal length")
    if previous is not None and len(previous.flows) != n:
        raise ValueError("previous result holds another number of agents")
    flows, visits, unreachable = [], [], []
    stayed, along = [False] * n, [False] * n  # along: stayed or stepped onto the old flow
    was_unreachable = set(previous.unreachable) if previous is not None else ()
    for i, pos in enumerate(positions):
        if previous is not None:
            old = previous.flows[i]
            if old.vertices[0] == pos:
                stayed[i] = along[i] = True
                flows.append(old)
                visits.append(previous.visits[i])
                if i in was_unreachable:
                    unreachable.append(i)
                continue
            along[i] = len(old) > 1 and old.vertices[1] == pos
        if along[i]:
            flow = PathFlow(old.vertices[1:], old.directions[1:])
        else:
            try:
                flow = astar_path(grid, pos, goals[i])
            except NoPathError:  # no path: the agent's flow is a singleton STOP
                flow = PathFlow([pos], [STOP])
                unreachable.append(i)
        flows.append(flow)
        visits.append({v: (t, d) for t, (v, d) in enumerate(zip(flow.vertices, flow.directions))})
    if previous is None:
        matrix = np.zeros((n, n), dtype=np.float64)
        hits = np.zeros((n, n), dtype=bool)
    else:
        matrix = previous.matrix.copy()
        hits = previous.hits.copy()
    had = hits.tolist()
    # Recorded outputs pin each sum's bits: terms are added walking the
    # smaller visit map in path order (agent i's on a tie), and each power is
    # Python's float decay ** t, not a numpy power.
    powers = [decay ** t for t in range(max(map(len, flows), default=0))]
    for i in range(n):
        for j in range(i + 1, n):
            if along[i] and along[j] and ((stayed[i] and stayed[j]) or not had[i][j]):
                continue
            small, large = visits[i], visits[j]
            if len(small) > len(large):
                small, large = large, small
            total, hit = 0.0, False
            for cell, (t_a, d_a) in small.items():
                other = large.get(cell)
                if other is not None and other[1] != d_a:
                    total += powers[t_a] + powers[other[0]]
                    hit = True
            if hit or had[i][j]:
                matrix[i, j] = matrix[j, i] = total
                hits[i, j] = hits[j, i] = hit
    partners = np.arange(n, dtype=np.int64)
    conflicted = matrix.any(axis=1)
    if conflicted.any():
        partners[conflicted] = matrix[conflicted].argmax(axis=1)  # lowest index on ties
    return OverlapResult(matrix, partners, flows, unreachable, visits, hits)


def update_fixed_partners(
    temporary: np.ndarray, overlap: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Keep each fixed partner while overlap with it persists, else re-select.

    Self-partnered agents have zero diagonal overlap, so they re-evaluate
    every step by construction.
    """
    n = len(temporary)
    if overlap.shape != (n, n) or len(previous) != n:
        raise ValueError("inconsistent shapes")
    updated = np.array(previous, dtype=np.int64, copy=True)
    for i in range(n):
        if overlap[i, previous[i]] == 0.0:
            updated[i] = temporary[i]
    return updated


def redistribute_rewards(
    reward_self: float, reward_partner: float, svo_degrees: float,
    importance: float = DEFAULT_SVO_IMPORTANCE,
) -> tuple[float, float]:
    """Split external rewards into the SVO-policy and action-policy streams.

    reward_svo = (own + partner) / importance;
    reward_action = cos(Z) * own + sin(Z) * partner, Z in degrees.
    Self-partnered agents should pass their own reward as the partner reward.
    """
    if not 0.0 <= svo_degrees <= 45.0:
        raise ValueError(f"SVO angle {svo_degrees} outside [0, 45] degrees")
    if not importance > 0:
        raise ValueError("importance factor must be positive")
    z = math.radians(svo_degrees)
    reward_svo = (reward_self + reward_partner) / importance
    reward_action = math.cos(z) * reward_self + math.sin(z) * reward_partner
    return reward_svo, reward_action


def stability_target(
    z_current: np.ndarray, z_previous: np.ndarray, overlap_with_partner: float,
    cap: float = DEFAULT_OVERLAP_CAP,
) -> tuple[float, np.ndarray]:
    """Blend weight and expected SVO distribution for the stability loss.

    alpha = min(o, clip(o, 0, cap)) / cap rises with partner overlap and
    saturates at 1; the expected distribution alpha*z_prev + (1-alpha)*z_cur
    pins the SVO under heavy conflict and frees it as conflict fades.
    """
    if not cap > 0:
        raise ValueError("cap must be positive")
    o = float(overlap_with_partner)
    clipped = min(max(o, 0.0), cap)
    alpha = min(o, clipped) / cap
    z_exp = alpha * np.asarray(z_previous, dtype=np.float64) + (1.0 - alpha) * np.asarray(z_current, dtype=np.float64)
    return alpha, z_exp
