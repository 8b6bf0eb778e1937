"""Discrete-time multi-agent gridworld with simultaneous moves.

All agents commit intents, the resolver sanitizes them, and the environment
applies the joint action atomically. The environment never repairs unsafe
input: a joint action that breaks the resolver's rule (no shared vertex, no
swap, no rotation) raises, because the resolver owns conflict handling
(including the collision penalty routing). Per-step external reward composes
the movement cost, the resolver-assigned collision penalty, and the blocking
penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inputs import check_fields, is_int
from .mapgen import Scenario, _separates
from .pathing import IDLE, UNREACHABLE, _bfs, _goal_entry, distance_field
from .resolver import _as_actions, _targets, joint_move_fault
from .social import DEFAULT_OVERLAP_CAP, DEFAULT_OVERLAP_DECAY, DEFAULT_SVO_BINS, DEFAULT_SVO_IMPORTANCE

MOVE_COST = -0.3
IDLE_OFF_GOAL_COST = -0.3
IDLE_ON_GOAL_REWARD = 0.0
BLOCK_PENALTY = -1.0


class ConditionViolation(RuntimeError):
    """Joint action reached the environment unsanitized."""


@dataclass
class EnvConfig:
    max_episode_length: int = 256
    fov: int = 9
    fov_heuristic: int = 5
    svo_bins: int = DEFAULT_SVO_BINS
    overlap_decay: float = DEFAULT_OVERLAP_DECAY
    svo_importance: float = DEFAULT_SVO_IMPORTANCE
    overlap_cap: float = DEFAULT_OVERLAP_CAP
    block_threshold: int = 10
    # Blocking detection walks each agent's dominator chain and searches for a
    # detour when a chain holds a blocker; batch safety fuzzes that
    # never read rewards can turn it off.
    blocking_rewards: bool = True

    def __post_init__(self):
        # The cap is checked after each step, so a cap below 1 would still run one.
        if not (is_int(self.max_episode_length) and self.max_episode_length >= 1):
            raise ValueError(f"max_episode_length must be a positive integer, got {self.max_episode_length!r}")
        # The field of view is centred on the agent, so it needs a middle cell.
        if not (is_int(self.fov) and self.fov > 0 and self.fov % 2 == 1):
            raise ValueError(f"fov must be a positive odd integer, got {self.fov!r}")
        check_fields(self)
        # A negative threshold would count a cell on only some shortest paths
        # as blocking: no detour is shorter than the shortest path. A negative
        # heuristic window draws a blank descent plane, so a sign error would
        # train silently on nothing.
        for name in ("block_threshold", "fov_heuristic"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # social.svo_bin_angles spreads the bins over [0, 45] degrees: two at least.
        if self.svo_bins < 2:
            raise ValueError(f"svo_bins must be >= 2, got {self.svo_bins}")
        if not 0 < self.overlap_decay <= 1:
            raise ValueError(f"overlap_decay must lie in (0, 1], got {self.overlap_decay}")
        for name in ("overlap_cap", "svo_importance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass
class StepOutcome:
    rewards: np.ndarray          # external reward per agent, fully composed
    blocked_counts: np.ndarray   # agents blocked by each agent this step


def obs_length(fov: int, svo_bins: int) -> int:
    """Observation layout: 3 FoV planes, 4 goal-vector slots, own previous and
    partner SVO encodings, and the clamped partner offset."""
    return 3 * fov * fov + 4 + 2 * svo_bins + 2


class Gridworld:
    """One episode's mutable state over a shared read-only map."""

    def __init__(self, scenario: Scenario, config: EnvConfig | None = None):
        self.config = config or EnvConfig()
        self.scenario = scenario
        self.grid = scenario.grid
        self.n = scenario.n_agents
        self.goals = list(scenario.goals)
        self.reset()

    def reset(self) -> None:
        self.positions = list(self.scenario.starts)
        self.t = 0
        self.terminated = False
        k = self.config.svo_bins
        self.partners = np.arange(self.n, dtype=np.int64)
        # standing SVO choice per agent over the bins; uniform before the first
        self.svo = np.full((self.n, k), 1.0 / k)
        # what detect_blocking keeps: each agent's dominator chain for the
        # joint state _chains_at, the on-chain verdicts of that joint state
        # and those of the one before
        self._chains_at = None
        self._chains = []
        self._verdicts = {}
        self._verdicts_before = {}

    def on_goal(self) -> np.ndarray:
        return np.array([self.positions[i] == self.goals[i] for i in range(self.n)])

    def choose_svo(self, bins: np.ndarray) -> None:
        """Record every agent's chosen SVO bin as its one-hot standing SVO."""
        self.svo = np.eye(self.config.svo_bins)[bins]

    def step(self, joint_action: np.ndarray, collision_penalties: np.ndarray | None = None) -> StepOutcome:
        if self.terminated:
            raise RuntimeError("episode already terminated")
        joint_action = np.asarray(joint_action)
        if joint_action.shape != (self.n,):
            raise ValueError("need one action per agent")
        joint_action = _as_actions(joint_action)
        new_positions = _targets(self.positions, joint_action)
        for i, tgt in enumerate(new_positions):
            if not self.grid.is_free(*tgt):
                raise ConditionViolation(f"agent {i} action {joint_action[i]} hits a static obstacle")
        fault = joint_move_fault(self.positions, new_positions)
        if fault is not None:
            kind, agents = fault
            raise ConditionViolation(
                "two agents share a vertex after the joint move" if kind == "shared"
                else f"agents {agents[0]} and {agents[1]} swap vertices" if kind == "swap"
                else f"agents {', '.join(map(str, agents))} rotate: each enters the cell "
                     "the next one leaves")

        self.positions = new_positions
        self.t += 1

        rewards = np.empty(self.n)
        on_goal = self.on_goal()
        for i in range(self.n):
            if joint_action[i] == IDLE:
                rewards[i] = IDLE_ON_GOAL_REWARD if on_goal[i] else IDLE_OFF_GOAL_COST
            else:
                rewards[i] = MOVE_COST
        if collision_penalties is not None:
            rewards += np.asarray(collision_penalties, dtype=np.float64)
        blocked = np.zeros(self.n, dtype=np.int64)
        if self.config.blocking_rewards:
            for i in range(self.n):
                blocked[i] = detect_blocking(self, i)
            rewards += BLOCK_PENALTY * blocked

        self.terminated = bool(on_goal.all()) or self.t >= self.config.max_episode_length
        return StepOutcome(rewards, blocked)


_NO_CHAIN = frozenset()


def _dominator_chain(grid, start, goal):
    """Flat cells on every shortest path from start to goal: start's dominator
    chain toward the goal, both ends included. Empty when start is the goal
    or cannot reach it, for then nothing blocks it."""
    if start == goal:
        return _NO_CHAIN
    w = grid.width
    cell = start[0] * w + start[1]
    entry = _goal_entry(grid, goal, cell)
    if entry.dist[cell] == UNREACHABLE:
        return _NO_CHAIN
    idom = entry.idom
    g = goal[0] * w + goal[1]
    chain = {cell}
    while cell != g:
        cell = idom[cell]
        chain.add(cell)
    return chain


def _chokes(grid, b, start, goal, threshold) -> bool:
    """Does flat cell b, on start's dominator chain toward goal, choke start's
    route? It does when it is start, or a cut vertex between start and goal,
    or when a detour search that never enters b and prunes every cell whose
    depth plus goal distance (a lower bound where the goal's search has not
    labelled it yet) exceeds d0 + threshold cannot reach the goal."""
    w = grid.width
    s = start[0] * w + start[1]
    g = goal[0] * w + goal[1]
    if b == s or _separates(grid, b, s, g):
        return True
    entry = _goal_entry(grid, goal, s)
    return _bfs(grid, s, target=g, removed=b, bound=entry.dist[s] + threshold, h=entry.dist,
                floor=entry.floor())[g] == UNREACHABLE


def detect_blocking(env: Gridworld, agent: int) -> int:
    """Count agents whose route to goal the given agent currently chokes.

    Agent j counts as blocked when treating agent's cell as an obstacle makes
    j's goal unreachable or lengthens its shortest path by more than the
    configured threshold relative to the unobstructed distance field.
    A cell off j's dominator chain leaves one of j's shortest paths intact,
    so only a blocker on the chain can block j, and _chokes decides it.

    With the environment's map and threshold fixed, (blocker cell, start,
    goal) decides a verdict, so the environment keeps what a joint state
    settled: each agent's dominator chain as a set, so a blocker off it costs
    one lookup, and the verdicts of blockers on it, which the next joint state
    reuses for every pair whose two cells did not move. Only the current and
    the previous joint state are kept, at most 2 n (n - 1) verdicts.
    """
    positions = env.positions
    if env._chains_at != positions:
        env._chains_at = list(positions)
        env._chains = [None] * env.n
        env._verdicts_before, env._verdicts = env._verdicts, {}
    grid, goals, chains, verdicts = env.grid, env.goals, env._chains, env._verdicts
    r, c = positions[agent]
    b = r * grid.width + c
    count = 0
    for j in range(env.n):
        if j == agent:
            continue
        chain = chains[j]
        if chain is None:
            chain = chains[j] = _dominator_chain(grid, positions[j], goals[j])
        if b in chain:
            key = (b, positions[j], goals[j])
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = env._verdicts_before.get(key)
                if verdict is None:
                    verdict = _chokes(grid, b, positions[j], goals[j], env.config.block_threshold)
                verdicts[key] = verdict
            count += verdict
    return count


def _obstacle_plane(grid, pad: int) -> np.ndarray:
    """The map's obstacles as 1.0 (free cells 0.0) inside a ring of pad
    obstacle cells, so every window around a cell is one slice. Cached per pad
    on the map."""
    plane = grid._obstacle_planes.get(pad)
    if plane is None:
        plane = np.ones((grid.height + 2 * pad, grid.width + 2 * pad))
        plane[pad:pad + grid.height, pad:pad + grid.width] = grid.obstacles
        plane.flags.writeable = False
        grid._obstacle_planes[pad] = plane
    return plane


def observe(env: Gridworld) -> np.ndarray:
    """The team's observations: row i is agent i's fixed-length vector.

    FoV-centered occupancy, other-agent, and goal-descent planes (the descent
    plane marks cells inside the heuristic window that are strictly closer to
    the goal than the agent), a 4-slot goal vector (unit direction, clamped
    Euclidean magnitude, clamped BFS distance), the standing SVO of the agent
    and of its partner (each one's last chosen bin), and the partner offset
    clamped to the FoV. Out-of-map cells read as obstacles. The other-agent
    planes are windows of one padded plane that marks the whole team.
    """
    cfg = env.config
    fov = cfg.fov
    half = fov // 2
    planes = 3 * fov * fov
    obstacles = _obstacle_plane(env.grid, half)
    crowd = np.zeros_like(obstacles)
    for r, c in env.positions:
        crowd[r + half, c + half] = 1.0
    clamp = float(max(env.grid.height, env.grid.width))
    h_half = min(cfg.fov_heuristic // 2, half)
    svo = env.svo.tolist()
    obs = np.zeros((env.n, obs_length(fov, cfg.svo_bins)))
    for i, ((r0, c0), goal, partner) in enumerate(zip(env.positions, env.goals, env.partners.tolist())):
        dist = distance_field(env.grid, goal)
        d0 = int(dist[r0, c0])
        dr, dc = goal[0] - r0, goal[1] - c0
        mag = float(np.hypot(dr, dc))
        if mag > 0:
            goal_vec = [dr / mag, dc / mag, min(mag, clamp) / clamp,
                        (min(d0, clamp) / clamp) if d0 != UNREACHABLE else 1.0]
        else:
            goal_vec = [0.0, 0.0, 0.0, 0.0]
        pr, pc = env.positions[partner]
        off = [max(-half, min(half, pr - r0)) / max(1, half),
               max(-half, min(half, pc - c0)) / max(1, half)]
        obs[i, planes:] = goal_vec + svo[i] + svo[partner] + off
        occupancy, others, heuristic = obs[i, :planes].reshape(3, fov, fov)
        occupancy[:] = obstacles[r0:r0 + fov, c0:c0 + fov]
        others[:] = crowd[r0:r0 + fov, c0:c0 + fov]
        others[half, half] = 0.0
        # the descent window: free cells (obstacles hold UNREACHABLE) within
        # fov_heuristic // 2 of the agent and strictly closer to the goal
        if h_half > 0 and d0 != UNREACHABLE:
            top, left = max(r0 - h_half, 0), max(c0 - h_half, 0)
            window = dist[top:r0 + h_half + 1, left:c0 + h_half + 1]
            row, col = top - r0 + half, left - c0 + half
            heuristic[row:row + window.shape[0], col:col + window.shape[1]] = (window >= 0) & (window < d0)
    return obs
