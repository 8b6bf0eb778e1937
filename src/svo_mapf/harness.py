"""Benchmark orchestration, scripted case-study policies, and statistics.

Evaluation episodes and training rollouts share one step loop,
`episode_steps` (overlap, fixed-partner update, policy intents, tie-breaking
resolution, environment step). Scripted policies exercise the symmetric
corridor dilemma without any training: the homogeneous mode keeps every agent
selfishly greedy, while the heterogeneous mode makes the lower-indexed member
of each conflicted partner pair fully prosocial, and that agent withdraws to
the nearest cell off its partner's planned path until the conflict clears.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import social
from .gridworld import EnvConfig, Gridworld, StepOutcome
from .mapgen import CORRIDOR_LENGTHS, Scenario, _neighbour_table, family_scenario, sample_corridor
from .pathing import IDLE, _action, greedy_step
from .pathing import distance_field  # noqa: F401  (unused here; perfbench tests its import site)
from .resolver import NORMAL, ResolutionOutcome, greedy_intents, resolve
from .rng import derive_seed


@dataclass
class EpisodeMetrics:
    success: bool
    episode_length: int
    arrival_rate: float
    goals_reached: int
    collisions_prevented: int


@dataclass
class EpisodeResult:
    metrics: EpisodeMetrics
    paths: list[list[tuple[int, int]]]
    total_external_reward: float


class GreedyPolicy:
    """Homogeneous-selfish baseline: pure greedy descent, all SVOs at zero."""

    needs_social = False

    def step(self, env: Gridworld, overlap):
        intents = greedy_intents(env.grid, env.positions, env.goals)
        return intents, np.zeros(env.n)


def _parked_cells(env: Gridworld) -> set[int]:
    """Flat cells of the agents resting on their goals."""
    w = env.grid.width
    return {r * w + c for (r, c), goal in zip(env.positions, env.goals) if (r, c) == goal}


class HeterogeneousScriptedPolicy:
    """Within each conflicted fixed-partner pair, the lower-indexed agent takes
    the prosocial role (45 degrees) and withdraws; the other stays selfish.

    The withdrawing agent idles once it stands off its partner's planned path,
    otherwise it steps toward the nearest such refuge cell. The conflict is
    considered cleared when the pairwise overlap hits zero or the partner is
    resting on its goal, after which the agent resumes (occupancy-aware)
    greedy descent.
    """

    needs_social = True

    def step(self, env: Gridworld, overlap: social.OverlapResult):
        n = env.n
        svo = np.zeros(n)
        intents = np.empty(n, dtype=np.int64)
        parked = _parked_cells(env)
        for i in range(n):
            p = int(env.partners[i])
            in_conflict = (
                p != i
                and overlap.matrix[i, p] > 0.0
                and env.positions[p] != env.goals[p]
            )
            if in_conflict and i < p:
                svo[i] = 45.0
                intents[i] = self._retreat_step(env, i, overlap.visits[p])
            else:
                # an agent off its goal is not parked, so the set needs no exclusion
                intents[i] = greedy_step(env.grid, env.positions[i], env.goals[i], parked)
        return intents, svo

    @staticmethod
    def _retreat_step(env: Gridworld, agent: int, path_cells) -> int:
        """The first move toward the nearest free cell off the partner's path,
        ties by (distance, row, col); IDLE off the path or with no such cell.
        path_cells holds the path's (row, col) cells: the partner's visit map
        from compute_overlap, or any set. One BFS from the agent enters only
        path cells (a shortest route to that cell runs on them until its end)
        and labels each cell with its first labeller's first move: FIFO order
        keeps a level sorted by first move, and the flat index orders the
        level's cells like (row, col)."""
        if env.positions[agent] not in path_cells:
            return IDLE
        w = env.grid.width
        here = env.positions[agent][0] * w + env.positions[agent][1]
        nbrs = _neighbour_table(env.grid)
        first = {here: IDLE}  # IDLE is 0, so the agent's neighbours take their own move
        level = [here]
        while level:
            off = [u for u in level if divmod(u, w) not in path_cells]
            if off:
                return first[min(off)]
            ring = []
            for u in level:
                for v in nbrs[u]:
                    if v not in first:
                        first[v] = first[u] or _action(here, v, w)
                        ring.append(v)
            level = ring
        return IDLE


def make_policy(name: str, env_cfg: EnvConfig):
    if name in ("greedy", "homo"):
        return GreedyPolicy()
    if name in ("hetero", "scripted"):
        return HeterogeneousScriptedPolicy()
    if name.startswith("trained:"):
        from .learner import TrainedPolicy

        return TrainedPolicy.from_checkpoint(name.split(":", 1)[1])
    raise ValueError(f"unknown policy {name!r}; expected greedy, homo, hetero, scripted "
                     "or trained:PATH")


@dataclass
class EpisodeStep:
    """What one pass of the step loop saw and did."""

    overlap: social.OverlapResult | None   # None when nothing asked for it
    svo_deg: np.ndarray
    resolution: ResolutionOutcome
    outcome: StepOutcome


def episode_steps(env: Gridworld, policy, trace_social: bool = False):
    """Drive env to termination, yielding one EpisodeStep per joint step.

    Each step computes the overlap (only when the policy or trace_social needs
    it) and updates the fixed partners, asks policy.step(env, overlap) for
    intents and SVO angles, resolves them and steps the environment. The
    episode hands each step's overlap to the next step's computation, which
    reuses what the joint move left unchanged.
    """
    overlap = None
    while not env.terminated:
        if policy.needs_social or trace_social:
            overlap = social.compute_overlap(env.grid, env.positions, env.goals,
                                             env.config.overlap_decay, previous=overlap)
            env.partners = social.update_fixed_partners(overlap.partners, overlap.matrix,
                                                        env.partners)
        intents, svo_deg = policy.step(env, overlap)
        res = resolve(env.grid, env.positions, intents, svo_deg)
        yield EpisodeStep(overlap, svo_deg, res, env.step(res.actions, res.penalties))


def run_episode(scenario: Scenario, policy, env_cfg: EnvConfig | None = None,
                trace_writer=None, trace_social: bool = False) -> EpisodeResult:
    """Drive one episode to termination through the resolver pipeline.

    trace_social additionally dumps the overlap matrix and partner arrays into
    every trace record (n^2 per step; meant for small-team debugging).
    """
    env_cfg = env_cfg or EnvConfig()
    if hasattr(policy, "env_config"):  # a trained policy keeps its checkpoint's geometry
        env_cfg = policy.env_config(env_cfg)
    env = Gridworld(scenario, env_cfg)
    paths = [[pos] for pos in env.positions]
    collisions_prevented = 0
    total_external = 0.0
    for step in episode_steps(env, policy, trace_social):
        res, out = step.resolution, step.outcome
        collisions_prevented += sum(1 for a in res.annotations if a != NORMAL)
        total_external += float(out.rewards.sum())
        for i in range(env.n):
            paths[i].append(env.positions[i])
        if trace_writer is not None:
            record = {
                "t": env.t,
                "positions": [list(p) for p in env.positions],
                "actions": [int(a) for a in res.actions],
                "svos": [float(z) for z in step.svo_deg],
                "rewards": [round(float(r), 10) for r in out.rewards],
            }
            if trace_social:
                record["overlap"] = [[round(float(x), 10) for x in row]
                                     for row in step.overlap.matrix]
                record["temporary_partners"] = [int(p) for p in step.overlap.partners]
                record["fixed_partners"] = [int(p) for p in env.partners]
            trace_writer(record)
    on_goal = env.on_goal()
    metrics = EpisodeMetrics(
        success=bool(on_goal.all()),
        episode_length=env.t,
        arrival_rate=float(on_goal.sum()) / env.n,
        goals_reached=int(on_goal.sum()),
        collisions_prevented=collisions_prevented,
    )
    return EpisodeResult(metrics, paths, total_external)


@dataclass
class BenchmarkReport:
    family: str
    size: int
    density: float
    n_agents: int
    instances: int
    seed: int
    policy: str
    success_rate: float
    mean_episode_length: float
    mean_arrival_rate: float
    time_general: float
    time_success: float
    per_instance: list[dict]

    def metric_column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.per_instance], dtype=np.float64)

    def to_csv(self) -> str:
        columns = ["instance", *(f.name for f in fields(EpisodeMetrics))]
        lines = [",".join(columns)]
        for row in self.per_instance:
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                                  for c in columns))
        return "\n".join(lines) + "\n"

    def to_json(self, include_timings: bool = False) -> str:
        # Wall-clock fields are excluded from the canonical report so that
        # identical (args, seed) reruns serialize byte-identically.
        obj = asdict(self)
        if not include_timings:
            del obj["time_general"], obj["time_success"]
            for row in obj["per_instance"]:
                del row["wall_time"]
        return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def run_batch(family: str, size: int, density: float, n_agents: int, instances: int,
              policy_name: str, seed: int, env_cfg: EnvConfig | None = None) -> BenchmarkReport:
    """Generate and run a batch of instances; deterministic given the seed.

    Per-instance seeds derive from (seed, index), so results are independent
    of any execution order. Reports carry no reward fields, so the default
    environment skips the blocking-reward computation; pass an env_cfg to
    override.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    env_cfg = env_cfg or EnvConfig(blocking_rewards=False)
    policy = make_policy(policy_name, env_cfg)
    per_instance = []
    t_all = 0.0
    t_success = 0.0
    for i in range(instances):
        inst_seed = derive_seed(seed, i)
        scenario = family_scenario(family, size, size, density, n_agents, inst_seed)
        t0 = time.perf_counter()
        result = run_episode(scenario, policy, env_cfg)
        wall = time.perf_counter() - t0
        t_all += wall
        if result.metrics.success:
            t_success += wall
        row = {"instance": i, **asdict(result.metrics), "wall_time": wall}
        row["success"] = int(row["success"])  # bench rows hold success as 0/1
        per_instance.append(row)
    successes = sum(row["success"] for row in per_instance)
    return BenchmarkReport(
        family=family, size=size, density=density, n_agents=n_agents,
        instances=instances, seed=seed, policy=policy_name,
        success_rate=successes / instances,
        mean_episode_length=float(np.mean([r["episode_length"] for r in per_instance])),
        mean_arrival_rate=float(np.mean([r["arrival_rate"] for r in per_instance])),
        time_general=t_all / instances,
        time_success=t_success / successes if successes else 0.0,
        per_instance=per_instance,
    )


class DegenerateInputError(ValueError):
    """Paired samples whose differences have zero variance."""


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        # term m's even and odd coefficients, each through one Lentz update
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(samples_a, samples_b) -> tuple[float, float]:
    """Classical paired t statistic and two-sided p-value.

    p = I_{df/(df+t^2)}(df/2, 1/2) via the regularized incomplete beta with
    df = n - 1. A ValueError names the first pair holding NaN or an infinity.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("need two equal-length 1-D sample arrays")
    bad = np.flatnonzero(~(np.isfinite(a) & np.isfinite(b)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"pair {i} ({a[i]}, {b[i]}) is not a pair of finite numbers")
    n = len(a)
    if n < 2:
        raise ValueError("need at least two paired samples")
    d = a - b
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("paired differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    df = n - 1
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return t, p


@dataclass
class CaseStudyResult:
    mean_goals: float
    episodes: int
    per_episode_goals: list[int]
    per_kind_goals: dict

    def kind_mean(self, kind: str) -> float | None:
        """Mean goals over the episodes of one kind; None when none drew it."""
        counts = self.per_kind_goals.get(kind, [])
        return float(np.mean(counts)) if counts else None


def corridor_case_study(p_recess: float, episodes: int, policy_name: str, seed: int,
                        env_cfg: EnvConfig | None = None) -> CaseStudyResult:
    """Mean goals reached over a mixture of recess and I-shaped instances.

    Each episode's map is a recess with probability p_recess and an I-shape
    otherwise, its corridor length uniform over mapgen.CORRIDOR_LENGTHS.
    """
    if not 0.0 <= p_recess <= 1.0:
        raise ValueError(f"kind probabilities must lie in [0, 1], got {p_recess} and {1.0 - p_recess}")
    if episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {episodes}")
    env_cfg = env_cfg or EnvConfig(blocking_rewards=False)  # goals-only metric
    policy = make_policy(policy_name, env_cfg)
    per_episode = []
    per_kind: dict = {"recess": [], "i_shape": []}
    for ep in range(episodes):
        scenario, kind = sample_corridor(p_recess, CORRIDOR_LENGTHS, seed, ep)
        result = run_episode(scenario, policy, env_cfg)
        per_episode.append(result.metrics.goals_reached)
        per_kind[kind].append(result.metrics.goals_reached)
    return CaseStudyResult(mean_goals=float(np.mean(per_episode)), episodes=episodes,
                           per_episode_goals=per_episode, per_kind_goals=per_kind)
