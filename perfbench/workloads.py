"""The benchmark's workloads, the closed loop that times them, and their checks.

Every workload is one process on one thread and a closed loop: a round
generates fresh inputs (its set-up), runs one operation on them, replays the
resulting plans through the ADG executor, then checks the outputs. The next
round starts only when the previous one has finished. Round k of a run with
seed s draws its inputs from derive_seed(s, k), so a round never reuses a map
(and the distance fields cached on it) from an earlier round. Round 0 warms
the process up: it is checked like every round but not timed.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from svo_mapf import execution, gridworld, harness, learner, mapgen
from svo_mapf.rng import SplitMix64, derive_seed

from stats import Tally, percentile, reportable_percentile, samples_needed
from tracing import Tracer

STEP_PERCENTILE = 95
# Stop making rounds after this long even without enough step samples, so
# that a run always ends within three minutes.
HARD_LIMIT_S = 120.0
# Seed of the batch workloads' fixed map set.
MAP_SET = 2019
# ADG replay: per-robot speed multipliers in [0.5, 1.5) and +-30 % task jitter.
JITTER = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "batch": run_episode on room maps; "train": learner.train
    min_rounds: int         # rounds every run makes; the traced run makes exactly these
    size: int = 0
    maps: int = 0           # fixed room maps the rounds cycle through
    agents: int = 0
    episode_steps: int = 0
    blocking: bool = False
    train_steps: int = 0
    replays: int = 1        # ADG executions per plan, each with its own speeds


# Why each workload exists, and which layer it stresses: README.md.
WORKLOADS = {w.name: w for w in (
    Workload("blocking-room", "batch", min_rounds=24, size=32, maps=8, agents=16,
             episode_steps=8, blocking=True, replays=8),
    Workload("train-corridor", "train", min_rounds=6, train_steps=2048, replays=4),
)}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Round:
    setup_s: float = 0.0
    steps: int = 0
    step_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    adg_tasks: int = 0
    adg_s: float = 0.0
    arrivals: list[float] = field(default_factory=list)
    digest: str = ""


def _attempt(tally: Tally, label: str, op) -> bool:
    """Run one operation; a raise or a failed check counts as a failure."""
    try:
        op()
    except Exception:
        print(f"perfbench: {label} failed", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        tally.record(False)
        return False
    tally.record(True)
    return True


def check_plan(paths) -> None:
    """No shared vertex and no swap at any step of a per-robot position plan."""
    n = len(paths)
    horizon = len(paths[0])
    if any(len(p) != horizon for p in paths):
        raise CheckFailed("paths of unequal length")
    for t in range(horizon):
        here = {paths[i][t]: i for i in range(n)}
        if len(here) != n:
            raise CheckFailed(f"two robots share a vertex at t={t}")
        if t == 0:
            continue
        before = {paths[i][t - 1]: i for i in range(n)}
        for i in range(n):
            j = before.get(paths[i][t])
            if j is not None and j != i and paths[j][t] == paths[i][t - 1]:
                raise CheckFailed(f"robots {i} and {j} swap at t={t}")


def check_no_co_occupancy(intervals: dict) -> None:
    """No cell is held by two robots at once under execution.occupancy_intervals."""
    for cell, spans in intervals.items():
        for a, (s0, e0, r0) in enumerate(spans):
            for s1, e1, r1 in spans[a + 1:]:
                if r0 != r1 and s1 < e0 and s0 < e1:
                    raise CheckFailed(f"cell {cell}: robots {r0} and {r1} co-occupy it")


def _replay(paths, seed: int, replays: int, rnd: Round, digest) -> None:
    """Execute one plan through the ADG `replays` times, each with its own
    seeded speeds and jitter, and check every execution."""
    for r in range(replays):
        rng = SplitMix64(derive_seed(seed, r))
        speeds = [0.5 + rng.random() for _ in paths]
        t0 = perf_counter()
        graph = execution.build_adg(paths)
        log = execution.simulate_execution(graph, speeds, derive_seed(seed, r, 1), JITTER)
        rnd.adg_s += perf_counter() - t0
        rnd.adg_tasks += len(graph.tasks)
        if len(log) != 2 * len(graph.tasks):
            raise CheckFailed(f"{len(log)} events for {len(graph.tasks)} tasks")
        check_no_co_occupancy(execution.occupancy_intervals(graph, log))
        for ev in log:
            digest.update(f"{ev.t!r},{ev.task_id},{ev.robot_id},{ev.transition};".encode())


def _arrival(final, goals) -> float:
    return sum(p == g for p, g in zip(final, goals)) / len(goals)


def room_scenario(spec: Workload, seed: int, k: int) -> mapgen.Scenario:
    """A fresh instance of the workload's fixed room map k mod spec.maps, with
    starts and goals drawn from (seed, k): the shape of a scenario file on a
    fixed benchmark map. Fixed maps keep runs with different seeds comparable;
    room maps differ threefold in cost between each other."""
    base = mapgen.gen_room(spec.size, spec.size, spec.agents, derive_seed(MAP_SET, k % spec.maps))
    rng = SplitMix64(derive_seed(seed, k))
    free = base.grid.free_cells()
    scenario = mapgen.Scenario(base.grid, rng.sample(free, spec.agents),
                               rng.sample(free, spec.agents), derive_seed(seed, k))
    scenario.validate()
    return scenario


def batch_round(spec: Workload, seed: int, k: int, tally: Tally) -> Round:
    """Set up a fresh room scenario, run one episode, replay its plan."""
    rnd = Round()
    digest = hashlib.sha256()
    t0 = perf_counter()
    scenario = room_scenario(spec, seed, k)
    env_cfg = gridworld.EnvConfig(max_episode_length=spec.episode_steps,
                                  blocking_rewards=spec.blocking)
    policy = harness.make_policy("hetero", env_cfg)
    rnd.setup_s = perf_counter() - t0
    records: list[dict] = []
    stamps: list[float] = []
    paths = []

    def writer(record):
        stamps.append(perf_counter())
        records.append(record)

    def episode():
        t0 = perf_counter()
        result = harness.run_episode(scenario, policy, env_cfg, trace_writer=writer)
        t1 = perf_counter()
        rnd.steps = len(records)
        rnd.step_s = t1 - t0
        rnd.latencies = np.diff([t0] + stamps).tolist()
        if rnd.steps != result.metrics.episode_length:
            raise CheckFailed(f"{rnd.steps} trace records for {result.metrics.episode_length} steps")
        for t, record in enumerate(records, 1):
            if [tuple(p) for p in record["positions"]] != [p[t] for p in result.paths]:
                raise CheckFailed(f"trace and paths disagree at t={t}")
        check_plan(result.paths)
        arrival = _arrival([p[-1] for p in result.paths], scenario.goals)
        if arrival != result.metrics.arrival_rate:
            raise CheckFailed(f"arrival {result.metrics.arrival_rate} but {arrival} on goal")
        rnd.arrivals.append(arrival)
        digest.update(json.dumps(records, sort_keys=True).encode())
        paths.extend(result.paths)

    if _attempt(tally, f"{spec.name} episode {k}", episode):
        _attempt(tally, f"{spec.name} ADG replay {k}",
                 lambda: _replay(paths, derive_seed(seed, k, 1), spec.replays, rnd, digest))
    rnd.digest = digest.hexdigest()
    return rnd


def _recording_gridworld(stamps: list, episodes: list):
    """A Gridworld that stamps each joint step and keeps each finished
    episode's plan: the training counterpart of run_episode's trace_writer."""

    class Recording(gridworld.Gridworld):
        def reset(self):
            super().reset()
            self.visited = [list(self.positions)]

        def step(self, *args, **kwargs):
            out = super().step(*args, **kwargs)
            stamps.append(perf_counter())
            self.visited.append(list(self.positions))
            if self.terminated:
                plan = [list(p) for p in zip(*self.visited)]
                episodes.append((plan, list(self.goals)))
            return out

    return Recording


def train_round(spec: Workload, seed: int, k: int, tally: Tally) -> Round:
    """Set up a smoke training config and parameters, train, replay the rollouts."""
    rnd = Round()
    digest = hashlib.sha256()
    t0 = perf_counter()
    cfg = learner.smoke_train_config(derive_seed(seed, k), spec.train_steps)
    params = learner.init_params(gridworld.obs_length(cfg.env.fov, cfg.env.svo_bins),
                                 cfg.smp.hidden, cfg.env.svo_bins,
                                 derive_seed(cfg.seed, 0), cfg.param_scale)
    rnd.setup_s = perf_counter() - t0
    stamps: list[float] = []
    episodes: list = []

    def training():
        saved = learner.Gridworld
        learner.Gridworld = _recording_gridworld(stamps, episodes)
        try:
            t0 = perf_counter()
            result = learner.train(cfg, params)
            t1 = perf_counter()
        finally:
            learner.Gridworld = saved
        rnd.step_s = t1 - t0
        rnd.latencies = np.diff([t0] + stamps).tolist()
        # train catches TrainingDiverged and stops early without raising
        if not result.curve or result.curve[-1]["env_steps"] < cfg.total_env_steps:
            raise CheckFailed("training stopped before its step budget")
        rnd.steps = result.curve[-1]["env_steps"]
        if sum(len(plan[0]) - 1 for plan, _ in episodes) != rnd.steps:
            raise CheckFailed("recorded episodes do not add up to the trained steps")
        for key in learner.PARAM_KEYS:
            value = np.asarray(result.params[key], dtype=np.float64)
            if not np.all(np.isfinite(value)):
                raise CheckFailed(f"non-finite parameter {key}")
            digest.update(value.tobytes())
        digest.update(json.dumps(result.curve, sort_keys=True).encode())
        for plan, goals in episodes:
            check_plan(plan)
            rnd.arrivals.append(_arrival([p[-1] for p in plan], goals))

    if _attempt(tally, f"{spec.name} training run {k}", training):
        for i, (plan, _) in enumerate(episodes):
            _attempt(tally, f"{spec.name} ADG replay {k}.{i}",
                     lambda: _replay(plan, derive_seed(seed, k, i + 1), spec.replays, rnd, digest))
    rnd.digest = digest.hexdigest()
    return rnd


ROUNDS = {"batch": batch_round, "train": train_round}


def _check_digests(rounds, expected, tally: Tally) -> None:
    """The first rounds of the default seed must reproduce the recorded outputs."""
    for k, want in enumerate(expected[:len(rounds)]):
        ok = rounds[k].digest == want
        if not ok:
            print(f"perfbench: round {k} digest {rounds[k].digest} != recorded {want}",
                  file=sys.stderr)
        tally.record(ok)


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return lambda pad: 0


MALLOC_TRIM = _malloc_trim()


def _next_round(spec: Workload, seed: int, k: int, tally: Tally) -> Round:
    # Free the previous round's maps and plans, and hand the freed heap back
    # to the system, before this round starts: no round is charged for
    # collecting another round's garbage, and heap fragments left by earlier
    # rounds do not pile up into the process's peak resident memory.
    gc.collect()
    MALLOC_TRIM(0)
    return ROUNDS[spec.kind](spec, seed, k, tally)


def run_untraced(spec: Workload, seed: int, seconds: float, expected=()) -> tuple[dict, dict, Tally]:
    """Round 0 untimed, then a closed loop of timed rounds for `seconds`;
    returns end-to-end metrics, extra info, tally.

    The timed rounds also reach the workload's minimum, hold enough step
    samples for p95, and visit each of the workload's maps equally often.
    """
    tally = Tally()
    warmup = _next_round(spec, seed, 0, tally)
    timed: list[Round] = []
    need = samples_needed(STEP_PERCENTILE)
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        done = (len(timed) >= spec.min_rounds and elapsed >= seconds
                and sum(len(r.latencies) for r in timed) >= need
                and len(timed) % max(spec.maps, 1) == 0)
        if done or (timed and elapsed >= HARD_LIMIT_S):
            break
        timed.append(_next_round(spec, seed, 1 + len(timed), tally))
    rounds = [warmup] + timed
    _check_digests(rounds, expected, tally)
    latencies = [x for r in timed for x in r.latencies]
    steps = sum(r.steps for r in timed)
    step_s = sum(r.step_s for r in timed)
    adg_s = sum(r.adg_s for r in timed)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in timed),
        "steps_per_s": steps / step_s if step_s else 0.0,
        "step_ms_p50": 1000.0 * percentile(latencies, 50) if latencies else 0.0,
        "step_ms_p95": (1000.0 * reportable_percentile(latencies, STEP_PERCENTILE)
                        if len(latencies) >= need else 0.0),
        "adg_tasks_per_s": sum(r.adg_tasks for r in timed) / adg_s if adg_s else 0.0,
    }
    info = {
        "rounds": len(rounds),
        "timed_rounds": len(timed),
        "step_samples": len(latencies),
        "arrival_rate": _mean_arrival(rounds[:spec.min_rounds]),
        "digests": [r.digest for r in rounds[:spec.min_rounds]],
    }
    return metrics, info, tally


def run_traced(spec: Workload, seed: int, expected=()) -> tuple[dict, dict, Tally, Tracer]:
    """The first min_rounds rounds under the tracer, then the first quarter of
    them again untraced on fresh inputs: the tracing overhead on identical work."""
    tally = Tally()
    tracer = Tracer()
    with tracer.installed():
        rounds = [_next_round(spec, seed, k, tally) for k in range(spec.min_rounds)]
    plain = [_next_round(spec, seed, k, tally) for k in range(-(-spec.min_rounds // 4))]
    for k, rnd in enumerate(plain):
        if rnd.digest != rounds[k].digest:
            print(f"perfbench: tracing changed the outputs of round {k}", file=sys.stderr)
        tally.record(rnd.digest == rounds[k].digest)
    for violation in tracer.violations:
        print(f"perfbench: {violation}", file=sys.stderr)
    tally.record(not tracer.violations)
    _check_digests(rounds, expected, tally)
    traced_s = sum(r.step_s for r in rounds[:len(plain)])
    plain_s = sum(r.step_s for r in plain)
    steps = sum(r.steps for r in rounds)
    step_s = sum(r.step_s for r in rounds)
    metrics = tracer.layer_metrics()
    metrics["harness.arrival_rate"] = _mean_arrival(rounds)
    metrics["trace.steps_per_s"] = steps / step_s if step_s else 0.0
    metrics["trace.overhead"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    metrics["trace.spans"] = len(tracer.start)
    info = {"rounds": len(rounds), "digests": [r.digest for r in rounds]}
    return metrics, info, tally, tracer


def _mean_arrival(rounds) -> float:
    arrivals = [a for r in rounds for a in r.arrivals]
    return sum(arrivals) / len(arrivals) if arrivals else 0.0
