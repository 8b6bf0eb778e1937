import heapq
import math

import numpy as np
import pytest

from svo_mapf import execution, harness, mapgen
from svo_mapf.execution import DONE, ENQUEUED, AdgError, PlanError
from svo_mapf.gridworld import EnvConfig
from svo_mapf.rng import SplitMix64, derive_seed
from test_acceptance import mixed_scenario


def random_plan(seed, size=10, agents=5, max_steps=24):
    """Valid plans come from greedy+resolver episodes (safe by construction)."""
    scn = mapgen.gen_random(size, size, 0.2, agents, seed=seed)
    cfg = EnvConfig(max_episode_length=max_steps, blocking_rewards=False)
    return harness.run_episode(scn, harness.GreedyPolicy(), cfg).paths


def intervals_from_log(graph, log):
    """Independent occupancy reconstruction: a robot reserves its destination
    from task ENQUEUED and frees its previous cell at the vacating DONE."""
    enq = {e.task_id: e.t for e in log if e.transition == ENQUEUED}
    done = {e.task_id: e.t for e in log if e.transition == DONE}
    horizon = max(done.values())
    out = {}
    for cell, visits in graph.cell_visits.items():
        for _, enter_id, vacate_id in visits:
            start = enq[enter_id]
            end = done[vacate_id] if vacate_id is not None else horizon
            out.setdefault(cell, []).append((start, end, graph.tasks[enter_id].robot_id))
    return out


def done_order(graph):
    """Task ids in the order simulate_execution completes them at unit speed:
    a task completes only after its dependencies, and a cycle raises AdgError."""
    log = execution.simulate_execution(graph, [1.0] * len(graph.robot_tasks))
    return [e.task_id for e in log if e.transition == DONE]


def assert_no_co_occupancy(graph, log):
    for cell, spans in intervals_from_log(graph, log).items():
        spans = sorted(spans)
        for (s0, e0, r0), (s1, e1, r1) in zip(spans, spans[1:]):
            if r0 == r1:
                continue
            assert e0 <= s1 + 1e-12, f"cell {cell}: [{s0},{e0}) by r{r0} overlaps [{s1},{e1}) by r{r1}"


class TestBuild:
    def test_single_agent_chain(self):
        path = [(0, 0), (0, 1), (0, 2), (0, 3)]
        graph = execution.build_adg([path])
        assert len(graph.tasks) == 4  # anchor + 3 moves
        assert graph.tasks[0].dependencies == set()
        for t in range(1, 4):
            assert graph.tasks[t].dependencies == {t - 1}

    def test_vacate_dependency(self):
        # robot 1 moves into the cell robot 0 vacates at the same timestep
        plan = [[(0, 1), (0, 2)], [(0, 0), (0, 1)]]
        graph = execution.build_adg(plan)
        follower_move = graph.robot_tasks[1][1]
        leader_move = graph.robot_tasks[0][1]
        assert leader_move in graph.tasks[follower_move].dependencies

    def test_wait_steps_merge_occupancy(self):
        plan = [[(0, 0), (0, 0), (0, 1)], [(1, 1), (0, 1), (0, 1)]]
        with pytest.raises(PlanError):
            execution.build_adg(plan)  # both occupy (0,1) at t=2

    def test_condition_violating_plans_rejected(self):
        with pytest.raises(PlanError):
            execution.build_adg([[(0, 0), (0, 1)], [(0, 2), (0, 1)]])  # vertex
        with pytest.raises(PlanError):
            execution.build_adg([[(0, 0), (0, 1)], [(0, 1), (0, 0)]])  # swap
        with pytest.raises(PlanError):
            execution.build_adg([[(0, 0), (5, 5)]])  # teleport

    def test_validate_plan_rejects_non_adjacent_steps(self):
        with pytest.raises(PlanError, match=r"plan steps \(0, 0\) -> \(0, 2\) are not 4-adjacent"):
            execution.validate_plan([[(0, 0), (0, 2)]])
        with pytest.raises(PlanError, match="not 4-adjacent"):
            execution.validate_plan([[(0, 0), (0, 1)], [(3, 3), (4, 4)]])  # diagonal
        assert execution.validate_plan([[(0, 0), (0, 1)], [(3, 3)]]) == [[(0, 0), (0, 1)],
                                                                         [(3, 3), (3, 3)]]

    # first error of each plan, recorded from build_adg before the adjacency
    # check moved from task construction into validate_plan
    @pytest.mark.parametrize("plan, message", [
        ([[(0, 0), (0, 1), (1, 1)], [(0, 1), (0, 0), (0, 0)], [(3, 3), (3, 5), (1, 1)]],
         "robots 0 and 2 share (1, 1) at t=2"),
        ([[(0, 0), (2, 2), (2, 3)], [(5, 5), (2, 3), (2, 2)]],
         "robots 0 and 1 swap between t=1 and t=2"),
        ([[(0, 0), (4, 4)], [(3, 4), (4, 4)]], "robots 0 and 1 share (4, 4) at t=1"),
        ([[(0, 0), (0, 1), (0, 2), (2, 2)], [(5, 5), (5, 7), (5, 8), (5, 9)]],
         "plan steps (0, 2) -> (2, 2) are not 4-adjacent"),
        ([[(0, 0), (0, 1)], [(0, 1), (1, 1)], [(1, 1), (1, 0)], [(1, 0), (0, 0), (3, 3)]],
         "plan steps (0, 0) -> (3, 3) are not 4-adjacent"),
        ([[(0, 0), (0, 0), (0, 1)], [(0, 1), (0, 1), (1, 1)], [(1, 1), (1, 1), (1, 0)],
          [(1, 0), (1, 0), (0, 0)], [(5, 5), (5, 6)], [(5, 6), (5, 5)]],
         "robots 4 and 5 swap between t=0 and t=1"),
        ([[(0, 0), (0, 1)], [(0, 1), (1, 1)], [(1, 1), (1, 0)], [(1, 0), (0, 0)], [(1, 2), (1, 1)]],
         "robots 1 and 4 share (1, 1) at t=1"),
    ], ids=["vertex+swap+teleport", "swap+teleport", "vertex+teleport", "teleports",
            "rotation+teleport", "rotation+swap", "rotation+vertex"])
    def test_first_plan_error_unchanged(self, plan, message):
        with pytest.raises(PlanError) as info:
            execution.build_adg(plan)
        assert str(info.value) == message

    def test_rotation_is_a_plan_error(self):
        # four robots on a 2x2 block, each one step clockwise: every move
        # waits for the next one's, so the ADG has no order to run them in
        clockwise = [[(0, 0), (0, 1)], [(0, 1), (1, 1)], [(1, 1), (1, 0)], [(1, 0), (0, 0)]]
        with pytest.raises(PlanError) as info:
            execution.build_adg(clockwise)
        assert str(info.value) == ("robots 0, 1, 2, 3 rotate between t=0 and t=1: "
                                   "each enters the cell the next one leaves")
        # the same rotation one step later, listed out of cycle order, beside
        # a convoy (a chain of followers, not a cycle): the message names the
        # rotation's robots along the cycle, from the lowest id
        convoy = [[(4, c), (4, c), (4, c + 1)] for c in range(3)]
        rotation = [[p[0]] + p for p in (clockwise[0], clockwise[2], clockwise[1], clockwise[3])]
        execution.build_adg(convoy)
        with pytest.raises(PlanError, match="^robots 3, 5, 4, 6 rotate between t=1 and t=2"):
            execution.build_adg(convoy + rotation)

    def test_random_plans_acyclic_and_ordered(self):
        for trial in range(40):
            paths = random_plan(derive_seed(1000, trial))
            graph = execution.build_adg(paths)
            rank = {tid: k for k, tid in enumerate(done_order(graph))}
            for task in graph.tasks:
                for dep in task.dependencies:
                    assert rank[dep] < rank[task.task_id]
            # per-cell precedence respects plan-time order
            for cell, visits in graph.cell_visits.items():
                times = [v[0] for v in visits]
                assert times == sorted(times)
                for (t0, _, vac0), (t1, ent1, _) in zip(visits, visits[1:]):
                    assert rank[vac0] < rank[ent1]


def test_dependents_match_a_scan_of_dependencies():
    for trial in range(10):
        graph = execution.build_adg(random_plan(derive_seed(2000, trial)))
        want = [[t.task_id for t in graph.tasks if k in t.dependencies]
                for k in range(len(graph.tasks))]
        assert execution._dependents(graph) == want


class TestSimulate:
    def test_unit_speed_faithful_replay_without_handovers(self):
        # spaced agents, no same-timestep cell handovers: completion at plan time
        plan = [[(0, 0), (0, 1), (0, 2)], [(5, 5), (5, 4), (5, 3)]]
        graph = execution.build_adg(plan)
        log = execution.simulate_execution(graph, [1.0, 1.0])
        done = {e.task_id: e.t for e in log if e.transition == DONE}
        for robot in range(2):
            for t, tid in enumerate(graph.robot_tasks[robot]):
                assert done[tid] == pytest.approx(float(t))
        assert max(done.values()) == pytest.approx(len(plan[0]) - 1.0)

    def test_completion_order_consistent_with_plan(self):
        paths = random_plan(31, agents=4)
        graph = execution.build_adg(paths)
        log = execution.simulate_execution(graph, [1.0] * 4)
        done = {e.task_id: e.t for e in log if e.transition == DONE}
        for robot_ids in graph.robot_tasks:
            times = [done[tid] for tid in robot_ids]
            assert times == sorted(times)
        assert_no_co_occupancy(graph, log)

    def test_slow_robot_delays_dependents(self):
        plan = [[(0, 1), (0, 2)], [(0, 0), (0, 1)]]
        graph = execution.build_adg(plan)
        log = execution.simulate_execution(graph, [10.0, 1.0])
        enq = {e.task_id: e.t for e in log if e.transition == ENQUEUED}
        done = {e.task_id: e.t for e in log if e.transition == DONE}
        leader_move = graph.robot_tasks[0][1]
        follower_move = graph.robot_tasks[1][1]
        assert done[leader_move] == pytest.approx(10.0)
        assert enq[follower_move] == pytest.approx(10.0)  # waits for the vacate
        assert_no_co_occupancy(graph, log)

    def test_jitter_fuzz_safe_and_complete(self):
        paths = random_plan(77, agents=6, max_steps=20)
        graph = execution.build_adg(paths)
        rng = SplitMix64(5)
        for seed in range(50):
            speeds = [0.5 + 2.0 * rng.random() for _ in range(6)]
            log = execution.simulate_execution(graph, speeds, jitter_seed=seed,
                                               jitter_amplitude=0.8)
            assert all(t.status == DONE for t in graph.tasks)
            assert_no_co_occupancy(graph, log)

    def test_simulation_deterministic(self):
        paths = random_plan(42, agents=3)
        graph = execution.build_adg(paths)
        a = execution.simulate_execution(graph, [1.0, 2.0, 0.5], jitter_seed=3, jitter_amplitude=0.5)
        b = execution.simulate_execution(graph, [1.0, 2.0, 0.5], jitter_seed=3, jitter_amplitude=0.5)
        assert a == b

    def test_speed_validation(self):
        graph = execution.build_adg([[(0, 0), (0, 1)]])
        with pytest.raises(ValueError):
            execution.simulate_execution(graph, [0.0])
        with pytest.raises(ValueError):
            execution.simulate_execution(graph, [1.0, 1.0])


def reference_simulation(graph, speed_profile, jitter_seed=0, jitter_amplitude=0.0, base_time=1.0):
    """Reference simulator: a generator per task for its draw, an enqueue per
    ready task, events in (time, push order) order."""
    remaining = {t.task_id: len(t.dependencies) for t in graph.tasks}
    dependents = [[] for _ in graph.tasks]
    for t in graph.tasks:
        for d in t.dependencies:
            dependents[d].append(t.task_id)
    log, queue, seq = [], [], 0

    def enqueue(task, now):
        nonlocal seq
        log.append(execution.ExecEvent(now, task.task_id, task.robot_id, ENQUEUED))
        if task.time == 0:
            duration = 0.0
        else:
            u = SplitMix64(derive_seed(jitter_seed, task.task_id)).random()
            duration = base_time * speed_profile[task.robot_id] * (1.0 + jitter_amplitude * u)
        heapq.heappush(queue, (now + duration, seq, task.task_id))
        seq += 1

    for task in graph.tasks:
        if remaining[task.task_id] == 0:
            enqueue(task, 0.0)
    while queue:
        now, _, tid = heapq.heappop(queue)
        log.append(execution.ExecEvent(now, tid, graph.tasks[tid].robot_id, DONE))
        for nxt in dependents[tid]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                enqueue(graph.tasks[nxt], now)
    return log


def single_robot_plan(seed, steps=30):
    """A random walk of idles and 4-adjacent moves."""
    rng = SplitMix64(seed)
    path = [(0, 0)]
    for _ in range(steps):
        dr, dc = rng.choice([(0, 0), (0, 1), (1, 0), (0, -1), (-1, 0)])
        path.append((path[-1][0] + dr, path[-1][1] + dc))
    return [path]


def event_keys(log):
    return [(repr(e.t), e.task_id, e.robot_id, e.transition) for e in log]


@pytest.mark.parametrize("amplitude", [0.0, 0.3, 0.5, 2.0, -0.5])
def test_simulation_matches_the_reference_event_by_event(amplitude):
    plans = [random_plan(derive_seed(3000, k), agents=2 + k) for k in range(4)]
    plans += [single_robot_plan(k) for k in range(3)]
    rng = SplitMix64(17)
    for paths in plans:
        graph = execution.build_adg(paths)
        # a base time other than 1 makes a reordered product round differently
        for seed, base_time in ((0, 1.0), (3, 0.7), (2**64 - 1, 1.3)):
            speeds = [4.0 * (1.0 - rng.random()) for _ in paths]   # in (0, 4]
            want = reference_simulation(graph, speeds, seed, amplitude, base_time)
            got = execution.simulate_execution(graph, speeds, seed, amplitude, base_time)
            assert event_keys(got) == event_keys(want)
            assert all(t.status == DONE for t in graph.tasks)


@pytest.mark.parametrize("kwargs, message", [
    (dict(speed_profile=[1.0, math.nan]), "speed_profile: speed multipliers must be finite and positive"),
    (dict(speed_profile=[math.inf, 1.0]), "speed_profile: speed multipliers must be finite and positive"),
    (dict(speed_profile=[-1.0, 1.0]), "speed_profile: speed multipliers must be finite and positive"),
    (dict(base_time=0.0), "base_time must be finite and positive, got 0.0"),
    (dict(base_time=math.nan), "base_time must be finite and positive, got nan"),
    (dict(base_time=math.inf), "base_time must be finite and positive, got inf"),
    (dict(jitter_amplitude=-1.5), "jitter_amplitude must be finite and at least -1, got -1.5"),
    (dict(jitter_amplitude=math.nan), "jitter_amplitude must be finite and at least -1, got nan"),
    (dict(jitter_amplitude=-math.inf), "jitter_amplitude must be finite and at least -1, got -inf"),
    (dict(jitter_amplitude=math.inf), "jitter_amplitude must be finite and at least -1, got inf"),
])
def test_simulation_rejects_values_that_break_task_times(kwargs, message):
    graph = execution.build_adg([[(0, 0), (0, 1)], [(2, 2), (2, 3)]])
    args = dict(speed_profile=[1.0, 1.0]) | kwargs
    with pytest.raises(ValueError, match=f"^{message}"):
        execution.simulate_execution(graph, **args)
    log = execution.simulate_execution(graph, [1.0, 1.0], jitter_amplitude=-1.0)
    assert all(e.t >= 0.0 for e in log)


def test_unfinished_tasks_raise_and_keep_their_statuses():
    graph = execution.build_adg([[(0, 0), (0, 1), (0, 2)]])
    graph.tasks[1].dependencies.add(2)    # tasks 1 and 2 now wait on each other
    with pytest.raises(AdgError, match="unfinished tasks"):
        execution.simulate_execution(graph, [1.0])
    assert [t.status for t in graph.tasks] == [DONE, execution.STAGED, execution.STAGED]


@pytest.mark.parametrize("plan, message", [
    ([[(0, 0), [0, 1]]], r"robot 0 at t=1: cell \[0, 1\] is not a \(row, col\) pair of integers"),
    ([[(0, 0)], [(1,), (1, 1)]], r"robot 1 at t=0: cell \(1,\) is not a \(row, col\) pair"),
    ([[(0, 0.5)]], r"robot 0 at t=0: cell \(0, 0.5\) is not a \(row, col\) pair"),
    ([[(2, 2)], [(True, 0)]], r"robot 1 at t=0: cell \(True, 0\) is not a \(row, col\) pair"),
    ([[(0, 0), (0, 0), (0, 1, 2)]], r"robot 0 at t=2: cell \(0, 1, 2\) is not a \(row, col\) pair"),
    ([[(0, 0), (0, 1)], [(0, 1), (0, "a")]], r"robot 1 at t=1: cell \(0, 'a'\) is not a"),
])
def test_validate_plan_rejects_cells_that_are_not_integer_pairs(plan, message):
    with pytest.raises(PlanError, match=message):
        execution.validate_plan(plan)


def test_validate_plan_accepts_integer_types_beside_int():
    plan = [[(np.int64(0), np.int64(0)), (np.int64(0), np.int64(1))], [(3, 3), (3, 3)]]
    assert execution.validate_plan(plan) == [[(0, 0), (0, 1)], [(3, 3), (3, 3)]]


def test_every_episode_plan_builds_an_adg():
    """The resolver refuses what the ADG refuses, so every plan an episode
    writes can be executed: the first 200 safety-suite scenarios and the two
    whose greedy episodes rotate without the rule (89 and 740), and hetero
    episodes on room maps."""
    cfg = EnvConfig(max_episode_length=48, blocking_rewards=False)
    runs = [(mixed_scenario(index), harness.GreedyPolicy()) for index in [*range(200), 740]]
    runs += [(mapgen.gen_room(16, 16, 12, seed), harness.HeterogeneousScriptedPolicy())
             for seed in range(4)]
    for scenario, policy in runs:
        graph = execution.build_adg(harness.run_episode(scenario, policy, cfg).paths)
        assert sorted(done_order(graph)) == list(range(len(graph.tasks)))
