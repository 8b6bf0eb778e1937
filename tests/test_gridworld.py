import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svo_mapf import gridworld, harness, mapgen
from svo_mapf.gridworld import ConditionViolation, EnvConfig, Gridworld, detect_blocking, observe, obs_length
from svo_mapf.learner import TrainConfig
from svo_mapf.pathing import ACTION_DELTAS, DOWN, IDLE, LEFT, RIGHT, UP
from svo_mapf.rng import derive_seed


def corridor_scenario(length=6, starts=None, goals=None):
    obst = np.ones((3, length), dtype=bool)
    obst[1, :] = False
    grid = mapgen.GridMap(obst)
    starts = starts or [(1, 0)]
    goals = goals or [(1, length - 1)]
    return mapgen.Scenario(grid, starts, goals, seed=0)


class TestStepRewards:
    def test_move_costs(self):
        env = Gridworld(corridor_scenario(), EnvConfig(blocking_rewards=False))
        out = env.step(np.array([RIGHT]))
        assert out.rewards[0] == pytest.approx(-0.3)

    def test_idle_off_goal_costs(self):
        env = Gridworld(corridor_scenario(), EnvConfig(blocking_rewards=False))
        out = env.step(np.array([IDLE]))
        assert out.rewards[0] == pytest.approx(-0.3)

    def test_idle_on_goal_free(self):
        scn = corridor_scenario(starts=[(1, 5)], goals=[(1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        out = env.step(np.array([IDLE]))
        assert out.rewards[0] == 0.0
        assert env.terminated and env.on_goal().all()

    def test_goal_parking_blocking_two_agents(self):
        # agent 0 idles on its goal mid-corridor; agents 1 and 2 need to pass
        scn = corridor_scenario(
            length=6,
            starts=[(1, 2), (1, 1), (1, 0)],
            goals=[(1, 2), (1, 4), (1, 5)],
        )
        env = Gridworld(scn, EnvConfig())
        assert detect_blocking(env, 0) == 2
        out = env.step(np.array([IDLE, IDLE, IDLE]))
        assert out.rewards[0] == pytest.approx(0.0 + -1.0 * 2)
        assert out.blocked_counts[0] == 2

    def test_collision_penalty_composes(self):
        env = Gridworld(corridor_scenario(), EnvConfig(blocking_rewards=False))
        out = env.step(np.array([RIGHT]), collision_penalties=np.array([-2.0]))
        assert out.rewards[0] == pytest.approx(-2.3)


class TestStepContract:
    def test_vertex_conflict_rejected(self):
        scn = corridor_scenario(starts=[(1, 0), (1, 2)], goals=[(1, 4), (1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        with pytest.raises(ConditionViolation):
            env.step(np.array([RIGHT, LEFT]))

    def test_swap_rejected(self):
        scn = corridor_scenario(starts=[(1, 0), (1, 1)], goals=[(1, 4), (1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        with pytest.raises(ConditionViolation):
            env.step(np.array([RIGHT, LEFT]))

    def test_first_of_two_swaps_is_named(self):
        # 0 <-> 2 and 1 <-> 3 swap in one step; the pair loop named (0, 2)
        grid = mapgen.GridMap(np.zeros((2, 2), dtype=bool))
        scn = mapgen.Scenario(grid, [(0, 0), (1, 0), (0, 1), (1, 1)],
                              [(0, 1), (1, 1), (0, 0), (1, 0)], seed=0)
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        with pytest.raises(ConditionViolation, match=r"^agents 0 and 2 swap vertices$"):
            env.step(np.array([RIGHT, RIGHT, LEFT, LEFT]))

    def test_rotation_rejected(self):
        # four agents, each entering the cell the next one leaves, beside a
        # chain of two followers that ends on a free cell
        grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
        starts = [(2, 1), (0, 0), (0, 1), (1, 1), (1, 0), (2, 0)]
        scn = mapgen.Scenario(grid, starts, starts, seed=0)
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        with pytest.raises(ConditionViolation, match=r"^agents 1, 2, 3, 4 rotate: each enters "
                                                     r"the cell the next one leaves$"):
            env.step(np.array([RIGHT, RIGHT, DOWN, LEFT, UP, RIGHT]))
        assert env.positions == starts and env.t == 0

    @given(data=st.data())
    @settings(deadline=None, derandomize=True, max_examples=200)
    def test_swap_check_names_the_pair_loops_first_pair(self, data):
        side = data.draw(st.integers(2, 4))
        grid = mapgen.GridMap(np.zeros((side, side), dtype=bool))
        n = data.draw(st.integers(2, side * side))
        cells = data.draw(st.permutations(grid.free_cells()))[:n]
        actions = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        targets = [(r + ACTION_DELTAS[a][0], c + ACTION_DELTAS[a][1])
                   for (r, c), a in zip(cells, actions)]
        if not all(grid.is_free(*t) for t in targets) or len(set(targets)) != n:
            return
        want = next((f"agents {i} and {j} swap vertices" for i in range(n) for j in range(i + 1, n)
                     if targets[i] == cells[j] and targets[j] == cells[i]), None)
        # without a swap, the lowest agent on a rotation (three or more agents,
        # each entering the cell the next one leaves) names it from itself
        leaves = {cell: j for j, cell in enumerate(cells)}
        for i in range(n):
            if want is not None:
                break
            cycle = [i]
            while (j := leaves.get(targets[cycle[-1]], cycle[-1])) not in cycle:
                cycle.append(j)
            if j == i and len(cycle) > 2:
                want = (f"agents {', '.join(map(str, cycle))} rotate: each enters the cell "
                        "the next one leaves")
        env = Gridworld(mapgen.Scenario(grid, cells, cells, seed=0), EnvConfig(blocking_rewards=False))
        if want is None:
            env.step(np.array(actions))
            assert env.positions == targets
        else:
            with pytest.raises(ConditionViolation, match=f"^{want}$"):
                env.step(np.array(actions))

    def test_static_collision_rejected(self):
        env = Gridworld(corridor_scenario(), EnvConfig(blocking_rewards=False))
        with pytest.raises(ConditionViolation):
            env.step(np.array([UP]))

    @pytest.mark.parametrize("bad", [7, -1, 5, 1.5, float("nan"), "1"])
    def test_invalid_action_is_named_and_moves_nobody(self, bad):
        scn = corridor_scenario(starts=[(1, 0), (1, 3)], goals=[(1, 4), (1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        with pytest.raises(ValueError, match=rf"^agent 1: action {bad!r} is not an integer in 0-4$"):
            env.step(np.array([RIGHT, bad], dtype=object))
        assert env.positions == [(1, 0), (1, 3)] and env.t == 0

    def test_integral_float_actions_are_those_actions(self):
        scn = corridor_scenario(starts=[(1, 0), (1, 3)], goals=[(1, 4), (1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        env.step(np.array([float(RIGHT), float(IDLE)]))
        assert env.positions == [(1, 1), (1, 3)]

    def test_terminated_env_rejects_step(self):
        scn = corridor_scenario(starts=[(1, 5)], goals=[(1, 5)])
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        env.step(np.array([IDLE]))
        with pytest.raises(RuntimeError):
            env.step(np.array([IDLE]))

    def test_episode_length_cap(self):
        env = Gridworld(corridor_scenario(), EnvConfig(max_episode_length=3, blocking_rewards=False))
        for _ in range(3):
            env.step(np.array([IDLE]))
        assert env.terminated and not env.on_goal().all()


class TestBlocking:
    def test_lone_agent_blocks_nobody(self):
        scn = mapgen.gen_random(8, 8, 0.0, 1, seed=1)
        env = Gridworld(scn, EnvConfig())
        assert detect_blocking(env, 0) == 0

    def test_corridor_parker_blocks(self):
        scn = corridor_scenario(length=5, starts=[(1, 2), (1, 0)], goals=[(1, 3), (1, 4)])
        env = Gridworld(scn, EnvConfig())
        assert detect_blocking(env, 0) >= 1

    def test_separate_rooms_no_blocking(self):
        obst = np.zeros((3, 5), dtype=bool)
        obst[:, 2] = True
        grid = mapgen.GridMap(obst)
        scn = mapgen.Scenario(grid, [(0, 0), (0, 4)], [(0, 0), (0, 4)], seed=0)
        env = Gridworld(scn, EnvConfig())
        assert detect_blocking(env, 0) == 0
        assert detect_blocking(env, 1) == 0

    def test_threshold_detour(self):
        # masking forces a detour longer than the threshold only when the
        # alternative loop is long enough
        obst = np.ones((5, 12), dtype=bool)
        obst[1, :] = False
        obst[3, :] = False
        obst[2, 0] = False
        obst[2, 11] = False  # two long rows joined at the ends
        grid = mapgen.GridMap(obst)
        scn = mapgen.Scenario(grid, [(1, 5), (1, 2)], [(1, 5), (1, 9)], seed=0)
        env = Gridworld(scn, EnvConfig(block_threshold=10))
        assert detect_blocking(env, 0) == 1  # detour ~20 extra steps
        env_loose = Gridworld(scn, EnvConfig(block_threshold=30))
        assert detect_blocking(env_loose, 0) == 0

    def test_negative_threshold_rejected(self):
        # a threshold below zero is shorter than every detour, so it would
        # count cells on only some shortest paths; a training config file
        # carrying one is refused as well
        with pytest.raises(ValueError, match="block_threshold"):
            EnvConfig(block_threshold=-1)
        with pytest.raises(ValueError, match="block_threshold"):
            TrainConfig.from_json('{"env": {"block_threshold": -3}}')
        assert EnvConfig(block_threshold=0).block_threshold == 0

    def test_negative_heuristic_window_rejected(self):
        # a negative window draws a blank descent plane, so a config file's
        # sign error would train silently on nothing
        with pytest.raises(ValueError, match="^fov_heuristic must be >= 0, got -3$"):
            EnvConfig(fov_heuristic=-3)
        with pytest.raises(ValueError, match="^fov_heuristic must be >= 0, got -3$"):
            TrainConfig.from_json('{"env": {"fov_heuristic": -3}}')
        assert EnvConfig(fov_heuristic=0).fov_heuristic == 0

    @pytest.mark.parametrize("fov", [0, -3, 4, 8, 5.0, "5", True, None])
    def test_fov_must_be_a_positive_odd_integer(self, fov):
        # the field of view is centred on the agent: even or empty ones have
        # no middle cell and used to fail deep inside observe
        with pytest.raises(ValueError, match="fov must be a positive odd integer"):
            EnvConfig(fov=fov)

    def test_odd_fovs_accepted(self):
        for fov in (1, 3, 9, np.int64(7)):
            assert EnvConfig(fov=fov).fov == fov


class TestObserve:
    def test_on_goal_zero_goal_vector(self):
        scn = corridor_scenario(starts=[(1, 3)], goals=[(1, 3)])
        env = Gridworld(scn, EnvConfig(fov=5, svo_bins=3))
        obs = observe(env)[0]
        base = 3 * 25
        assert np.allclose(obs[base:base + 4], 0.0)

    def test_corner_fov_marks_out_of_map_as_obstacle(self):
        scn = mapgen.gen_random(6, 6, 0.0, 1, seed=2)
        scn.starts[0] = (0, 0)
        env = Gridworld(scn, EnvConfig(fov=5, svo_bins=3))
        obs = observe(env)[0]
        occupancy = obs[:25].reshape(5, 5)
        assert occupancy[0].all() and occupancy[:, 0].all()  # beyond the corner
        assert occupancy[2, 2] == 0.0

    def test_vector_length_formula(self):
        for fov, bins in ((5, 3), (9, 5), (7, 4)):
            scn = mapgen.gen_random(12, 12, 0.1, 2, seed=3)
            env = Gridworld(scn, EnvConfig(fov=fov, svo_bins=bins))
            assert observe(env).shape == (scn.n_agents, obs_length(fov, bins))
            assert obs_length(fov, bins) == 3 * fov * fov + 4 + 2 * bins + 2

    def test_heuristic_plane_marks_descent_cells(self):
        scn = corridor_scenario(length=9, starts=[(1, 4)], goals=[(1, 8)])
        env = Gridworld(scn, EnvConfig(fov=5, fov_heuristic=3, svo_bins=3))
        heuristic = observe(env)[0][50:75].reshape(5, 5)
        assert heuristic[2, 3] == 1.0  # toward the goal, inside the window
        assert heuristic[2, 1] == 0.0  # away from the goal
        assert heuristic[2, 4] == 0.0  # outside the 3x3 heuristic window

    def test_partner_offset_clamped(self):
        scn = corridor_scenario(length=9, starts=[(1, 0), (1, 8)], goals=[(1, 8), (1, 0)])
        env = Gridworld(scn, EnvConfig(fov=5, svo_bins=3))
        env.partners = np.array([1, 0])
        obs = observe(env)[0]
        assert obs[-2] == 0.0 and obs[-1] == 1.0  # clamped to +half_fov


def test_metric_trace_determinism():
    scn = mapgen.gen_random(12, 12, 0.25, 6, seed=31)
    cfg = EnvConfig(max_episode_length=64, blocking_rewards=False)
    a = harness.run_episode(scn, harness.GreedyPolicy(), cfg)
    b = harness.run_episode(scn, harness.GreedyPolicy(), cfg)
    assert a.metrics == b.metrics
    assert a.paths == b.paths


def test_reward_composition_set():
    """Every reward decomposes into base + collision + blocking components."""
    from svo_mapf.resolver import resolve, greedy_intents
    for trial in range(10):
        scn = mapgen.gen_random(8, 8, 0.2, 4, seed=derive_seed(88, trial))
        env = Gridworld(scn, EnvConfig(max_episode_length=32))
        while not env.terminated:
            intents = greedy_intents(env.grid, env.positions, env.goals)
            res = resolve(env.grid, env.positions, intents, np.zeros(env.n))
            out = env.step(res.actions, res.penalties)
            for i in range(env.n):
                residual = out.rewards[i] - res.penalties[i] + out.blocked_counts[i]
                assert residual == pytest.approx(-0.3) or residual == pytest.approx(0.0)


def test_arrival_rate_exact():
    cfg = EnvConfig(blocking_rewards=False, max_episode_length=1)
    scn = corridor_scenario(length=4, starts=[(1, 0), (1, 3)], goals=[(1, 1), (1, 3)])
    metrics = harness.run_episode(scn, harness.GreedyPolicy(), cfg).metrics
    assert metrics.arrival_rate == 1.0 and metrics.success
    scn = corridor_scenario(length=4, starts=[(1, 0), (1, 3)], goals=[(1, 2), (1, 3)])
    metrics = harness.run_episode(scn, harness.GreedyPolicy(), cfg).metrics
    assert metrics.arrival_rate == 0.5 and not metrics.success
