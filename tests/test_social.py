import math

import numpy as np
import pytest

from svo_mapf import harness, mapgen, pathing, social
from svo_mapf.gridworld import EnvConfig, Gridworld
from svo_mapf.rng import SplitMix64, derive_seed


def overlap_oracle(flows, decay):
    """Brute-force double loop over vertex lists (independent of the dict path)."""
    n = len(flows)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            total = 0.0
            for t_i, v_i in enumerate(flows[i].vertices):
                for t_j, v_j in enumerate(flows[j].vertices):
                    if v_i == v_j and flows[i].directions[t_i] != flows[j].directions[t_j]:
                        total += decay ** t_i + decay ** t_j
            matrix[i, j] = total
    return matrix


def cross_map():
    # vertical corridor in column 1 crossing a horizontal corridor in row 2
    obst = np.ones((4, 3), dtype=bool)
    obst[:, 1] = False
    obst[2, :] = False
    return mapgen.GridMap(obst)


class TestComputeOverlap:
    def test_disjoint_paths_zero_matrix(self):
        grid = mapgen.GridMap(np.zeros((4, 4), dtype=bool))
        res = social.compute_overlap(grid, [(0, 0), (3, 0)], [(0, 3), (3, 3)])
        assert not res.matrix.any()
        assert list(res.partners) == [0, 1]

    def test_same_direction_corridor_minimal(self):
        # Interior same-direction co-visits contribute nothing; the only
        # overlap left in a convoy is the leader's terminal cell (Stop differs
        # from the follower's move through it), so the total is a single
        # decayed term and far below the head-on figure on the same corridor.
        obst = np.ones((3, 6), dtype=bool)
        obst[1, :] = False
        grid = mapgen.GridMap(obst)
        convoy = social.compute_overlap(grid, [(1, 0), (1, 2)], [(1, 3), (1, 5)], decay=0.95)
        # shared cells (1,2) and (1,3); only (1,3) (leader goal, follower t=1) differs
        assert convoy.matrix[0, 1] == pytest.approx(0.95 ** 3 + 0.95 ** 1, abs=1e-15)
        head_on = social.compute_overlap(grid, [(1, 0), (1, 5)], [(1, 5), (1, 0)], decay=0.95)
        assert convoy.matrix[0, 1] < 0.2 * head_on.matrix[0, 1]

    def test_single_crossing_cell_decay_weights(self):
        grid = cross_map()
        # agent 0 crosses (2,1) at index 1 moving right; agent 1 at index 2 moving down
        res = social.compute_overlap(grid, [(2, 0), (0, 1)], [(2, 2), (3, 1)], decay=0.95)
        expected = 0.95 ** 1 + 0.95 ** 2
        assert res.matrix[0, 1] == pytest.approx(1.8525, abs=1e-12)
        assert res.matrix[0, 1] == pytest.approx(expected, abs=1e-15)
        assert res.matrix[1, 0] == res.matrix[0, 1]
        assert list(res.partners) == [1, 0]

    def test_matches_bruteforce_oracle(self):
        rng = SplitMix64(2024)
        for trial in range(120):
            scn = mapgen.gen_random(10, 10, 0.25, 2 + rng.randrange(7), seed=rng.next_u64())
            res = social.compute_overlap(scn.grid, scn.starts, scn.goals, decay=0.95)
            oracle = overlap_oracle(res.flows, 0.95)
            assert np.allclose(res.matrix, oracle, atol=1e-12, rtol=0)
            assert np.allclose(res.matrix, res.matrix.T, atol=0, rtol=0)
            assert not res.matrix.diagonal().any()

    def test_partner_argmax_tie_lowest_index(self):
        matrix = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5], [1.0, 0.5, 0.0]])
        partners = np.arange(3)
        for i in range(3):
            row = matrix[i]
            partners[i] = int(np.argmax(row)) if row.any() else i
        assert partners[0] == 1  # tie between 1 and 2 resolved to lowest index

    def test_bitwise_pure(self):
        scn = mapgen.gen_random(12, 12, 0.3, 6, seed=77)
        a = social.compute_overlap(scn.grid, scn.starts, scn.goals)
        b = social.compute_overlap(scn.grid, scn.starts, scn.goals)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.partners, b.partners)

    def test_unreachable_goal_singleton_flow(self):
        obst = np.zeros((3, 5), dtype=bool)
        obst[:, 2] = True
        grid = mapgen.GridMap(obst)
        res = social.compute_overlap(grid, [(1, 1), (0, 0)], [(1, 4), (1, 1)])
        assert res.unreachable == [0]
        assert res.flows[0].vertices == [(1, 1)]
        # agent 1 ends on agent 0's parked cell: STOP vs STOP contributes 0,
        # but crossing it mid-path with a move direction would not
        assert res.matrix[0, 1] == 0.0

    def test_parked_goal_counts_as_overlap(self):
        obst = np.ones((3, 4), dtype=bool)
        obst[1, :] = False
        grid = mapgen.GridMap(obst)
        # agent 0 already on its goal; agent 1 must drive through that cell
        res = social.compute_overlap(grid, [(1, 1), (1, 3)], [(1, 1), (1, 0)])
        assert res.matrix[0, 1] > 0.0

    def test_decay_domain(self):
        grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            social.compute_overlap(grid, [(0, 0)], [(2, 2)], decay=0.0)


class TestFixedPartners:
    def test_keep_while_overlap_persists(self):
        overlap = np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 0.0], [2.0, 0.0, 0.0]])
        temporary = np.array([2, 0, 0])
        previous = np.array([1, 0, 0])
        updated = social.update_fixed_partners(temporary, overlap, previous)
        assert updated[0] == 1  # overlap with 1 persists even though argmax is 2

    def test_all_zero_overlap_identity(self):
        overlap = np.zeros((3, 3))
        temporary = np.arange(3)
        updated = social.update_fixed_partners(temporary, overlap, np.array([1, 2, 0]))
        assert list(updated) == [0, 1, 2]

    def test_switch_when_conflict_resolves(self):
        # phase 1: agent 0 bound to 1; phase 2: overlap with 1 gone, new with 2
        previous = np.array([1, 0, 2])
        phase2_overlap = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        phase2_temporary = np.array([2, 1, 0])
        updated = social.update_fixed_partners(phase2_temporary, phase2_overlap, previous)
        assert updated[0] == 2
        assert updated[1] == 1

    def test_self_partner_reevaluates(self):
        overlap = np.array([[0.0, 1.0], [1.0, 0.0]])
        updated = social.update_fixed_partners(np.array([1, 0]), overlap, np.array([0, 1]))
        assert list(updated) == [1, 0]


class TestRedistribution:
    def test_fully_egoistic_identity(self):
        for r_self in (0.0, -0.3, -2.0, -3.0):
            _, r_a = social.redistribute_rewards(r_self, -2.0, 0.0)
            assert r_a == pytest.approx(r_self, abs=1e-15)

    def test_prosocial_45_symmetric(self):
        _, r_a = social.redistribute_rewards(-0.3, -0.3, 45.0)
        assert r_a == pytest.approx(-0.6 / math.sqrt(2.0), abs=1e-12)

    def test_svo_stream_arithmetic(self):
        r_s, _ = social.redistribute_rewards(-2.0, -0.3, 10.0, importance=2.0)
        assert r_s == pytest.approx(-1.15, abs=1e-15)

    def test_angle_domain(self):
        with pytest.raises(ValueError):
            social.redistribute_rewards(-0.3, -0.3, 46.0)
        with pytest.raises(ValueError):
            social.redistribute_rewards(-0.3, -0.3, -1.0)

    def test_nan_importance_is_refused(self):
        with pytest.raises(ValueError, match="^importance factor must be positive$"):
            social.redistribute_rewards(1.0, 1.0, 10.0, importance=math.nan)

    def test_self_pair_degenerate(self):
        r_s, r_a = social.redistribute_rewards(-0.3, -0.3, 45.0, importance=2.0)
        assert r_s == pytest.approx(-0.3)
        assert r_a == pytest.approx((math.cos(math.radians(45)) + math.sin(math.radians(45))) * -0.3)

    def test_svo_weighting_monotonicity_structure(self):
        # f(x) = a cos x + b sin x with a, b <= 0 is non-increasing on
        # [0, 45] degrees exactly when |b| >= |a| (f' = |a| sin x - |b| cos x).
        # Acceptance criterion 02 checks the full boundary (falling up to
        # atan(|b|/|a|), rising after it); here we pin the |b| >= |a| side.
        for c in (1.0, 2.0, 5.0):
            values = (-c, -2.0, -0.3, 0.0)
            for a in values:
                for b in values:
                    if abs(b) < abs(a):
                        continue
                    previous = None
                    for deg in range(46):
                        _, f = social.redistribute_rewards(a, b, float(deg))
                        if previous is not None:
                            assert f <= previous + 1e-12
                        previous = f
        # counterexample: own collision, partner resting on goal
        _, f0 = social.redistribute_rewards(-2.0, 0.0, 0.0)
        _, f45 = social.redistribute_rewards(-2.0, 0.0, 45.0)
        assert f45 > f0


class TestStabilityTarget:
    def test_zero_overlap_full_flexibility(self):
        z = np.array([0.1, 0.2, 0.7])
        z_prev = np.array([0.5, 0.3, 0.2])
        alpha, z_exp = social.stability_target(z, z_prev, 0.0, cap=1.0)
        assert alpha == 0.0
        assert np.allclose(z_exp, z)

    def test_saturated_overlap_locks_previous(self):
        z = np.array([0.1, 0.9])
        z_prev = np.array([0.6, 0.4])
        for o in (1.0, 1.5, 10.0):
            alpha, z_exp = social.stability_target(z, z_prev, o, cap=1.0)
            assert alpha == 1.0
            assert np.allclose(z_exp, z_prev)

    def test_midpoint(self):
        z = np.array([0.2, 0.8])
        z_prev = np.array([0.4, 0.6])
        alpha, z_exp = social.stability_target(z, z_prev, 0.5, cap=1.0)
        assert alpha == 0.5
        assert np.allclose(z_exp, (z + z_prev) / 2.0)

    def test_always_probability_vector_and_monotone_alpha(self):
        rng = SplitMix64(5)
        last_alpha = -1.0
        z = np.array([0.25, 0.25, 0.5])
        z_prev = np.array([0.7, 0.1, 0.2])
        for o in np.linspace(0.0, 2.0, 21):
            alpha, z_exp = social.stability_target(z, z_prev, float(o), cap=1.0)
            assert 0.0 <= alpha <= 1.0
            assert alpha >= last_alpha
            assert z_exp.sum() == pytest.approx(1.0, abs=1e-12)
            assert (z_exp >= 0).all()
            last_alpha = alpha
        for _ in range(50):
            raw = np.array([rng.random() for _ in range(4)]) + 1e-3
            z = raw / raw.sum()
            alpha, z_exp = social.stability_target(z, z, rng.random() * 3, cap=1.0)
            assert z_exp.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cap_domain(self):
        with pytest.raises(ValueError):
            social.stability_target(np.array([1.0]), np.array([1.0]), 0.5, cap=0.0)

    def test_nan_cap_is_refused(self):
        with pytest.raises(ValueError, match="^cap must be positive$"):
            social.stability_target(np.full(3, 1 / 3), np.full(3, 1 / 3), 0.5, cap=math.nan)


def test_svo_bin_angles_default():
    angles = social.svo_bin_angles(5)
    assert np.allclose(angles, [0.0, 11.25, 22.5, 33.75, 45.0])
    with pytest.raises(ValueError):
        social.svo_bin_angles(1)


def test_symmetry_fuzz():
    rng = SplitMix64(31337)
    for _ in range(1000):
        scn = mapgen.gen_random(8 + rng.randrange(8), 8 + rng.randrange(8),
                                0.3 * rng.random(), 2 + rng.randrange(6),
                                seed=rng.next_u64())
        res = social.compute_overlap(scn.grid, scn.starts, scn.goals,
                                     decay=0.5 + 0.5 * rng.random())
        assert np.array_equal(res.matrix, res.matrix.T)
        assert not res.matrix.diagonal().any()
        assert (res.matrix >= 0).all()


def assert_same_overlap(got, want):
    """Bit-for-bit equal results: matrix and partner bytes (dtype included),
    unreachable agents, hits and every flow."""
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert got.partners.dtype == want.partners.dtype
    assert got.partners.tobytes() == want.partners.tobytes()
    assert got.unreachable == want.unreachable
    assert got.hits.tobytes() == want.hits.tobytes()
    assert [(f.vertices, f.directions) for f in got.flows] == \
        [(f.vertices, f.directions) for f in want.flows]


@pytest.mark.parametrize("family", ["room", "random"])
@pytest.mark.parametrize("policy", ["hetero", "greedy"])
def test_episode_overlap_equals_a_cold_call_at_every_step(family, policy):
    # episode_steps hands each step's overlap to the next step's call; greedy
    # needs no overlap, so it runs under trace_social
    steps = 0
    for k, decay in enumerate((0.95, 0.6, 1.0, 0.8, 0.95, 0.3)):
        seed = derive_seed(4040, k)
        if family == "room":
            scn = mapgen.gen_room(24, 24, 12, seed)
        else:
            scn = mapgen.gen_random(16, 16, 0.25, 10, seed)
        env = Gridworld(scn, EnvConfig(max_episode_length=48, overlap_decay=decay,
                                       blocking_rewards=False))
        before = list(env.positions)
        for step in harness.episode_steps(env, harness.make_policy(policy, env.config),
                                          trace_social=True):
            assert_same_overlap(step.overlap, social.compute_overlap(env.grid, before, env.goals, decay))
            before = list(env.positions)
            steps += 1
    assert steps > 150


def test_overlap_reuse_fuzz_with_hand_moves():
    # each agent stays, steps onto its flow's next cell or jumps anywhere;
    # goals on other components leave some agents unreachable
    rng = SplitMix64(4242)
    unreachable = 0
    for _ in range(80):
        size = 8 + rng.randrange(8)
        grid = mapgen.gen_random(size, size, 0.35 * rng.random(), 1, rng.next_u64()).grid
        free = grid.free_cells()
        n = 2 + rng.randrange(6)
        positions, goals = rng.sample(free, n), rng.sample(free, n)
        decay = 0.5 + 0.5 * rng.random()
        previous = None
        for _ in range(10):
            res = social.compute_overlap(grid, positions, goals, decay, previous=previous)
            assert_same_overlap(res, social.compute_overlap(grid, positions, goals, decay))
            unreachable += len(res.unreachable)
            moved = []
            for pos, flow in zip(positions, res.flows):
                roll = rng.random()
                if roll < 0.4:
                    moved.append(pos)
                elif roll < 0.8 and len(flow) > 1:
                    moved.append(flow.vertices[1])
                else:
                    moved.append(free[rng.randrange(len(free))])
            positions, previous = moved, res
    assert unreachable > 0


def test_only_first_step_and_off_flow_agents_are_planned(monkeypatch):
    # an agent that stayed keeps its flow and one on its flow's next cell
    # takes the flow's suffix, so neither calls astar_path
    planned = []

    def counting(grid, start, goal):
        planned.append(start)
        return pathing.astar_path(grid, start, goal)

    monkeypatch.setattr(social, "astar_path", counting)
    along = off_flow = 0
    for k in range(6):
        scn = mapgen.gen_room(24, 24, 12, derive_seed(5151, k))
        env = Gridworld(scn, EnvConfig(max_episode_length=32, blocking_rewards=False))
        previous = None
        for step in harness.episode_steps(env, harness.make_policy("hetero", env.config)):
            starts = [f.vertices[0] for f in step.overlap.flows]
            if previous is None:
                want = starts
            else:
                old = [f.vertices for f in previous.flows]
                want = [pos for pos, o in zip(starts, old) if pos not in o[:2]]
                along += sum(pos == o[1] for pos, o in zip(starts, old) if len(o) > 1)
                off_flow += len(want)
            assert planned == want
            planned.clear()
            previous = step.overlap
    assert along > 0 and off_flow > 0


def test_an_underflowed_hit_is_still_a_hit():
    # At decay 0.01, decay ** t underflows to 0.0 past t ~ 161. Agent 1's goal
    # (STOP) is the one cell the convoy shares with differing directions, 180
    # steps ahead of both, so the pair has a hit that sums to 0.0. As both
    # step along their flows the cell comes closer and the sum turns positive;
    # a reuse rule that read "no hit" from a zero sum would keep it at 0.0.
    obst = np.ones((3, 402), dtype=bool)
    obst[1, :] = False
    grid = mapgen.GridMap(obst)
    goals = [(1, 400), (1, 181)]
    previous, sums = None, []
    for k in range(30):
        positions = [(1, k), (1, k + 1)]
        res = social.compute_overlap(grid, positions, goals, 0.01, previous=previous)
        assert_same_overlap(res, social.compute_overlap(grid, positions, goals, 0.01))
        assert res.hits[0, 1] and res.hits[1, 0]
        sums.append(float(res.matrix[0, 1]))
        previous = res
    assert sums[0] == 0.0 and sums[-1] > 0.0


def test_previous_must_hold_the_same_agents():
    grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
    res = social.compute_overlap(grid, [(0, 0)], [(2, 2)])
    with pytest.raises(ValueError, match="number of agents"):
        social.compute_overlap(grid, [(0, 0), (1, 1)], [(2, 2), (0, 2)], previous=res)
