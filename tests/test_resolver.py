import re
from collections import deque

import numpy as np
import pytest

from svo_mapf import mapgen, resolver
from svo_mapf.gridworld import EnvConfig, Gridworld
from svo_mapf.pathing import ACTION_DELTAS, DOWN, IDLE, LEFT, RIGHT, UP
from svo_mapf.resolver import INVALIDATED, NORMAL, RESTRICTED_IDLED
from svo_mapf.rng import SplitMix64


def open_grid(h=5, w=5):
    return mapgen.GridMap(np.zeros((h, w), dtype=bool))


def apply_joint(positions, actions):
    out = []
    for pos, a in zip(positions, actions):
        dr, dc = ACTION_DELTAS[int(a)]
        out.append((pos[0] + dr, pos[1] + dc))
    return out


def rotation_in(before, after):
    """A cycle of three or more agents, each entering the cell the next one
    leaves, in the joint move before -> after (cells all distinct), or None."""
    left_by = {cell: j for j, cell in enumerate(before)}
    for start in range(len(before)):
        cycle = [start]
        while len(cycle) <= len(before):
            i = cycle[-1]
            nxt = left_by.get(after[i]) if after[i] != before[i] else None
            if nxt is None or nxt == start:
                break
            cycle.append(nxt)
        if nxt == start and len(cycle) >= 3:
            return cycle
    return None


def assert_conditions(grid, positions, adjusted):
    new = apply_joint(positions, adjusted)
    for cell in new:
        assert grid.is_free(*cell)
    assert len(set(new)) == len(new), "vertex conflict survived resolution"
    for i in range(len(new)):
        for j in range(i + 1, len(new)):
            assert not (new[i] == positions[j] and new[j] == positions[i]), "swap survived"
    assert rotation_in(positions, new) is None, "rotation survived"


# The resolver before its index: every classify scans every agent, and so does
# every cascade. It accepts rotations. It is the oracle for inputs on which it
# emits none.

def oracle_target(positions, actions, i):
    dr, dc = ACTION_DELTAS[int(actions[i])]
    r, c = positions[i]
    return r + dr, c + dc


def oracle_classify(grid, positions, actions, agent):
    tgt = oracle_target(positions, actions, agent)
    if not grid.is_free(*tgt):
        return "invalid", set()
    conflicts = set()
    for j in range(len(positions)):
        if j == agent:
            continue
        tgt_j = oracle_target(positions, actions, j)
        if tgt_j == tgt:
            conflicts.add(j)
        elif tgt == positions[j] and tgt_j == positions[agent]:
            conflicts.add(j)
    if conflicts:
        return "restricted", conflicts
    return "valid", set()


def oracle_resolve(grid, positions, intents, svo_degrees):
    n = len(positions)
    intents = np.asarray(intents, dtype=np.int64)
    svo = np.asarray(svo_degrees, dtype=np.float64)
    actions = intents.copy()
    penalties = np.zeros(n, dtype=np.float64)
    annotations = [NORMAL] * n
    idled = [False] * n
    order = sorted(range(n), key=lambda i: (-svo[i], i))
    chain = deque(order)
    queued = set(order)
    iterations = 0

    def cascade(i):
        for j in range(n):
            if j == i or idled[j] or j in queued:
                continue
            if oracle_target(positions, actions, j) == positions[i]:
                chain.append(j)
                queued.add(j)

    while chain:
        i = chain.popleft()
        queued.discard(i)
        iterations += 1
        if idled[i]:
            continue
        kind, conflicts = oracle_classify(grid, positions, actions, i)
        if kind == "invalid":
            actions[i] = IDLE
            idled[i] = True
            annotations[i] = INVALIDATED
            penalties[i] = resolver.COLLISION_PENALTY
            cascade(i)
        elif kind == "restricted":
            actions[i] = IDLE
            idled[i] = True
            annotations[i] = RESTRICTED_IDLED
            for j in sorted(conflicts):
                if svo[i] > svo[j]:
                    penalties[i] = resolver.COLLISION_PENALTY
                elif svo[j] > svo[i]:
                    penalties[j] = resolver.COLLISION_PENALTY
            cascade(i)
    return resolver.ResolutionOutcome(actions, penalties, annotations, iterations)


def classify(grid, positions, actions, agent):
    """The resolver's kind for one agent of a fresh working joint move."""
    return resolver._JointMove(positions, resolver._targets(positions, actions)).classify(grid, agent)


class TestClassify:
    def test_wall_is_invalid(self):
        grid = open_grid()
        kind, conflicts = classify(grid, [(0, 0)], np.array([UP]), 0)
        assert kind == "invalid" and conflicts == set()

    def test_shared_target_both_restricted(self):
        grid = open_grid()
        positions = [(2, 1), (2, 3)]
        actions = np.array([RIGHT, LEFT])
        k0, c0 = classify(grid, positions, actions, 0)
        k1, c1 = classify(grid, positions, actions, 1)
        assert k0 == "restricted" and c0 == {1}
        assert k1 == "restricted" and c1 == {0}

    def test_swap_is_restricted(self):
        grid = open_grid()
        positions = [(2, 1), (2, 2)]
        actions = np.array([RIGHT, LEFT])
        kind, conflicts = classify(grid, positions, actions, 0)
        assert kind == "restricted" and conflicts == {1}

    def test_idle_never_invalid(self):
        grid = open_grid()
        kind, _ = classify(grid, [(0, 0)], np.array([IDLE]), 0)
        assert kind == "valid"


class TestResolve:
    def test_compatible_intents_untouched(self):
        grid = open_grid()
        positions = [(0, 0), (4, 4), (2, 2)]
        intents = np.array([RIGHT, LEFT, UP])
        out = resolver.resolve(grid, positions, intents, np.zeros(3))
        assert np.array_equal(out.actions, intents)
        assert not out.penalties.any()
        assert out.annotations == [NORMAL] * 3

    def test_wall_walker_idled_penalized(self):
        grid = open_grid()
        out = resolver.resolve(grid, [(0, 1), (4, 4)], np.array([UP, LEFT]), np.zeros(2))
        assert out.actions[0] == IDLE
        assert out.penalties[0] == -2.0
        assert out.annotations[0] == INVALIDATED
        assert out.actions[1] == LEFT and out.penalties[1] == 0.0

    def test_swap_penalizes_only_prosocial(self):
        grid = open_grid()
        positions = [(2, 1), (2, 2)]
        out = resolver.resolve(grid, positions, np.array([RIGHT, LEFT]),
                               np.array([45.0, 0.0]))
        assert list(out.actions) == [IDLE, IDLE]
        assert out.penalties[0] == -2.0 and out.penalties[1] == 0.0
        assert_conditions(grid, positions, out.actions)

    def test_equal_svo_no_penalty_both_idle(self):
        grid = open_grid()
        positions = [(2, 1), (2, 2)]
        out = resolver.resolve(grid, positions, np.array([RIGHT, LEFT]),
                               np.array([22.5, 22.5]))
        assert list(out.actions) == [IDLE, IDLE]
        assert not out.penalties.any()

    def test_follower_cycle_fixture(self):
        # Chain topology: 0 follows 2, 2 follows 3, 3 follows 1, 1 walks into a
        # wall, 4 follows 0; SVOs strictly descending by index.
        obst = np.zeros((3, 7), dtype=bool)
        obst[0, 1] = True
        grid = mapgen.GridMap(obst)
        positions = [(1, 4), (1, 1), (1, 3), (1, 2), (1, 5)]
        intents = np.array([LEFT, UP, LEFT, LEFT, LEFT])
        svos = np.array([45.0, 40.0, 30.0, 20.0, 10.0])
        out = resolver.resolve(grid, positions, intents, svos)
        assert list(out.actions) == [IDLE] * 5
        assert out.annotations[1] == INVALIDATED
        assert {i for i in range(5) if out.penalties[i] == -2.0} == {0, 1, 2}
        assert out.iterations <= 4 * 5
        assert_conditions(grid, positions, out.actions)
        # penalty membership oracle: every penalized non-invalid agent is
        # strictly more prosocial than its conflict counterpart
        assert svos[0] > svos[2] and svos[2] > svos[3] and svos[1] > svos[3]

    def test_deterministic(self):
        grid = open_grid()
        positions = [(2, 1), (2, 2), (2, 3)]
        intents = np.array([RIGHT, LEFT, LEFT])
        svos = np.array([10.0, 20.0, 30.0])
        a = resolver.resolve(grid, positions, intents, svos)
        b = resolver.resolve(grid, positions, intents, svos)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.penalties, b.penalties)
        assert a.annotations == b.annotations and a.iterations == b.iterations

    @pytest.mark.parametrize("positions, intent, svos, message", [
        # the action rule of Gridworld.step: no intent is rounded or cast
        *[pytest.param([(1, 0), (1, 3)], bad, [0.0, 0.0],
                       f"agent 1: action {bad!r} is not an integer in 0-4", id=str(bad))
          for bad in [7, -1, 5, 1.5, float("nan"), "1"]],
        # the SVO order needs finite numbers in [0, 45]: NaN compares false
        # both ways, so a swap would idle both agents with no penalty
        *[pytest.param([(1, 0), (1, 3)], LEFT, [45.0, bad],
                       f"svos[1]: {bad} is not an angle in [0, 45] degrees", id=f"angle-{bad}")
          for bad in [float("nan"), float("inf"), float("-inf"), -1e-9, 45.0001, True, "1"]],
        pytest.param([(1, 0), (1, 0)], LEFT, [0.0, 0.0], "positions[1]: agents 0 and 1 share [1, 0]",
                     id="shared-cell"),
        pytest.param([(1, 0), (5, 5)], IDLE, [0.0, 0.0],
                     "positions[1]: [5, 5] is not a free cell of the 5x5 map", id="off-map"),
        pytest.param([(4, 4), (1, 0)], IDLE, [0.0, 0.0],
                     "positions[0]: [4, 4] is not a free cell of the 5x5 map", id="on-obstacle"),
        # a position is a (row, col) tuple of integers: a bool is none, and
        # neither is a list, which would not hash into the cell -> agent map
        *[pytest.param([(1, 0), bad], IDLE, [0.0, 0.0],
                       f"positions[1]: {bad!r} is not a (row, col) tuple of two integers",
                       id=f"position-{bad}")
          for bad in [(1.5, 0), (0,), None, (0, 0, 0), [0, 0], (True, 0)]],
    ])
    def test_invalid_intent_is_named(self, positions, intent, svos, message):
        # every input resolve would misread is refused, naming the first fault
        obstacles = np.zeros((5, 5), dtype=bool)
        obstacles[4, 4] = True
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            resolver.resolve(mapgen.GridMap(obstacles), positions,
                             np.array([RIGHT, intent], dtype=object), svos)

    def test_integral_float_intents_are_those_actions(self):
        out = resolver.resolve(open_grid(), [(1, 0), (1, 3)], np.array([float(RIGHT), float(IDLE)]),
                               np.zeros(2))
        assert out.actions.dtype == np.int64 and out.actions.tolist() == [RIGHT, IDLE]


def test_exhaustive_two_agent_configurations():
    """Every 2-agent setup on a small map resolves safely."""
    grid = open_grid(3, 3)
    cells = grid.free_cells()
    checked = 0
    for p0 in cells:
        for p1 in cells:
            if p0 == p1:
                continue
            for a0 in range(5):
                for a1 in range(5):
                    for svos in (np.array([45.0, 0.0]), np.array([0.0, 45.0]),
                                 np.array([20.0, 20.0])):
                        out = resolver.resolve(grid, [p0, p1],
                                               np.array([a0, a1]), svos)
                        assert_conditions(grid, [p0, p1], out.actions)
                        assert out.iterations <= 8
                        for i, ann in enumerate(out.annotations):
                            if ann == NORMAL:
                                assert out.actions[i] == [a0, a1][i]
                                assert out.penalties[i] == 0.0
                            else:
                                assert out.actions[i] == IDLE
                        checked += 1
    assert checked == 72 * 25 * 3


def test_fuzz_safety_invariants():
    """Large random-intent fuzz; the acceptance suite runs the episode form."""
    rng = SplitMix64(0xFADE)
    maps = [mapgen.gen_random(7 + rng.randrange(6), 7 + rng.randrange(6),
                              0.25 * rng.random(), 2, seed=rng.next_u64()).grid
            for _ in range(20)]
    trials = 0
    for grid in maps:
        free = grid.free_cells()
        n_max = min(8, len(free) // 2)
        for _ in range(5000):
            n = 2 + rng.randrange(max(1, n_max - 1))
            positions = rng.sample(free, n)
            intents = np.array([rng.randrange(5) for _ in range(n)])
            svos = np.array([rng.random() * 45.0 for _ in range(n)])
            out = resolver.resolve(grid, positions, intents, svos)
            assert_conditions(grid, positions, out.actions)
            assert out.iterations <= 4 * n
            for i in range(n):
                if out.annotations[i] == NORMAL:
                    assert out.actions[i] == intents[i]
                if out.penalties[i] == -2.0 and out.annotations[i] != INVALIDATED:
                    # strictly-higher-SVO member of at least one pair
                    assert any(svos[i] > svos[j] for j in range(n) if j != i)
            trials += 1
    assert trials == 100_000


def test_greedy_intents_properties():
    scn = mapgen.gen_random(12, 12, 0.25, 8, seed=3)
    intents = resolver.greedy_intents(scn.grid, scn.starts, scn.goals)
    from svo_mapf.pathing import distance_field
    for i, (s, g) in enumerate(zip(scn.starts, scn.goals)):
        if s == g:
            assert intents[i] == IDLE
        else:
            dr, dc = ACTION_DELTAS[int(intents[i])]
            dist = distance_field(scn.grid, g)
            assert dist[s[0] + dr, s[1] + dc] == dist[s] - 1


def _following_intents(rng, positions):
    """Intents that mostly follow one another: each agent aims at a random
    neighbour, preferring an occupied one, so follower chains, cascades and
    rotations are common."""
    occupied = set(positions)
    intents = []
    for r, c in positions:
        moves = [a for a in (UP, DOWN, LEFT, RIGHT)
                 if (r + ACTION_DELTAS[a][0], c + ACTION_DELTAS[a][1]) in occupied]
        intents.append(rng.choice(moves) if moves and rng.random() < 0.8 else rng.randrange(5))
    return np.array(intents)


def _crowd(rng, grid, n):
    """n agents on distinct free cells, following intents and SVOs."""
    positions = rng.sample(grid.free_cells(), n)
    intents = _following_intents(rng, positions)
    # a third of the inputs share SVOs, so ties between members are routed too
    svos = [rng.choice([0.0, 45.0]) if rng.random() < 0.33 else rng.random() * 45.0 for _ in range(n)]
    return positions, intents, np.array(svos)


def test_resolve_matches_the_oracle_wherever_the_oracle_emits_no_rotation():
    rng = SplitMix64(0x0DD5)
    compared = cascades = rotations = 0
    for trial in range(400):
        n = int(round(2 ** (1 + 7 * rng.random())))      # 2-256 agents, log-uniform
        side = max(3, int((n / (0.45 + 0.4 * rng.random())) ** 0.5))
        grid = (open_grid(side, side) if trial % 2 else
                mapgen.gen_random(side + 2, side + 2, 0.15, 2, seed=rng.next_u64()).grid)
        n = min(n, len(grid.free_cells()))
        positions, intents, svos = _crowd(rng, grid, n)
        want = oracle_resolve(grid, positions, intents, svos)
        got = resolver.resolve(grid, positions, intents, svos)
        assert_conditions(grid, positions, got.actions)
        assert got.iterations <= 4 * n
        if rotation_in(positions, apply_joint(positions, want.actions)) is not None:
            rotations += 1
            continue
        assert np.array_equal(got.actions, want.actions), trial
        assert np.array_equal(got.penalties, want.penalties), trial
        assert got.annotations == want.annotations, trial
        assert got.iterations == want.iterations, trial
        compared += 1
        cascades += want.iterations > n
    # most inputs are compared, most of those re-queue idled agents' followers,
    # and the refused rotations are exercised too
    assert compared > 300 and cascades > compared // 2 and rotations > 10, (compared, cascades, rotations)


def test_a_rotation_idles_its_most_prosocial_member_and_then_the_rest():
    # four agents on a 2x2 block, each one step clockwise; agent 2 is the most
    # prosocial, so it idles first, taking the penalty, and the cascade idles
    # the agent entering its cell, then the one entering that one's, and so on
    grid = open_grid(2, 2)
    positions = [(0, 0), (0, 1), (1, 1), (1, 0)]
    intents = np.array([RIGHT, DOWN, LEFT, UP])
    svos = np.array([10.0, 10.0, 30.0, 20.0])
    out = resolver.resolve(grid, positions, intents, svos)
    assert list(out.actions) == [IDLE] * 4
    assert out.annotations == [RESTRICTED_IDLED] * 4
    # 2 pays as the most prosocial member; 1 and 0 idle next without paying,
    # and 3 pays over 0, whose cell it would enter
    assert list(out.penalties) == [0.0, 0.0, -2.0, -2.0]
    assert out.iterations == 4 + 3
    # equal SVOs route no penalty, as for a swap
    out = resolver.resolve(grid, positions, intents, np.full(4, 20.0))
    assert list(out.actions) == [IDLE] * 4 and not out.penalties.any()
    # a rotation beside an agent that follows into it idles that agent too
    grid = open_grid(3, 3)
    positions = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 1)]
    intents = np.array([RIGHT, DOWN, LEFT, UP, UP])
    out = resolver.resolve(grid, positions, intents, np.zeros(5))
    assert list(out.actions) == [IDLE] * 5


def test_safety_fuzz_at_128_to_256_agents():
    """Whole episodes on room and random maps at 128-256 agents, with greedy
    and following intents: every applied joint move keeps off obstacles, shares
    no vertex, swaps no pair and rotates no cycle, and the chain stays within
    4n pops. The checks are the test's own, not the library's."""
    rng = SplitMix64(0x5AFE)
    scenarios = [mapgen.gen_room(64, 64, 128, 0), mapgen.gen_room(64, 64, 256, 1),
                 mapgen.gen_random(40, 40, 0.2, 128, 2), mapgen.gen_random(40, 40, 0.2, 256, 3)]
    steps = rotations_refused = 0
    for scn in scenarios:
        env = Gridworld(scn, EnvConfig(max_episode_length=40, blocking_rewards=False))
        n = env.n
        while not env.terminated:
            before = list(env.positions)
            if env.t % 2:
                intents = _following_intents(rng, before)
            else:
                intents = resolver.greedy_intents(env.grid, before, env.goals)
            svos = np.array([rng.random() * 45.0 for _ in range(n)])
            out = resolver.resolve(env.grid, before, intents, svos)
            assert out.iterations <= 4 * n
            rotations_refused += rotation_in(before, apply_joint(before, intents)) is not None
            env.step(out.actions, out.penalties)
            after = env.positions
            assert after == apply_joint(before, out.actions)
            assert all(env.grid.is_free(*cell) for cell in after)
            assert len(set(after)) == n, "shared vertex"
            left_by = {cell: j for j, cell in enumerate(before)}
            for i, cell in enumerate(after):
                j = left_by.get(cell, i)
                assert j == i or after[j] != before[i], f"agents {i} and {j} swap"
            assert rotation_in(before, after) is None, "rotation"
            steps += 1
    assert steps == 4 * 40 and rotations_refused >= 5, rotations_refused
