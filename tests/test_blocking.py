"""Blocking detection against the masked-BFS predicate it replaced.

`reference_blocks_agent` and `_masked_distance` are the previous
implementation, copied verbatim (only the first is renamed) as the oracle: a
blocker counts when masking its cell makes the goal unreachable or lengthens
the start's shortest path by more than the threshold. The dominator chains behind the fast predicate are
checked against brute-force enumeration of every shortest path, and the
cut-vertex test that settles blocked pairs without a detour search against
the masked BFS kernel. The verdicts an environment keeps from one joint
state to the next are checked against the stateless predicate.
"""

import re
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svo_mapf import harness, mapgen, pathing
from svo_mapf.gridworld import EnvConfig, Gridworld, _chokes, _dominator_chain, detect_blocking
from svo_mapf.mapgen import _cut_vertices, _separates
from svo_mapf.pathing import UNREACHABLE, _bfs, distance_field
from svo_mapf.rng import SplitMix64, derive_seed

THRESHOLDS = (0, 1, 3, 10, 30)
FUZZ = settings(deadline=None, derandomize=True, max_examples=300)


def blocks_agent(grid, blocker_cell, start, goal, threshold) -> bool:
    """detect_blocking's verdict for one pair: the blocker on start's chain, and choking it."""
    b = blocker_cell[0] * grid.width + blocker_cell[1]
    return b in _dominator_chain(grid, start, goal) and _chokes(grid, b, start, goal, threshold)


def reference_blocks_agent(grid, blocker_cell, start, goal, threshold) -> bool:
    """Does treating blocker_cell as an obstacle choke start's route to goal?

    Cheap exact prefilter first: removing a cell can only lengthen the
    distance if the cell lies on at least one shortest path, i.e.
    d(start, cell) + d(cell, goal) equals the unobstructed distance. Both
    fields are cached on the map, so most pairs never run the masked BFS.
    """
    if start == goal:
        return False
    goal_field = distance_field(grid, goal)
    d0 = int(goal_field[start])
    if d0 == UNREACHABLE:
        return False
    via = int(goal_field[blocker_cell])
    if via == UNREACHABLE:
        return False
    start_field = distance_field(grid, start)
    if int(start_field[blocker_cell]) + via != d0:
        return False
    limit = d0 + threshold
    masked = _masked_distance(grid, start, goal, blocker_cell, limit)
    return masked == UNREACHABLE or masked > limit


def _masked_distance(grid, start, goal, masked_cell, limit) -> int:
    """BFS distance start->goal with one extra obstacle; UNREACHABLE beyond limit."""
    if start == masked_cell:
        return UNREACHABLE
    if start == goal:
        return 0
    h, w = grid.height, grid.width
    obstacles = grid.obstacles
    seen = np.zeros((h, w), dtype=bool)
    seen[start] = True
    seen[masked_cell] = True
    queue = deque([(start, 0)])
    while queue:
        (r, c), d = queue.popleft()
        if d >= limit:
            return UNREACHABLE
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            nr, nc = nxt
            if 0 <= nr < h and 0 <= nc < w and not obstacles[nr, nc] and not seen[nr, nc]:
                if nxt == goal:
                    return d + 1
                seen[nr, nc] = True
                queue.append((nxt, d + 1))
    return UNREACHABLE


def boundary_thresholds(grid, blocker, start, goal) -> set[int]:
    """Each pair's exact detour boundary: the masked detour length over the
    shortest distance, and one less (when non-negative)."""
    d0 = int(distance_field(grid, goal)[start])
    if start == goal or d0 == UNREACHABLE:
        return set()
    masked = _masked_distance(grid, start, goal, blocker, grid.height * grid.width)
    if masked == UNREACHABLE:
        return set()
    return {t for t in (masked - d0, masked - d0 - 1) if t >= 0}


@st.composite
def maps(draw, max_side=14):
    family = draw(st.sampled_from(["raw", "random", "room", "maze", "corridor"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "raw":
        h = draw(st.integers(2, 7))
        w = draw(st.integers(2, 7))
        cells = draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w))
        obstacles = np.array(cells, dtype=bool).reshape(h, w)
        if obstacles.all():
            obstacles[0, 0] = False
        return mapgen.GridMap(obstacles)
    if family == "random":
        side = draw(st.integers(4, max_side))
        return mapgen.gen_random(side, side, draw(st.sampled_from([0.0, 0.15, 0.3])), 1, seed).grid
    if family == "room":
        return mapgen.gen_room(draw(st.integers(8, max_side)), draw(st.integers(8, max_side)), 1, seed).grid
    if family == "maze":
        return mapgen.gen_maze(draw(st.integers(3, max_side)), draw(st.integers(3, max_side)), 1, seed).grid
    kind = draw(st.sampled_from(["recess", "i_shape"]))
    return mapgen.gen_corridor(kind, draw(st.integers(3, 12)), seed).grid


@given(data=st.data())
@FUZZ
def test_fast_predicate_matches_masked_bfs(data):
    grid = data.draw(maps())
    free = grid.free_cells()
    cell = st.sampled_from(free)
    for _ in range(8):
        start, goal, blocker = data.draw(cell), data.draw(cell), data.draw(cell)
        for b in (blocker, start, goal):
            thresholds = set(THRESHOLDS) | boundary_thresholds(grid, b, start, goal)
            for t in sorted(thresholds):
                want = reference_blocks_agent(grid, b, start, goal, t)
                assert blocks_agent(grid, b, start, goal, t) == want, (b, start, goal, t)


@pytest.mark.parametrize("family", ["random", "room", "maze", "corridor"])
def test_every_pair_on_one_map_per_family(family):
    # exhaustive over (blocker, start) for a few goals: every boundary case
    # that one map of each family can produce
    if family == "random":
        grid = mapgen.gen_random(9, 9, 0.25, 1, seed=11).grid
    elif family == "room":
        grid = mapgen.gen_room(10, 10, 1, seed=3).grid
    elif family == "maze":
        grid = mapgen.gen_maze(9, 9, 1, seed=5).grid
    else:
        grid = mapgen.gen_corridor("recess", 8, seed=2).grid
    free = grid.free_cells()
    blocked = 0
    for goal in free[::max(1, len(free) // 4)]:
        for start in free:
            for b in free:
                for t in (0, 2):
                    want = reference_blocks_agent(grid, b, start, goal, t)
                    assert blocks_agent(grid, b, start, goal, t) == want, (b, start, goal, t)
                    blocked += want
    assert blocked > 0


def _bfs_distances(grid, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        r, c = queue.popleft()
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if grid.is_free(*nxt) and nxt not in dist:
                dist[nxt] = dist[(r, c)] + 1
                queue.append(nxt)
    return dist


def _shortest_paths(start, goal, to_goal):
    """Every shortest start -> goal path, enumerated one by one."""
    if start == goal:
        yield [start]
        return
    r, c = start
    for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if to_goal.get(nxt) == to_goal[start] - 1:
            for rest in _shortest_paths(nxt, goal, to_goal):
                yield [start] + rest


def dominator_chain(grid, start, goal):
    entry = pathing._goal_entry(grid, goal)
    dist, idom = entry.dist, entry.idom
    w = grid.width
    cell = start[0] * w + start[1]
    chain = [cell]
    while cell != idom[cell]:
        assert dist[idom[cell]] < dist[cell]
        cell = idom[cell]
        chain.append(cell)
    return {divmod(i, w) for i in chain}


@given(data=st.data())
@FUZZ
def test_dominator_chain_is_the_set_of_cells_on_every_shortest_path(data):
    grid = data.draw(maps(max_side=8))
    free = grid.free_cells()
    goal = data.draw(st.sampled_from(free))
    to_goal = _bfs_distances(grid, goal)
    entry = pathing._goal_entry(grid, goal)
    dist, idom = entry.dist, entry.idom
    for start in free:
        flat = start[0] * grid.width + start[1]
        if start not in to_goal:
            assert dist[flat] == UNREACHABLE and idom[flat] == UNREACHABLE
            continue
        assert dist[flat] == to_goal[start]
        on_every = None
        for path in _shortest_paths(start, goal, to_goal):
            on_every = set(path) if on_every is None else on_every & set(path)
        assert dominator_chain(grid, start, goal) == on_every, (start, goal)
        if start != goal:
            assert {divmod(c, grid.width) for c in _dominator_chain(grid, start, goal)} == on_every


def test_dominator_chain_through_a_doorway():
    # two 3x3 rooms joined by a one-cell door at (1, 3)
    obst = np.zeros((3, 7), dtype=bool)
    obst[:, 3] = True
    obst[1, 3] = False
    grid = mapgen.GridMap(obst)
    assert dominator_chain(grid, (0, 0), (2, 6)) == {(0, 0), (1, 2), (1, 3), (1, 4), (2, 6)}
    assert dominator_chain(grid, (1, 1), (1, 5)) == {(1, 1), (1, 2), (1, 3), (1, 4), (1, 5)}


def test_detour_boundary_is_exact():
    # a 1-cell blocker mid-row with a loop around it: the detour is 2 steps
    obst = np.zeros((2, 5), dtype=bool)
    grid = mapgen.GridMap(obst)
    start, goal, blocker = (0, 0), (0, 4), (0, 2)
    assert reference_blocks_agent(grid, blocker, start, goal, 1)
    assert blocks_agent(grid, blocker, start, goal, 1)
    assert not blocks_agent(grid, blocker, start, goal, 2)
    assert not blocks_agent(grid, (1, 2), start, goal, 0)  # on no shortest path


def test_negative_threshold_would_split_the_predicates():
    # with threshold < 0 the masked-BFS predicate flags a cell that lies on
    # only some shortest paths, which no dominator chain holds; EnvConfig
    # therefore refuses negative thresholds (see test_gridworld)
    grid = mapgen.GridMap(np.zeros((2, 3), dtype=bool))
    assert reference_blocks_agent(grid, (0, 1), (0, 0), (1, 2), -1)
    assert not reference_blocks_agent(grid, (0, 1), (0, 0), (1, 2), 0)
    assert not blocks_agent(grid, (0, 1), (0, 0), (1, 2), 0)
    assert (0, 1) not in dominator_chain(grid, (0, 0), (1, 2))


def components(grid):
    """Flat cell -> component label, over free cells."""
    label = {}
    for cell in grid.free_cells():
        flat = cell[0] * grid.width + cell[1]
        if flat not in label:
            for v, d in enumerate(_bfs(grid, flat)):
                if d != UNREACHABLE:
                    label[v] = flat
    return label


def search_components(grid):
    """Flat cell -> component root, as the map's depth-first search records it."""
    _cut_vertices(grid)
    return {v: root for v, root in enumerate(grid._components) if root >= 0}


def assert_cut_test_matches_masked_bfs(grid, triples):
    label = components(grid)
    # both label a component by its smallest flat cell, so the partitions
    # agree exactly when the labels do
    assert search_components(grid) == label
    checked = 0
    for b, s, g in triples:
        if s == b or not (label[b] == label[s] == label[g]):
            continue
        want = _bfs(grid, s, removed=b)[g] == UNREACHABLE
        assert _separates(grid, b, s, g) == want, (divmod(b, grid.width), divmod(s, grid.width),
                                                    divmod(g, grid.width))
        checked += 1
    return checked


@given(data=st.data())
@FUZZ
def test_cut_test_matches_masked_bfs(data):
    grid = data.draw(maps())
    flat = [r * grid.width + c for r, c in grid.free_cells()]
    cell = st.sampled_from(flat)
    triples = []
    for _ in range(12):
        b, s, g = data.draw(cell), data.draw(cell), data.draw(cell)
        triples += [(b, s, g), (b, s, b), (g, s, g)]
    assert_cut_test_matches_masked_bfs(grid, triples)


def test_cut_test_exhaustive_with_a_root_cut_vertex_and_three_components():
    # the search starts at (0, 0), a cut vertex with two children; (0, 3) and
    # the bottom-right pocket are further components
    grid = mapgen.GridMap(np.array([
        [0, 0, 1, 0, 1, 1],
        [0, 1, 1, 1, 1, 1],
        [0, 0, 0, 1, 0, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 0, 1, 0, 0],
    ], dtype=bool))
    disc, last, separated = _cut_vertices(grid)
    assert disc[0] == 0 and len(separated[0]) == 2
    flat = [r * grid.width + c for r, c in grid.free_cells()]
    triples = [(b, s, g) for b in flat for s in flat for g in flat]
    assert assert_cut_test_matches_masked_bfs(grid, triples) > 1000


def test_isolated_cells_are_components_of_their_own():
    # (0, 0) and (0, 2) have no free neighbour; the bottom row is a third component
    grid = mapgen.GridMap(np.array([[0, 1, 0], [1, 1, 1], [0, 0, 0]], dtype=bool))
    assert search_components(grid) == components(grid) == {0: 0, 2: 2, 6: 6, 7: 6, 8: 6}
    assert list(grid._components) == [0, -1, 2, -1, -1, -1, 6, 6, 6]
    for start, goal in (((0, 0), (0, 2)), ((0, 2), (0, 0)), ((0, 0), (2, 0))):
        with pytest.raises(ValueError, match=re.escape(f"agent 0: goal {goal} unreachable from start {start}")):
            mapgen.Scenario(grid, [start], [goal], 0).validate()
    mapgen.Scenario(grid, [(0, 0), (0, 2)], [(0, 0), (0, 2)], 0).validate()


def test_one_search_per_map():
    # agent placement builds the graph; validating again reuses it
    scn = mapgen.gen_room(16, 16, 4, seed=1)
    grid = scn.grid
    table, cut, comp = grid._neighbour_table, grid._cut_vertices, grid._components
    assert table is not None and cut is not None and comp is not None
    scn.validate()
    mapgen.Scenario(grid, scn.goals, scn.starts, 0).validate()
    assert grid._neighbour_table is table and grid._cut_vertices is cut and grid._components is comp


def test_cut_structure_is_bounded_and_built_without_recursion():
    # a serpentine 256 x 256 map: the search runs about 33 000 cells deep,
    # far past the recursion limit, and almost every cell is a cut vertex
    assert sys.getrecursionlimit() < 256 * 128
    obst = np.zeros((256, 256), dtype=bool)
    obst[1::4, :-1] = True
    obst[3::4, 1:] = True
    grid = mapgen.GridMap(obst)
    disc, last, separated = _cut_vertices(grid)
    assert _cut_vertices(grid) is grid._cut_vertices
    h, w = grid.height, grid.width
    assert len(disc) + len(last) + sum(len(cs) for cs in separated.values()) <= 3 * h * w
    assert len(separated) > 0.9 * len(grid.free_cells())
    start, goal = (128, 0), (254, 0)
    assert blocks_agent(grid, (200, 7), start, goal, 10)
    assert not blocks_agent(grid, (64, 7), start, goal, 10)  # behind the start


def stateless_counts(env):
    """Agents each agent blocks, from blocks_agent over all ordered pairs."""
    t = env.config.block_threshold
    return [sum(blocks_agent(env.grid, env.positions[i], env.positions[j], env.goals[j], t)
                for j in range(env.n) if j != i) for i in range(env.n)]


@pytest.mark.parametrize("family", ["room", "random"])
@pytest.mark.parametrize("policy", ["hetero", "greedy"])
def test_kept_verdicts_match_the_stateless_predicate_every_step(family, policy):
    reused = 0
    for k, threshold in enumerate((10, 0, 3, 30)):
        seed = derive_seed(5050, k)
        if family == "room":
            scn = mapgen.gen_room(24, 24, 12, seed)
        else:
            scn = mapgen.gen_random(16, 16, 0.25, 10, seed)
        env = Gridworld(scn, EnvConfig(max_episode_length=40, block_threshold=threshold))
        for step in harness.episode_steps(env, harness.make_policy(policy, env.config)):
            assert step.outcome.blocked_counts.tolist() == stateless_counts(env)
            assert len(env._verdicts) + len(env._verdicts_before) <= 2 * env.n * (env.n - 1)
            # a verdict kept by both joint states was read from the earlier one
            reused += len(env._verdicts.keys() & env._verdicts_before.keys())
    assert reused > 0


def test_detect_blocking_after_agents_are_moved_by_hand():
    rng = SplitMix64(6060)
    for k in range(6):
        scn = mapgen.gen_room(16, 16, 8, derive_seed(6061, k))
        env = Gridworld(scn, EnvConfig(block_threshold=(0, 2, 10)[k % 3]))
        free = scn.grid.free_cells()
        for _ in range(40):
            # move some agents onto free cells nobody holds, in place or by a new list
            held = set(env.positions)
            for i in rng.sample(range(env.n), 1 + rng.randrange(env.n)):
                cell = free[rng.randrange(len(free))]
                if cell not in held:
                    held.discard(env.positions[i])
                    held.add(cell)
                    env.positions[i] = cell
            if rng.random() < 0.5:
                env.positions = list(env.positions)
            assert [detect_blocking(env, i) for i in range(env.n)] == stateless_counts(env)
            assert len(env._verdicts) + len(env._verdicts_before) <= 2 * env.n * (env.n - 1)
        env.reset()
        assert env._verdicts == {} and env._verdicts_before == {} and env._chains_at is None


def fresh(grid):
    """A copy of the map with nothing cached on it yet."""
    return mapgen.GridMap(grid.obstacles)


@given(data=st.data())
@FUZZ
def test_blocking_on_goal_searches_nothing_has_completed(data):
    # each verdict is reached on a fresh map first, so the goal's search is
    # paused where the chain walk and the detour left it; the oracle then
    # completes the search on a second copy of the map
    shape = data.draw(maps())
    free = shape.free_cells()
    cell = st.sampled_from(free)
    grid, oracle = fresh(shape), fresh(shape)
    for _ in range(8):
        start, goal, blocker = data.draw(cell), data.draw(cell), data.draw(cell)
        t = data.draw(st.sampled_from(THRESHOLDS))
        got = blocks_agent(grid, blocker, start, goal, t)
        assert got == reference_blocks_agent(oracle, blocker, start, goal, t), (blocker, start, goal, t)


@pytest.mark.parametrize("family", ["room", "random"])
def test_detect_blocking_on_goal_searches_nothing_has_completed(family):
    partial = 0
    for k, threshold in enumerate((10, 0, 3)):
        seed = derive_seed(7070, k)
        if family == "room":
            scn = mapgen.gen_room(24, 24, 12, seed)
        else:
            scn = mapgen.gen_random(16, 16, 0.25, 10, seed)
        grid, oracle = fresh(scn.grid), fresh(scn.grid)
        env = Gridworld(mapgen.Scenario(grid, scn.starts, scn.goals, scn.seed),
                        EnvConfig(block_threshold=threshold))
        counts = [detect_blocking(env, i) for i in range(env.n)]
        partial += sum(entry.queue is not None for entry in grid._goal_cache.values())
        want = [sum(reference_blocks_agent(oracle, env.positions[i], env.positions[j], env.goals[j],
                                           threshold) for j in range(env.n) if j != i)
                for i in range(env.n)]
        assert counts == want
    assert partial > 0
