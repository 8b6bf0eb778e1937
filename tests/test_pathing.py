import heapq
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svo_mapf import mapgen, pathing
from svo_mapf.gridworld import _dominator_chain
from svo_mapf.pathing import ACTION_DELTAS, STOP, UNREACHABLE, NoPathError, _bfs
from test_blocking import FUZZ, maps


def dijkstra_oracle(grid, goal):
    """Independent shortest-path oracle (heap-based, unit costs)."""
    dist = np.full((grid.height, grid.width), UNREACHABLE, dtype=np.int64)
    heap = [(0, goal)]
    dist[goal] = 0
    while heap:
        d, (r, c) = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if grid.is_free(*nxt) and (dist[nxt] == UNREACHABLE or d + 1 < dist[nxt]):
                dist[nxt] = d + 1
                heapq.heappush(heap, (d + 1, nxt))
    return dist


def test_empty_3x3_center_goal():
    grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
    dist = pathing.distance_field(grid, (1, 1))
    for corner in ((0, 0), (0, 2), (2, 0), (2, 2)):
        assert dist[corner] == 2
    assert dist[1, 1] == 0


def test_walled_off_goal():
    obst = np.zeros((5, 5), dtype=bool)
    obst[1, :3] = True
    obst[:2, 2] = True  # pocket around (0, 0..1)
    grid = mapgen.GridMap(obst)
    dist = pathing.distance_field(grid, (0, 0))
    assert dist[0, 1] == 1
    assert (dist[2:, :] == UNREACHABLE).all()


def test_matches_dijkstra_oracle():
    for seed in range(10):
        scn = mapgen.gen_random(20, 20, 0.3, 1, seed=seed)
        goal = scn.goals[0]
        assert np.array_equal(pathing.distance_field(scn.grid, goal),
                              dijkstra_oracle(scn.grid, goal))


def test_goal_on_obstacle_rejected():
    obst = np.zeros((3, 3), dtype=bool)
    obst[1, 1] = True
    with pytest.raises(ValueError):
        pathing.distance_field(mapgen.GridMap(obst), (1, 1))


def test_distance_field_invariant_descent_neighbor():
    scn = mapgen.gen_random(15, 15, 0.25, 1, seed=3)
    dist = pathing.distance_field(scn.grid, scn.goals[0])
    for r in range(15):
        for c in range(15):
            d = dist[r, c]
            if d <= 0:
                continue
            neighbors = [dist[r + dr, c + dc] for dr, dc in ACTION_DELTAS.values()
                         if (dr, dc) != (0, 0) and scn.grid.in_bounds(r + dr, c + dc)]
            assert d - 1 in neighbors


class TestPaths:
    def test_start_equals_goal(self):
        grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
        flow = pathing.astar_path(grid, (1, 1), (1, 1))
        assert flow.vertices == [(1, 1)]
        assert flow.directions == [STOP]
        assert len(flow) - 1 == 0

    def test_forced_corridor_path(self):
        scn = mapgen.gen_corridor("recess", 6, seed=1)
        flow = pathing.astar_path(scn.grid, (1, 0), (1, 5))
        assert flow.vertices == [(1, c) for c in range(6)]

    def test_length_matches_distance_field(self):
        count = 0
        for seed in range(25):
            scn = mapgen.gen_random(14, 14, 0.3, 2, seed=seed)
            for s, g in zip(scn.starts, scn.goals):
                flow = pathing.astar_path(scn.grid, s, g)
                assert len(flow) - 1 == pathing.distance_field(scn.grid, g)[s]
                count += 1
        assert count == 50

    def test_deterministic(self):
        scn = mapgen.gen_random(16, 16, 0.25, 1, seed=4)
        a = pathing.astar_path(scn.grid, scn.starts[0], scn.goals[0])
        b = pathing.astar_path(scn.grid, scn.starts[0], scn.goals[0])
        assert a.vertices == b.vertices and a.directions == b.directions

    def test_directions_reconstruct_vertices(self):
        scn = mapgen.gen_random(16, 16, 0.25, 3, seed=6)
        for s, g in zip(scn.starts, scn.goals):
            flow = pathing.astar_path(scn.grid, s, g)
            pos = flow.vertices[0]
            rebuilt = [pos]
            for d in flow.directions[:-1]:
                dr, dc = ACTION_DELTAS[d]
                pos = (pos[0] + dr, pos[1] + dc)
                rebuilt.append(pos)
            assert rebuilt == flow.vertices
            assert flow.directions[-1] == STOP

    def test_unreachable_raises(self):
        obst = np.zeros((3, 5), dtype=bool)
        obst[:, 2] = True
        grid = mapgen.GridMap(obst)
        with pytest.raises(NoPathError):
            pathing.astar_path(grid, (0, 0), (0, 4))


def test_greedy_step_properties():
    scn = mapgen.gen_random(12, 12, 0.25, 8, seed=7)
    for s, g in zip(scn.starts, scn.goals):
        action = pathing.greedy_step(scn.grid, s, g)
        if s == g:
            assert action == pathing.IDLE
        else:
            dr, dc = ACTION_DELTAS[action]
            dist = pathing.distance_field(scn.grid, g)
            assert dist[s[0] + dr, s[1] + dc] == dist[s] - 1


def path_or_none(grid, start, goal):
    try:
        flow = pathing.astar_path(grid, start, goal)
    except NoPathError:
        return None
    return flow.vertices, flow.directions


@given(family=st.sampled_from(["random", "room", "maze"]), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, derandomize=True, max_examples=30)
def test_paths_do_not_depend_on_the_order_they_are_planned_in(family, seed):
    # every path equals the one planned on a fresh map in the reverse order,
    # where the goal's search was resumed to other cells first
    if family == "random":
        scn = mapgen.gen_random(12, 12, 0.3, 2, seed)
    elif family == "room":
        scn = mapgen.gen_room(12, 12, 2, seed)
    else:
        scn = mapgen.gen_maze(6, 6, 2, seed)
    free = scn.grid.free_cells()
    for goal in scn.goals:
        forward, backward = (mapgen.GridMap(scn.grid.obstacles) for _ in range(2))
        ahead = [path_or_none(forward, s, goal) for s in free]
        behind = [path_or_none(backward, s, goal) for s in reversed(free)][::-1]
        assert ahead == behind
        assert ahead == [path_or_none(forward, s, goal) for s in free]


def test_mutating_a_returned_path_leaves_the_next_one_alone():
    scn = mapgen.gen_room(12, 12, 1, seed=2)
    grid, start, goal = scn.grid, scn.starts[0], scn.goals[0]
    first = pathing.astar_path(grid, start, goal)
    want = (list(first.vertices), list(first.directions))
    first.vertices.reverse()
    first.directions.append(STOP)
    first.vertices[0] = (-1, -1)
    middle = pathing.astar_path(grid, want[0][1], goal)
    middle.vertices.clear()
    again = pathing.astar_path(grid, start, goal)
    assert (again.vertices, again.directions) == want
    assert again.vertices is not first.vertices


def test_greedy_step_rejects_a_cell_that_is_not_free():
    # (-1, 0) once wrapped to cell (1, 0) and moved RIGHT, the obstacle idled
    # and (5, 5) raised IndexError
    obst = np.zeros((2, 3), dtype=bool)
    obst[0, 1] = True
    grid = mapgen.GridMap(obst)
    for pos in ((-1, 0), (0, 1), (5, 5), (0, -1), (2, 0)):
        with pytest.raises(ValueError, match=re.escape(f"pos {pos} is not a free cell")):
            pathing.greedy_step(grid, pos, (0, 2))
    assert pathing.greedy_step(grid, (1, 0), (0, 2)) == pathing.RIGHT


@pytest.mark.parametrize("call, name, cell", [
    (lambda g, cell: pathing.astar_path(g, (0, 0), cell), "goal", (True, 2)),
    (lambda g, cell: pathing.astar_path(g, cell, (2, 2)), "start", (1.5, 0)),
    (lambda g, cell: pathing.greedy_step(g, cell, (2, 2)), "pos", (True, 0)),
    (lambda g, cell: pathing.greedy_step(g, (0, 0), cell), "goal", [2, 2]),
    (lambda g, cell: pathing.distance_field(g, cell), "goal", (1.0, 1)),
    (lambda g, cell: pathing.distance_field(g, cell), "goal", [1, 1]),
    (lambda g, cell: pathing.distance_field(g, cell), "goal", (2.0, 2)),
])
def test_a_cell_argument_must_be_a_tuple_of_two_integers(call, name, cell):
    # (True, 2) once planned to (1, 2), (True, 0) stepped as if from (1, 0),
    # floats and lists raised TypeError, and (2.0, 2) passed once (2, 2) was
    # in the goal cache, as equal tuples hash alike
    grid = mapgen.GridMap(np.zeros((3, 3), dtype=bool))
    pathing.distance_field(grid, (2, 2))
    with pytest.raises(ValueError, match=re.escape(f"{name} {cell!r} is not a (row, col) tuple of two integers")):
        call(grid, cell)
    assert pathing.greedy_step(grid, (np.int64(0), 2), (2, 2)) == pathing.DOWN


def reference_goal_bfs(grid, goal):
    """The goal's one-shot BFS with dominators as the library ran it before
    goal searches were resumed, copied from its `_bfs` and `_goal_entry` (the
    target, removed-cell and bound arguments dropped): flat distances and
    immediate dominators as array('i')."""
    g = goal[0] * grid.width + goal[1]
    dist = [UNREACHABLE] * (grid.height * grid.width)
    idom = [UNREACHABLE] * (grid.height * grid.width)
    dist[g] = 0
    idom[g] = g
    nbrs = mapgen._neighbour_table(grid)
    queue = [g]
    for u in queue:
        d = dist[u] + 1
        for v in nbrs[u]:
            dv = dist[v]
            if dv == UNREACHABLE:
                dist[v] = d
                idom[v] = u
                queue.append(v)
            elif dv == d:
                a, b = idom[v], u
                while a != b:
                    if dist[a] >= dist[b]:
                        a = idom[a]
                    if dist[b] > dist[a]:
                        b = idom[b]
                idom[v] = a
    return array("i", dist), array("i", idom)


def assert_search_agrees(entry, want_dist, want_idom):
    """Every cell the search labelled holds its final distance and dominator,
    and whole levels are labelled: every cell below the level it paused at."""
    dist, idom = list(entry.dist), list(entry.idom)
    labelled = [v for v, d in enumerate(dist) if d != UNREACHABLE]
    assert [dist[v] for v in labelled] == [want_dist[v] for v in labelled]
    assert [idom[v] for v in labelled] == [want_idom[v] for v in labelled]
    if entry.queue is None:
        assert len(labelled) == sum(d != UNREACHABLE for d in want_dist)
    else:
        level = dist[entry.queue[entry.head]]
        assert sorted(labelled) == [v for v, d in enumerate(want_dist) if 0 <= d <= level]
        assert entry.floor() == level + 1


@given(data=st.data())
@FUZZ
def test_resumed_goal_searches_settle_what_one_search_would(data):
    shape = data.draw(maps())
    grid = mapgen.GridMap(shape.obstacles)  # nothing cached on it yet
    free = grid.free_cells()
    goal = data.draw(st.sampled_from(free))
    w = grid.width
    g = goal[0] * w + goal[1]
    want_dist, want_idom = reference_goal_bfs(grid, goal)
    one_shot_idom = [UNREACHABLE] * len(want_idom)
    one_shot_idom[g] = g
    assert _bfs(grid, g, idom=one_shot_idom) == list(want_dist) and one_shot_idom == list(want_idom)
    cell = st.sampled_from(free)
    # a cell to settle, None to complete, or (start, blocker) for a detour read
    requests = data.draw(st.lists(st.one_of(cell, st.just(None), st.tuples(cell, cell)), max_size=12))
    for request in requests:
        if request is None:
            entry = pathing._goal_entry(grid, goal)
            assert entry.queue is None and entry.dist == want_dist and entry.idom == want_idom
            assert entry.field is pathing.distance_field(grid, goal)
        elif isinstance(request[0], tuple):
            # the detour of gridworld._chokes on the paused search
            s, b = (r * w + c for r, c in request)
            entry = pathing._goal_entry(grid, goal, s)
            if want_dist[s] != UNREACHABLE and s != b:
                for threshold in (0, 2, 10):
                    bound = want_dist[s] + threshold
                    got = _bfs(grid, s, target=g, removed=b, bound=bound, h=entry.dist, floor=entry.floor())
                    full = _bfs(grid, s, target=g, removed=b, bound=bound, h=want_dist)
                    assert (got[g] == UNREACHABLE) == (full[g] == UNREACHABLE), (request, threshold)
        else:
            u = request[0] * w + request[1]
            entry = pathing._goal_entry(grid, goal, u)
            assert entry is grid._goal_cache[goal]
            if want_dist[u] == UNREACHABLE:
                # nothing settles it: the search ran to its end
                assert entry.queue is None
                with pytest.raises(NoPathError):
                    pathing.astar_path(grid, request, goal)
                assert _dominator_chain(grid, request, goal) == set()
            else:
                assert entry.dist[u] == want_dist[u]
                frontier = entry.head, entry.queue and len(entry.queue)
                assert pathing._goal_entry(grid, goal, u) is entry
                assert (entry.head, entry.queue and len(entry.queue)) == frontier
        assert_search_agrees(grid._goal_cache[goal], want_dist, want_idom)
    pathing.distance_field(grid, goal)
    assert_search_agrees(grid._goal_cache[goal], want_dist, want_idom)


def test_goal_search_labels_no_level_past_a_settled_cell_and_drops_its_frontier():
    scn = mapgen.gen_room(256, 256, 1, seed=3)
    grid, goal = scn.grid, scn.goals[0]
    want_dist, _ = reference_goal_bfs(grid, goal)
    w = grid.width
    levels = {}
    for v, d in enumerate(want_dist):
        levels.setdefault(d, v)
    for k in (1, 5, 40, 41, 200):
        entry = pathing._goal_entry(grid, goal, levels[k])
        labelled = [d for d in entry.dist if d != UNREACHABLE]
        assert max(labelled) == k
        assert len(labelled) == sum(0 <= d <= k for d in want_dist)
    entry = pathing._goal_entry(grid, goal)
    assert entry.queue is None and entry.field is not None
    for flat in (entry.dist, entry.idom):
        assert isinstance(flat, array) and flat.itemsize == 4 and len(flat) == grid.height * w
    assert entry.dist == want_dist
