import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svo_mapf import mapgen, pathing
from svo_mapf.pathing import ACTION_DELTAS, STOP, UNREACHABLE, NoPathError


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
        assert flow.length == 0

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
                assert flow.length == pathing.distance_field(scn.grid, g)[s]
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
    # every path read from the index equals the one planned on a fresh map
    # in the reverse order, where other cells were indexed first
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


def test_path_index_holds_each_free_cell_at_most_once_per_goal():
    scn = mapgen.gen_room(256, 256, 3, seed=1)
    grid = scn.grid
    free = grid.free_cells()
    for goal in scn.goals:
        for start in free[::97]:
            path_or_none(grid, start, goal)
    assert set(grid._goal_cache) == set(scn.goals)
    for goal, (_, _, _, paths) in grid._goal_cache.items():
        assert len(paths) <= len(free)
        segments = {id(seg): seg for seg in paths.values()}.values()
        assert sum(len(seg[0]) for seg in segments) == len(paths)
