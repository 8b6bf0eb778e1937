"""The one descent helper against the four loops it replaced.

`reference_astar_path`, `reference_greedy_step`,
`reference_occupancy_aware_greedy` and `reference_retreat_step` are the
previous implementations, copied verbatim (only renamed) as the oracle: each
probes the Up/Down/Left/Right neighbours of a cell through `in_bounds` and
numpy scalars and takes the first one exactly one step closer. The retreat's
oracle finds its refuge with `reference_nearest_refuge`, the ring search the
retreat ran before its one search, and searches back from it with `_bfs`.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from svo_mapf import mapgen
from svo_mapf.gridworld import EnvConfig, Gridworld
from svo_mapf.social import compute_overlap
from svo_mapf.harness import HeterogeneousScriptedPolicy, _parked_cells
from svo_mapf.mapgen import GridMap, _neighbour_table
from svo_mapf.pathing import (ACTION_DELTAS, DOWN, IDLE, LEFT, MOVE_ORDER, RIGHT, STOP, UNREACHABLE,
                              UP, NoPathError, PathFlow, _bfs, astar_path, distance_field,
                              greedy_step)
from test_blocking import FUZZ, maps


def reference_astar_path(grid, start, goal) -> PathFlow:
    if not grid.is_free(*start):
        raise ValueError(f"start {start} is not a free cell")
    dist = distance_field(grid, goal)
    if dist[start] == UNREACHABLE:
        raise NoPathError(f"no path from {start} to {goal}")
    vertices = [start]
    directions = []
    r, c = start
    while (r, c) != goal:
        d = dist[r, c]
        for action in MOVE_ORDER:
            dr, dc = ACTION_DELTAS[action]
            nr, nc = r + dr, c + dc
            if grid.in_bounds(nr, nc) and dist[nr, nc] == d - 1:
                directions.append(action)
                vertices.append((nr, nc))
                r, c = nr, nc
                break
        else:  # unreachable by construction: every reachable cell has a descent neighbor
            raise NoPathError(f"descent stalled at {(r, c)}")
    directions.append(STOP)
    return PathFlow(vertices, directions)


def reference_greedy_step(grid, pos, goal) -> int:
    """First distance-decreasing action from pos; IDLE when on goal or stuck."""
    if pos == goal:
        return IDLE
    dist = distance_field(grid, goal)
    d = dist[pos]
    if d == UNREACHABLE:
        return IDLE
    for action in MOVE_ORDER:
        dr, dc = ACTION_DELTAS[action]
        nr, nc = pos[0] + dr, pos[1] + dc
        if grid.in_bounds(nr, nc) and dist[nr, nc] == d - 1:
            return action
    return IDLE


def reference_occupancy_aware_greedy(env, agent: int) -> int:
    """First distance-decreasing action whose target is not a parked agent.

    Falls back to the plain greedy step when every descent cell is occupied by
    an agent resting on its goal, and idles on goal or when stuck.
    """
    pos, goal = env.positions[agent], env.goals[agent]
    if pos == goal:
        return IDLE
    dist = distance_field(env.grid, goal)
    d = dist[pos]
    if d == UNREACHABLE:
        return IDLE
    parked = {env.positions[j] for j in range(env.n)
              if j != agent and env.positions[j] == env.goals[j]}
    fallback = IDLE
    for action in MOVE_ORDER:
        dr, dc = ACTION_DELTAS[action]
        nxt = (pos[0] + dr, pos[1] + dc)
        if env.grid.in_bounds(*nxt) and dist[nxt] == d - 1:
            if nxt not in parked:
                return action
            if fallback == IDLE:
                fallback = action
    return fallback


def reference_nearest_refuge(grid: GridMap, start, path_cells) -> tuple[int, int] | None:
    """Closest free cell off the given path; ties by (distance, row, col).

    Searches ring by ring, entering only path cells; the flat index orders a
    ring's cells like (row, col)."""
    w = grid.width
    nbrs = _neighbour_table(grid)
    ring, seen = [start[0] * w + start[1]], set()
    while ring:
        off = [u for u in ring if divmod(u, w) not in path_cells]
        if off:
            return divmod(min(off), w)
        seen.update(ring)
        ring = {v for u in ring for v in nbrs[u] if v not in seen}
    return None


def reference_retreat_step(env, agent: int, partner_flow) -> int:
    path_cells = set(partner_flow.vertices)
    pos = env.positions[agent]
    if pos not in path_cells:
        return IDLE
    refuge = reference_nearest_refuge(env.grid, pos, path_cells)
    if refuge is None:
        return IDLE
    # distances from the refuge, searched only until pos is labelled: by
    # then every cell one step closer than pos holds its final distance
    w = env.grid.width
    here = pos[0] * w + pos[1]
    dist = _bfs(env.grid, refuge[0] * w + refuge[1], target=here)
    d = dist[here]
    for action in MOVE_ORDER:
        dr, dc = ACTION_DELTAS[action]
        nr, nc = pos[0] + dr, pos[1] + dc
        if env.grid.in_bounds(nr, nc) and dist[nr * w + nc] == d - 1:
            return action
    return IDLE


def path_or_error(plan, grid, start, goal):
    try:
        flow = plan(grid, start, goal)
    except NoPathError as exc:
        return str(exc)
    return flow.vertices, flow.directions


def env_with(grid, agents):
    """A Gridworld whose agents stand at the given (position, goal) pairs."""
    scenario = mapgen.Scenario(grid, [p for p, _ in agents], [g for _, g in agents], seed=0)
    return Gridworld(scenario, EnvConfig(blocking_rewards=False))


def descent_cells(grid, pos, goal):
    dist = distance_field(grid, goal)
    if dist[pos] == UNREACHABLE:
        return []
    cells = [(pos[0] + dr, pos[1] + dc) for dr, dc in (ACTION_DELTAS[a] for a in MOVE_ORDER)]
    return [c for c in cells if grid.is_free(*c) and dist[c] == dist[pos] - 1]


@given(data=st.data())
@FUZZ
def test_descent_matches_the_numpy_loops(data):
    grid = data.draw(maps())
    free = grid.free_cells()
    cell = st.sampled_from(free)
    for _ in range(4):
        goal = data.draw(cell)
        for pos in free:  # every cell, so that ties between descent cells occur
            assert greedy_step(grid, pos, goal) == reference_greedy_step(grid, pos, goal), pos
        start = data.draw(cell)
        assert (path_or_error(astar_path, grid, start, goal)
                == path_or_error(reference_astar_path, grid, start, goal)), (start, goal)

        # agents parked on some or all of start's descent cells and on drawn
        # cells, plus one agent off its goal, whose cell must not count
        descent = descent_cells(grid, start, goal)
        parked = set(data.draw(st.lists(cell, max_size=4)))
        if descent and data.draw(st.booleans()):
            parked |= set(descent)
        elif descent:
            parked |= set(data.draw(st.lists(st.sampled_from(descent), max_size=3)))
        parked -= {start, goal}
        agents = [(start, goal)] + [(c, c) for c in sorted(parked)]
        mover = [c for c in free if c not in parked and c not in (start, goal)]
        if len(mover) >= 2:
            agents.append((mover[0], mover[-1]))
        env = env_with(grid, agents)
        for i in range(env.n):
            assert (greedy_step(grid, env.positions[i], env.goals[i], _parked_cells(env))
                    == reference_occupancy_aware_greedy(env, i))

        # the retreat off a drawn partner path, which may or may not hold
        # start, given as a set, and off the partner's planned path, given as
        # its visit map from compute_overlap; from every cell of the map
        path = data.draw(st.lists(cell, max_size=12))
        if data.draw(st.booleans()):
            path.append(start)
        partner = data.draw(cell)
        planned = compute_overlap(grid, [partner], [goal]).visits[0]
        env = env_with(grid, [(start, goal)])
        for cells in (set(path), planned):
            flow = SimpleNamespace(vertices=list(cells))
            for pos in free:
                env.positions[0] = pos
                assert (HeterogeneousScriptedPolicy._retreat_step(env, 0, cells)
                        == reference_retreat_step(env, 0, flow)), (pos, list(cells))


def test_occupancy_aware_greedy_falls_back_to_a_parked_cell():
    # a 2x4 room: from (0, 1) toward (1, 3) the descent cells are (1, 1)
    # (Down) and (0, 2) (Right); parking on the first picks the second, and
    # parking on both falls back to the first in Up/Down/Left/Right order
    grid = mapgen.GridMap(np.zeros((2, 4), dtype=bool))
    agent = ((0, 1), (1, 3))
    env = env_with(grid, [agent, ((1, 1), (1, 1))])
    assert (greedy_step(grid, *agent, _parked_cells(env))
            == reference_occupancy_aware_greedy(env, 0) == RIGHT)
    env = env_with(grid, [agent, ((1, 1), (1, 1)), ((0, 2), (0, 2))])
    assert (greedy_step(grid, *agent, _parked_cells(env))
            == reference_occupancy_aware_greedy(env, 0) == DOWN)
    # an agent standing off its goal is not parked
    env = env_with(grid, [agent, ((1, 1), (0, 0))])
    assert greedy_step(grid, *agent, _parked_cells(env)) == DOWN


def test_every_pair_on_one_map_per_family():
    # exhaustive over (start, goal): greedy_step and astar_path on each family
    grids = [mapgen.gen_random(9, 9, 0.3, 1, seed=2).grid, mapgen.gen_room(10, 10, 1, seed=3).grid,
             mapgen.gen_maze(9, 9, 1, seed=5).grid, mapgen.gen_corridor("recess", 8, seed=2).grid]
    for grid in grids:
        free = grid.free_cells()
        for start in free:
            for goal in free:
                assert greedy_step(grid, start, goal) == reference_greedy_step(grid, start, goal)
                assert (path_or_error(astar_path, grid, start, goal)
                        == path_or_error(reference_astar_path, grid, start, goal))


def test_retreat_steps_toward_the_nearest_refuge():
    # the recess map's corridor is row 1; its refuges are (0, 3) and (2, 2)
    grid = mapgen.gen_corridor("recess", 6, seed=1).grid
    flow = SimpleNamespace(vertices=[(1, c) for c in range(6)])
    for pos, want in (((1, 0), RIGHT), ((1, 2), DOWN), ((1, 3), UP), ((1, 5), LEFT)):
        env = env_with(grid, [(pos, (1, 5 - pos[1]))])
        assert HeterogeneousScriptedPolicy._retreat_step(env, 0, set(flow.vertices)) == want
        assert reference_retreat_step(env, 0, flow) == want
