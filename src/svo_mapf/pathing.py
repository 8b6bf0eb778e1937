"""Single-agent shortest paths and BFS distance fields.

Shortest paths are realized as greedy descent over an exact BFS distance
field with the fixed neighbor order Up, Down, Left, Right. For unit edge
costs this returns the same lengths an open-list search would, but one BFS
per goal is amortized across every timestep and agent that plans to it.
Every search runs on one BFS kernel over a flat neighbour table built once
per map; the goal's BFS also records each cell's immediate dominator, which
blocking detection walks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .mapgen import GridMap

# Action indices shared across the stack; Idle must be 0 (the tie-breaking
# resolver substitutes action 0). STOP marks a path's terminal vertex and is
# deliberately distinct from every movement direction when flows compare.
IDLE, UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3, 4
STOP = 0
N_ACTIONS = 5
ACTION_DELTAS = {IDLE: (0, 0), UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
MOVE_ORDER = (UP, DOWN, LEFT, RIGHT)
ACTION_NAMES = {IDLE: "idle", UP: "up", DOWN: "down", LEFT: "left", RIGHT: "right"}

UNREACHABLE = -1


class NoPathError(RuntimeError):
    """Raised when a requested path does not exist."""


def _neighbour_table(grid: GridMap) -> list[tuple[int, ...]]:
    """Free 4-neighbours of every cell by flat index r * width + c, in Up,
    Down, Left, Right order (obstacles get no entry). Built once per map."""
    table = grid._neighbour_table
    if table is None:
        h, w = grid.height, grid.width
        free = (~grid.obstacles).ravel().tolist()
        table = []
        for i in range(h * w):
            if not free[i]:
                table.append(())
                continue
            r, c = divmod(i, w)
            cell = []
            if r > 0 and free[i - w]:
                cell.append(i - w)
            if r < h - 1 and free[i + w]:
                cell.append(i + w)
            if c > 0 and free[i - 1]:
                cell.append(i - 1)
            if c < w - 1 and free[i + 1]:
                cell.append(i + 1)
            table.append(tuple(cell))
        grid._neighbour_table = table
    return table


def _bfs(grid: GridMap, source: int, target: int = -1, removed: int = -1,
         bound: int = 0, h=None, idom=None) -> list[int]:
    """The BFS kernel: step distances from flat cell `source`, UNREACHABLE
    where the search never labelled a cell.

    The search stops as soon as it labels `target` and never enters
    `removed`. Given `h` (exact flat distances to some goal), it enters a cell
    only if its depth plus its h is at most `bound`, so it keeps to the cells
    of paths to that goal no longer than `bound`. Given `idom` (a flat list
    with idom[source] == source), it fills in each cell's immediate dominator
    toward the source: the nearest other cell that every shortest path from
    the cell to the source passes. A cell's first labeller is its first
    candidate; each further one-step-closer neighbour is folded in by the
    two-finger intersection, by distance, of their dominator chains (Cooper,
    Harvey & Kennedy, "A Simple, Fast Dominance Algorithm", 2001).
    """
    dist = [UNREACHABLE] * (grid.height * grid.width)
    dist[source] = 0
    nbrs = _neighbour_table(grid)
    queue = [source]
    for u in queue:
        d = dist[u] + 1
        for v in nbrs[u]:
            dv = dist[v]
            if dv == UNREACHABLE:
                if v == removed or (h is not None and d + h[v] > bound):
                    continue
                dist[v] = d
                if idom is not None:
                    idom[v] = u
                if v == target:
                    return dist
                queue.append(v)
            elif dv == d and idom is not None:
                a, b = idom[v], u
                while a != b:
                    if dist[a] >= dist[b]:
                        a = idom[a]
                    if dist[b] > dist[a]:
                        b = idom[b]
                idom[v] = a
    return dist


def _goal_dominators(grid: GridMap, goal: tuple[int, int]) -> tuple[array, array]:
    """Flat distances to the goal and immediate dominators toward it, from
    one BFS and cached per goal on the map.

    v, idom[v], idom[idom[v]], ..., goal are exactly the cells on every
    shortest v -> goal path. Unreachable and obstacle cells hold UNREACHABLE
    in both arrays.
    """
    cached = grid._dominator_cache.get(goal)
    if cached is not None:
        return cached
    if not grid.is_free(*goal):
        raise ValueError(f"goal {goal} is not a free cell")
    g = goal[0] * grid.width + goal[1]
    idom = [UNREACHABLE] * (grid.height * grid.width)
    idom[g] = g
    dist = _bfs(grid, g, idom=idom)
    cached = grid._dominator_cache[goal] = (array("i", dist), array("i", idom))
    return cached


def distance_field(grid: GridMap, goal: tuple[int, int]) -> np.ndarray:
    """Exact BFS distances (in steps) from every free cell to the goal.

    Unreachable and obstacle cells hold UNREACHABLE. Fields are cached on the
    map instance, keyed by goal; each is a read-only view of the goal's flat
    distance array.
    """
    cached = grid._dfield_cache.get(goal)
    if cached is not None:
        return cached
    dist, _ = _goal_dominators(grid, goal)
    field = np.frombuffer(dist, dtype=np.int32).reshape(grid.height, grid.width)
    field.flags.writeable = False
    grid._dfield_cache[goal] = field
    return field


@dataclass
class PathFlow:
    """A shortest path with the movement direction taken at each vertex.

    directions[t] points from vertices[t] to vertices[t+1]; the terminal
    vertex carries STOP.
    """

    vertices: list[tuple[int, int]]
    directions: list[int]

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


def _direction(a: tuple[int, int], b: tuple[int, int]) -> int:
    dr, dc = b[0] - a[0], b[1] - a[1]
    for action in MOVE_ORDER:
        if ACTION_DELTAS[action] == (dr, dc):
            return action
    raise ValueError(f"{a} and {b} are not 4-adjacent")


def astar_path(grid: GridMap, start: tuple[int, int], goal: tuple[int, int]) -> PathFlow:
    """Deterministic shortest path from start to goal as a PathFlow.

    Greedy descent on the goal's distance field; at each vertex the first
    neighbor (Up, Down, Left, Right order) whose distance is exactly one less
    is taken, so identical inputs always yield the identical path.
    """
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


def greedy_step(grid: GridMap, pos: tuple[int, int], goal: tuple[int, int]) -> int:
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
