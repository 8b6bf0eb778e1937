"""Single-agent shortest paths and BFS distance fields.

Shortest paths are realized as greedy descent over an exact BFS distance
field with the fixed neighbor order Up, Down, Left, Right. For unit edge
costs this returns the same lengths an open-list search would, but one BFS
per goal is amortized across every timestep and agent that plans to it, and
it runs backward from the goal only until it reaches the cells asked about
(Silver's Reverse Resumable A*, "Cooperative Pathfinding", 2005, at unit
cost). Every distance search runs on one BFS kernel over the map's flat
neighbour table (see mapgen); the goal's BFS also records each cell's
immediate dominator, which blocking detection walks, and every step toward
a goal (a path, or a greedy step that may avoid given cells) is one descent
helper over that table. Descent is deterministic, so the path from any cell
on a planned path is that path's suffix; the overlap's step-to-step reuse
(see social.compute_overlap) relies on this and plans no path twice along it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .inputs import is_position
from .mapgen import GridMap, _neighbour_table

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


def _resume(nbrs, dist, queue, head: int, target: int = -1, removed: int = -1, bound: int = 0,
            h=None, floor: int = 0, idom=None) -> int:
    """The BFS kernel: expand queue[head:] in FIFO order over the flat
    neighbour table nbrs, labelling dist and queueing each cell it labels, and
    return the head it paused at (len(queue) once the search has ended).

    Once it labels `target` at level d it finishes level d - 1 and pauses, so
    a labelled cell's distance and dominator are final. It never enters
    `removed`. Given `h` (flat distances to some goal; an unlabelled cell
    reads as `floor`, a lower bound), it enters a cell only if its depth plus
    its h is at most `bound`, so it keeps to the cells of paths to that goal
    no longer than `bound`. Given `idom` (a flat list with idom[source] ==
    source), it fills in each cell's immediate dominator toward the source:
    the nearest other cell that every shortest path from the cell to the
    source passes. A cell's first labeller is its first candidate; each
    further one-step-closer neighbour is folded in by the two-finger
    intersection, by distance, of their dominator chains (Cooper, Harvey &
    Kennedy, "A Simple, Fast Dominance Algorithm", 2001).
    """
    stop = len(dist)  # above every level
    while head < len(queue):
        u = queue[head]
        d = dist[u]
        if d >= stop:
            return head
        head += 1
        d += 1
        for v in nbrs[u]:
            dv = dist[v]
            if dv == UNREACHABLE:
                if v == removed or (h is not None and (h[v] if h[v] >= 0 else floor) > bound - d):
                    continue
                dist[v] = d
                if idom is not None:
                    idom[v] = u
                if v == target:
                    stop = d
                queue.append(v)
            elif dv == d and idom is not None:
                a, b = idom[v], u
                while a != b:
                    if dist[a] >= dist[b]:
                        a = idom[a]
                    if dist[b] > dist[a]:
                        b = idom[b]
                idom[v] = a
    return head


def _bfs(grid: GridMap, source: int, target: int = -1, removed: int = -1, bound: int = 0,
         h=None, floor: int = 0, idom=None) -> list[int]:
    """Step distances from flat cell `source` (UNREACHABLE where unlabelled)
    by one run of the kernel `_resume`, which takes the same arguments."""
    dist = [UNREACHABLE] * (grid.height * grid.width)
    dist[source] = 0
    _resume(_neighbour_table(grid), dist, [source], 0, target, removed, bound, h, floor, idom)
    return dist


class _GoalSearch:
    """One goal's BFS toward it with immediate dominators, resumed only as far
    as readers ask. Every labelled cell is settled: its distance and
    dominator are final, and so is every cell at a lower level; v, idom[v],
    ..., goal are exactly the cells on every shortest v -> goal path. A
    completed search drops its frontier (`queue` is None) and turns the
    `dist` and `idom` lists into array('i') (UNREACHABLE on unreachable and
    obstacle cells), with `field` a read-only H x W view of the distances.
    It stores no paths: astar_path descends afresh on each call."""

    __slots__ = ("dist", "idom", "queue", "head", "field")

    def __init__(self, g: int, cells: int):
        self.dist, self.idom = [UNREACHABLE] * cells, [UNREACHABLE] * cells
        self.dist[g], self.idom[g] = 0, g
        self.queue, self.head, self.field = [g], 0, None

    def floor(self) -> int:
        """A lower bound on every unlabelled cell's distance (none once ended)."""
        return len(self.dist) if self.queue is None else self.dist[self.queue[self.head]] + 1


def _goal_entry(grid: GridMap, goal: tuple[int, int], cell: int = -1) -> _GoalSearch:
    """The goal's search, cached on the map: resumed until flat cell `cell`
    is settled, or to its end when no cell is given (or the cell is
    unreachable)."""
    entry = grid._goal_cache.get(goal)
    if entry is None:
        if not grid.is_free(*goal):
            raise ValueError(f"goal {goal} is not a free cell")
        entry = grid._goal_cache[goal] = _GoalSearch(goal[0] * grid.width + goal[1],
                                                     grid.height * grid.width)
    queue = entry.queue
    if queue is not None and (cell < 0 or entry.dist[cell] == UNREACHABLE):
        entry.head = _resume(_neighbour_table(grid), entry.dist, queue, entry.head, cell, idom=entry.idom)
        if entry.head == len(queue):
            entry.dist, entry.idom, entry.queue = array("i", entry.dist), array("i", entry.idom), None
            entry.field = np.frombuffer(entry.dist, dtype=np.int32).reshape(grid.height, grid.width)
            entry.field.flags.writeable = False
    return entry


def _check_position(name: str, cell) -> None:
    """Refuse a cell that is no (row, col) tuple of two integers, as (2.0, 2)."""
    if not is_position(cell):
        raise ValueError(f"{name} {cell!r} is not a (row, col) tuple of two integers")


def distance_field(grid: GridMap, goal: tuple[int, int]) -> np.ndarray:
    """Exact BFS distances (in steps) from every free cell to the goal.

    Unreachable and obstacle cells hold UNREACHABLE. The field is a read-only
    view of the goal's completed flat distances, the same object on every
    call for the same map and goal.
    """
    _check_position("goal", goal)
    return _goal_entry(grid, goal).field


def _descend(nbrs, dist, u: int, skip=()) -> int:
    """The first neighbour of flat cell u (Up, Down, Left, Right order)
    exactly one step closer under the flat distances dist and not in skip, or
    -1. u must not be dist's source: an unlabelled neighbour reads as closer."""
    d = dist[u] - 1
    for v in nbrs[u]:
        if dist[v] == d and v not in skip:
            return v
    return -1


def _action(u: int, v: int, width: int) -> int:
    """The move from flat cell u to its neighbour v; IDLE when v is -1."""
    if v < 0:
        return IDLE
    step = v - u
    if step == -width:
        return UP
    if step == width:
        return DOWN
    return LEFT if step == -1 else RIGHT


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


def astar_path(grid: GridMap, start: tuple[int, int], goal: tuple[int, int]) -> PathFlow:
    """Deterministic shortest path from start to goal as a PathFlow.

    Greedy descent on the goal's distance field; at each vertex the first
    neighbor (Up, Down, Left, Right order) whose distance is exactly one less
    is taken, so identical inputs always yield the identical path.
    """
    _check_position("start", start)
    _check_position("goal", goal)
    if not grid.is_free(*start):
        raise ValueError(f"start {start} is not a free cell")
    u = start[0] * grid.width + start[1]
    dist = _goal_entry(grid, goal, u).dist
    if dist[u] == UNREACHABLE:
        raise NoPathError(f"no path from {start} to {goal}")
    nbrs, w = _neighbour_table(grid), grid.width
    vertices, directions = [divmod(u, w)], []
    while dist[u]:
        v = _descend(nbrs, dist, u)
        if v < 0:  # unreachable by construction: every reachable cell has a descent neighbor
            raise NoPathError(f"descent stalled at {divmod(u, w)}")
        directions.append(_action(u, v, w))
        vertices.append(divmod(v, w))
        u = v
    directions.append(STOP)
    return PathFlow(vertices, directions)


def greedy_step(grid: GridMap, pos: tuple[int, int], goal: tuple[int, int], avoid=()) -> int:
    """First distance-decreasing action from pos whose target is not in avoid
    (flat cells), or the first at all when every descent cell is; IDLE when
    on goal or stuck."""
    _check_position("pos", pos)
    _check_position("goal", goal)
    if not grid.is_free(*pos):
        raise ValueError(f"pos {pos} is not a free cell")
    if pos == goal:
        return IDLE
    w = grid.width
    u = pos[0] * w + pos[1]
    nbrs, dist = _neighbour_table(grid), _goal_entry(grid, goal, u).dist
    v = _descend(nbrs, dist, u, avoid)
    if v < 0 and avoid:
        v = _descend(nbrs, dist, u)
    return _action(u, v, w)
