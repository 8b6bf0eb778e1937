"""Grid maps, benchmark map text I/O, and scenario generators.

Four map families: random (i.i.d. obstacles), room-like (BSP partition with
single-cell doorways), maze (depth-first carving on a half-resolution
lattice), and two-agent corridor instances (recess / I-shape) used by the
symmetric-dilemma case study. All generation is a pure function of its
arguments and seed (see rng.SplitMix64).
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass

import numpy as np

from .inputs import is_cell, is_int, is_position, parse_json, read_object
from .rng import SplitMix64, derive_seed

FREE_GLYPH = "."
OBSTACLE_GLYPH = "@"

RETRY_BUDGET = 100


class MapGenError(RuntimeError):
    """Raised when a feasible map or agent placement cannot be produced."""


class MapParseError(ValueError):
    """Raised on malformed map text; carries the offending 1-based line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GridMap:
    """Static occupancy grid. Cells are (row, col); True means obstacle.

    Moves off the edge are invalid (no wall ring is stored). The map keeps its
    own read-only copy of the obstacle array, so a later write to the input
    reaches neither it nor the caches. Instances are treated as immutable
    after construction; the map's graph (the neighbour table and one
    depth-first search giving cut vertices and components, see below), each
    goal's resumable search with its distances and dominators (see pathing)
    and the padded obstacle planes that observations slice (see gridworld)
    are cached on the instance.
    """

    def __init__(self, obstacles: np.ndarray):
        obstacles = np.array(obstacles, dtype=bool)
        if obstacles.ndim != 2:
            raise ValueError("obstacle grid must be 2-D")
        h, w = obstacles.shape
        if h < 2 or w < 2:
            raise ValueError("map must be at least 2x2")
        self.obstacles = obstacles
        self.obstacles.flags.writeable = False
        self.height = h
        self.width = w
        self._free = (~obstacles).ravel().tolist()    # by flat index r * w + c
        self._neighbour_table: list | None = None
        self._cut_vertices: tuple | None = None
        self._components: array | None = None
        self._goal_cache: dict = {}
        self._obstacle_planes: dict = {}

    def in_bounds(self, r: int, c: int) -> bool:
        return 0 <= r < self.height and 0 <= c < self.width

    def is_free(self, r: int, c: int) -> bool:
        return self.in_bounds(r, c) and self._free[r * self.width + c]

    def free_cells(self) -> list[tuple[int, int]]:
        rs, cs = np.nonzero(~self.obstacles)
        return list(zip(rs.tolist(), cs.tolist()))

    @property
    def density(self) -> float:
        return float(self.obstacles.mean())

    def to_text(self) -> str:
        rows = ["".join(OBSTACLE_GLYPH if x else FREE_GLYPH for x in row) for row in self.obstacles]
        return "\n".join(["type octile", f"height {self.height}", f"width {self.width}", "map"] + rows) + "\n"

    def __eq__(self, other) -> bool:
        return isinstance(other, GridMap) and np.array_equal(self.obstacles, other.obstacles)

    def __hash__(self) -> int:
        return hash((self.height, self.width, self.obstacles.tobytes()))

    def __repr__(self) -> str:
        return f"GridMap({self.height}x{self.width}, density={self.density:.3f})"


def _neighbour_table(grid: GridMap) -> list[tuple[int, ...]]:
    """Free 4-neighbours of every cell by flat index r * width + c, in Up,
    Down, Left, Right order (obstacles get no entry). Built once per map."""
    table = grid._neighbour_table
    if table is None:
        h, w = grid.height, grid.width
        free = grid._free
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


def _cut_vertices(grid: GridMap) -> tuple[array, array, dict]:
    """The map's cut vertices from one iterative depth-first search (Tarjan,
    "Depth-first search and linear graph algorithms", 1972), built once per
    map: each free cell's discovery index, the last discovery index in its
    subtree, and per cell b the children c whose subtrees removing b cuts off
    from the rest of the component (low[c] >= disc[b]; this holds for every
    child of a root, so a root with one child is listed though nothing is cut
    off). Obstacles keep index -1. The same search records each free cell's
    component as the flat index of its tree root in grid._components (-1 on
    obstacles); a free cell without a free neighbour is a root of its own.
    """
    cut = grid._cut_vertices
    if cut is None:
        nbrs = _neighbour_table(grid)
        n = len(nbrs)
        disc, last, low, comp = [-1] * n, [-1] * n, [0] * n, [-1] * n
        separated = {}
        t = 0
        for root in np.flatnonzero(~grid.obstacles).tolist():
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = t
            comp[root] = root
            t += 1
            stack = [(root, -1, iter(nbrs[root]))]  # (cell, its parent, unvisited neighbours)
            while stack:
                v, p, rest = stack[-1]
                low_v = low[v]
                for c in rest:
                    dc = disc[c]
                    if dc < 0:
                        low[v] = low_v
                        disc[c] = low[c] = t
                        comp[c] = root
                        t += 1
                        stack.append((c, v, iter(nbrs[c])))
                        break
                    if dc < low_v and c != p:
                        low_v = dc
                else:
                    stack.pop()
                    low[v] = low_v
                    last[v] = t - 1
                    if p >= 0:
                        if low_v < low[p]:
                            low[p] = low_v
                        if low_v >= disc[p]:
                            separated.setdefault(p, []).append(v)
        grid._components = array("i", comp)
        cut = grid._cut_vertices = (array("i", disc), array("i", last), separated)
    return cut


def _connected(grid: GridMap, a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Are free cells a and b, each (row, col), in one 4-connected component?"""
    if grid._components is None:
        _cut_vertices(grid)
    comp, w = grid._components, grid.width
    return comp[a[0] * w + a[1]] == comp[b[0] * w + b[1]]


def _separates(grid: GridMap, b: int, s: int, g: int) -> bool:
    """Does every path from flat cell s to flat cell g pass flat cell b?

    s, g and b must lie in one component, with s != b. They are separated
    when g is b, or when one of the subtrees that b separates holds exactly
    one of s and g.
    """
    disc, last, separated = _cut_vertices(grid)
    ds, dg = disc[s], disc[g]
    for c in separated.get(b, ()):
        lo, hi = disc[c], last[c]
        if (lo <= ds <= hi) != (lo <= dg <= hi):
            return True
    return g == b


def read_map(text: str) -> GridMap:
    """Parse benchmark map text ('.' free, '@' obstacle)."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if len(lines) < 4:
        raise MapParseError("missing header (need type/height/width/map lines)", max(1, len(lines)))
    if lines[0].strip() != "type octile":
        raise MapParseError(f"expected 'type octile', got {lines[0]!r}", 1)
    height = _header_size(lines[1], "height", "H", 2)
    width = _header_size(lines[2], "width", "W", 3)
    if lines[3].strip() != "map":
        raise MapParseError(f"expected 'map', got {lines[3]!r}", 4)
    rows = lines[4:]
    if len(rows) != height:
        raise MapParseError(f"expected {height} map rows, got {len(rows)}", 5 + len(rows))
    grid = np.zeros((height, width), dtype=bool)
    for i, row in enumerate(rows):
        line_no = 5 + i
        if len(row) != width:
            raise MapParseError(f"row has {len(row)} cells, expected {width}", line_no)
        for j, glyph in enumerate(row):
            if glyph == OBSTACLE_GLYPH:
                grid[i, j] = True
            elif glyph != FREE_GLYPH:
                raise MapParseError(f"unknown glyph {glyph!r} at column {j + 1}", line_no)
    return GridMap(grid)


def _header_size(line: str, key: str, symbol: str, line_no: int) -> int:
    """The size on a 'height H' / 'width W' header line; at least 2."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise MapParseError(f"expected '{key} {symbol}', got {line!r}", line_no)
    try:
        value = int(parts[1])
    except ValueError:
        raise MapParseError(f"expected '{key} {symbol}', got {line!r}", line_no) from None
    if value < 2:
        raise MapParseError(f"{key} must be at least 2, got {value}", line_no)
    return value


@dataclass
class Scenario:
    """A map plus per-agent start and goal cells."""

    grid: GridMap
    starts: list[tuple[int, int]]
    goals: list[tuple[int, int]]
    seed: int

    @property
    def n_agents(self) -> int:
        return len(self.starts)

    def validate(self) -> None:
        n = len(self.starts)
        if n < 1 or len(self.goals) != n:
            raise ValueError("need n >= 1 starts and as many goals")
        for cell in self.starts + self.goals:
            if not is_position(cell):
                raise ValueError(f"cell {cell!r} is not a (row, col) tuple of two integers")
        if len(set(self.starts)) != n:
            raise ValueError("starts must be distinct")
        if len(set(self.goals)) != n:
            raise ValueError("goals must be distinct")
        for cell in self.starts + self.goals:
            if not self.grid.is_free(*cell):
                raise ValueError(f"cell {cell} is not free")
        for i, (s, g) in enumerate(zip(self.starts, self.goals)):
            if not _connected(self.grid, s, g):
                raise ValueError(f"agent {i}: goal {g} unreachable from start {s}")

    def to_json(self, map_ref: str | None = None) -> str:
        obj = {
            "map": map_ref if map_ref is not None else self.grid.to_text(),
            "starts": [list(c) for c in self.starts],
            "goals": [list(c) for c in self.goals],
            "seed": self.seed,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def scenario_from_json(text: str, base_dir: str = ".", source: str = "scenario") -> Scenario:
    """A validated scenario from its JSON text; a map path is read relative to
    base_dir. Malformed fields raise ValueError naming the field; a missing or
    unknown key or a value that is not an object names source (the file) as
    well."""
    obj = read_object(parse_json(text, source), source, ("map", "starts", "goals"), ("seed",))
    seed = obj.get("seed", 0)
    if not is_int(seed):
        raise ValueError(f"seed: {seed!r} is not an integer")
    scn = Scenario(_map_from_ref(obj["map"], base_dir), _cells(obj, "starts"), _cells(obj, "goals"), seed)
    scn.validate()
    return scn


def _map_from_ref(ref, base_dir: str = ".") -> GridMap:
    """A map given inline as map text (it holds a newline) or as the path of a
    map file relative to base_dir."""
    if not isinstance(ref, str):
        raise ValueError(f"map: need map text or the path of a map file, got {type(ref).__name__}")
    if "\n" in ref:
        return read_map(ref)
    with open(os.path.join(base_dir, ref)) as f:
        return read_map(f.read())


def _cells(obj: dict, key: str) -> list[tuple[int, int]]:
    """obj[key] as (row, col) cells; a ValueError names a malformed entry."""
    cells = obj[key]
    if not isinstance(cells, list):
        raise ValueError(f"{key}: need a list of [row, col] cells, got {type(cells).__name__}")
    for i, cell in enumerate(cells):
        if not is_cell(cell):
            raise ValueError(f"{key}[{i}]: {cell!r} is not a [row, col] pair of integers")
    return [tuple(cell) for cell in cells]


def _place_agents(grid: GridMap, n_agents: int, rng: SplitMix64) -> tuple[list, list]:
    """Distinct starts and distinct goals on free cells, each pair connected."""
    free = grid.free_cells()
    if len(free) < n_agents:
        raise MapGenError(f"{len(free)} free cells cannot host {n_agents} agents")
    starts = rng.sample(free, n_agents)
    goals = rng.sample(free, n_agents)
    for i in range(n_agents):
        tries = 0
        while not _connected(grid, starts[i], goals[i]):
            tries += 1
            if tries > RETRY_BUDGET:
                raise MapGenError(f"agent {i}: no connected start-goal pair after {RETRY_BUDGET} retries")
            start_pool = [c for c in free if c not in starts or c == starts[i]]
            goal_pool = [c for c in free if c not in goals or c == goals[i]]
            starts[i] = rng.choice(start_pool)
            goals[i] = rng.choice(goal_pool)
    return starts, goals


def _first_feasible(family: str, draw, n_agents: int, seed: int) -> Scenario:
    """The first of up to RETRY_BUDGET maps drawn from one SplitMix64(seed)
    stream that hosts n_agents: draw(rng) returns a GridMap, or None to
    reject it, and a map whose placement fails is drawn again."""
    rng = SplitMix64(seed)
    for _ in range(RETRY_BUDGET):
        grid = draw(rng)
        if grid is None:
            continue
        try:
            starts, goals = _place_agents(grid, n_agents, rng)
        except MapGenError:
            continue
        scn = Scenario(grid, starts, goals, seed)
        scn.validate()
        return scn
    raise MapGenError(f"no feasible {family} map after {RETRY_BUDGET} attempts")


def gen_random(width: int, height: int, density: float, n_agents: int, seed: int) -> Scenario:
    """Random map: i.i.d. obstacle coin flips at the given density, drawn
    again (up to RETRY_BUDGET maps) while the agents cannot be placed."""
    if width < 2 or height < 2:
        raise ValueError("random maps need width and height >= 2")
    if not 0.0 <= density <= 0.5:
        raise ValueError("density must lie in [0, 0.5]")
    return _first_feasible(
        "random", lambda rng: GridMap([[rng.random() < density for _ in range(width)] for _ in range(height)]),
        n_agents, seed)


# BSP tuning: regions smaller than this area stop splitting with the given
# probability, which spreads room sizes while keeping roughly two thirds of
# 32x32 draws inside the target density window (the rest regenerate).
_BSP_STOP_AREA = 120
_BSP_STOP_PROB = 0.1
_MIN_ROOM_SIDE = 3


def _bsp_obstacles(height: int, width: int, rng: SplitMix64) -> np.ndarray:
    obstacles = np.zeros((height, width), dtype=bool)
    doors: list[tuple[int, int]] = []

    def split(r0: int, c0: int, h: int, w: int, depth: int) -> None:
        can_h = h >= 2 * _MIN_ROOM_SIDE + 1
        can_v = w >= 2 * _MIN_ROOM_SIDE + 1
        if not (can_h or can_v):
            return
        if depth > 0 and h * w <= _BSP_STOP_AREA and rng.random() < _BSP_STOP_PROB:
            return
        if can_h and can_v:
            horizontal = rng.random() < (0.8 if h > w else 0.2) if h != w else rng.random() < 0.5
        else:
            horizontal = can_h
        # Walls are rows of the grid (or of its transpose, if vertical) over columns a0 to a0 + n - 1.
        grid, l0, span, a0, n = (obstacles, r0, h, c0, w) if horizontal else (obstacles.T, c0, w, r0, h)
        # No wall cell may touch a door. A door touches the walls on its own
        # line and the two beside it when it lies within the span (n >= 3, so
        # a wall cell flanks it on its own line), and on its own line alone
        # when it lies one cell past either end.
        banned = set()
        for door in doors:
            line, along = door if horizontal else door[::-1]
            if a0 <= along < a0 + n:
                banned.update((line - 1, line, line + 1))
            elif along in (a0 - 1, a0 + n):
                banned.add(line)
        lines = [L for L in range(l0 + _MIN_ROOM_SIDE, l0 + span - _MIN_ROOM_SIDE) if L not in banned]
        if not lines:
            return
        L = rng.choice(lines)
        door = (L, a0 + rng.randrange(n))
        grid[L, a0:a0 + n] = True
        grid[door] = False
        doors.append(door if horizontal else door[::-1])
        for start, size in ((l0, L - l0), (L + 1, l0 + span - L - 1)):
            if horizontal:
                split(start, c0, size, w, depth + 1)
            else:
                split(r0, start, h, size, depth + 1)

    split(0, 0, height, width, 0)
    return obstacles


def gen_room(width: int, height: int, n_agents: int, seed: int) -> Scenario:
    """Room-like map: BSP partition, one single-cell doorway per shared wall.
    A layout is drawn again (up to RETRY_BUDGET maps) while the agents cannot
    be placed, or while a 32x32 map's density lies outside [0.25, 0.35]."""
    if width < 8 or height < 8:
        raise ValueError("room maps need width and height >= 8")

    def draw(rng: SplitMix64) -> GridMap | None:
        grid = GridMap(_bsp_obstacles(height, width, rng))
        return None if (width, height) == (32, 32) and not 0.25 <= grid.density <= 0.35 else grid

    return _first_feasible("room", draw, n_agents, seed)


def gen_maze(width: int, height: int, n_agents: int, seed: int) -> Scenario:
    """Maze map: randomized depth-first carving on the half-resolution lattice.

    Lattice nodes sit on even (row, col) cells; carved edges connect nodes two
    cells apart, so free cells form a tree and no 2x2 block is fully free.
    """
    if width < 3 or height < 3:
        raise ValueError("maze maps need width and height >= 3")
    rng = SplitMix64(seed)
    obstacles = np.ones((height, width), dtype=bool)
    nodes_h = (height + 1) // 2
    nodes_w = (width + 1) // 2
    start = (rng.randrange(nodes_h), rng.randrange(nodes_w))
    visited = {start}
    stack = [start]
    obstacles[2 * start[0], 2 * start[1]] = False
    while stack:
        r, c = stack[-1]
        neighbors = [(r + dr, c + dc) for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                     if 0 <= r + dr < nodes_h and 0 <= c + dc < nodes_w and (r + dr, c + dc) not in visited]
        if not neighbors:
            stack.pop()
            continue
        nxt = rng.choice(neighbors)
        visited.add(nxt)
        obstacles[2 * nxt[0], 2 * nxt[1]] = False
        obstacles[r + nxt[0], c + nxt[1]] = False  # edge cell between the two nodes
        stack.append(nxt)
    grid = GridMap(obstacles)
    starts, goals = _place_agents(grid, n_agents, rng)
    scn = Scenario(grid, starts, goals, seed)
    scn.validate()
    return scn


def family_scenario(family: str, width: int, height: int, density: float, n_agents: int,
                    seed: int) -> Scenario:
    """A scenario of the random, room or maze family; density applies to
    random maps alone."""
    if family == "random":
        return gen_random(width, height, density, n_agents, seed)
    if family == "room":
        return gen_room(width, height, n_agents, seed)
    if family == "maze":
        return gen_maze(width, height, n_agents, seed)
    raise ValueError(f"unknown map family {family!r}")


def gen_corridor(kind: str, corridor_len: int, seed: int) -> Scenario:
    """Two-agent symmetric corridor instance; goals are the swapped starts.

    kind='recess': width-1 corridor with two one-cell recesses at mirrored
    columns (random offset, each on a random side), so either half holds a
    refuge. kind='i_shape': open 3x3 plazas attached at both corridor ends.
    """
    if corridor_len < 3:
        raise ValueError("corridor_len must be >= 3")
    rng = SplitMix64(seed)
    if kind == "recess":
        obstacles = np.ones((3, corridor_len), dtype=bool)
        if corridor_len >= 4:
            offset = rng.randint(1, max(1, (corridor_len - 2) // 2))
            cols = (offset, corridor_len - 1 - offset)
        else:
            cols = (1, 1)  # length 3: both recesses share the center column
        rows = (rng.choice((0, 2)), rng.choice((0, 2)))
        if cols[0] == cols[1] and rows[0] == rows[1]:
            rows = (0, 2)
        for row, col in zip(rows, cols):
            obstacles[row, col] = False
    elif kind == "i_shape":
        obstacles = np.ones((3, corridor_len + 6), dtype=bool)
        obstacles[:, :3] = obstacles[:, -3:] = False
    else:
        raise ValueError(f"unknown corridor kind {kind!r} (expected 'recess' or 'i_shape')")
    obstacles[1, :] = False
    starts = [(1, 0), (1, obstacles.shape[1] - 1)]
    scn = Scenario(GridMap(obstacles), starts, starts[::-1], seed)
    scn.validate()
    return scn


# The inclusive range of corridor lengths that training and the case study draw.
CORRIDOR_LENGTHS = (5, 12)


def sample_corridor(p_recess: float, corridor_lengths: tuple[int, int], seed: int,
                    k: int) -> tuple[Scenario, str]:
    """Instance k of the recess / I-shape mixture, and its kind.

    Drawn from derive_seed(seed, k): a recess with probability p_recess (else
    an I-shape), then a corridor length uniform over corridor_lengths.
    """
    rng = SplitMix64(derive_seed(seed, k))
    kind = "recess" if rng.random() < p_recess else "i_shape"
    length = rng.randint(*corridor_lengths)
    return gen_corridor(kind, length, rng.next_u64()), kind
