import hashlib
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

from svo_mapf import mapgen
from svo_mapf.mapgen import MapGenError, MapParseError
from svo_mapf.rng import SplitMix64


def bfs_reachable(grid, start):
    """Independent BFS oracle over free cells."""
    seen = {start}
    queue = deque([start])
    while queue:
        r, c = queue.popleft()
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if grid.is_free(*nxt) and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def bsp_obstacles_cell_scan(height, width, rng):
    """Reference for mapgen._bsp_obstacles: the same BSP draws, with each
    candidate wall line tested cell by cell for a door among its cells' four
    neighbours."""
    obstacles = np.zeros((height, width), dtype=bool)
    doors = set()

    def door_adjacent(cells):
        return any(n in doors for r, c in cells for n in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)))

    def split(r0, c0, h, w, depth):
        side = mapgen._MIN_ROOM_SIDE
        can_h = h >= 2 * side + 1
        can_v = w >= 2 * side + 1
        if not (can_h or can_v):
            return
        if depth > 0 and h * w <= mapgen._BSP_STOP_AREA and rng.random() < mapgen._BSP_STOP_PROB:
            return
        if can_h and can_v:
            horizontal = rng.random() < (0.8 if h > w else 0.2) if h != w else rng.random() < 0.5
        else:
            horizontal = can_h
        if horizontal:
            lines = [R for R in range(r0 + side, r0 + h - side)
                     if not door_adjacent((R, c) for c in range(c0, c0 + w))]
            if not lines:
                return
            R = rng.choice(lines)
            door = (R, c0 + rng.randrange(w))
            obstacles[R, c0:c0 + w] = True
            obstacles[door] = False
            doors.add(door)
            split(r0, c0, R - r0, w, depth + 1)
            split(R + 1, c0, r0 + h - R - 1, w, depth + 1)
        else:
            lines = [C for C in range(c0 + side, c0 + w - side)
                     if not door_adjacent((r, C) for r in range(r0, r0 + h))]
            if not lines:
                return
            C = rng.choice(lines)
            door = (r0 + rng.randrange(h), C)
            obstacles[r0:r0 + h, C] = True
            obstacles[door] = False
            doors.add(door)
            split(r0, c0, h, C - c0, depth + 1)
            split(r0, C + 1, h, c0 + w - C - 1, depth + 1)

    split(0, 0, height, width, 0)
    return obstacles


def joint_state_solvable(scenario):
    """Exhaustive 2-agent joint-state BFS respecting both collision rules."""
    grid = scenario.grid
    deltas = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    start = (scenario.starts[0], scenario.starts[1])
    goal = (scenario.goals[0], scenario.goals[1])
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return True
        (r0, c0), (r1, c1) = state
        for d0 in deltas:
            n0 = (r0 + d0[0], c0 + d0[1])
            if not grid.is_free(*n0):
                continue
            for d1 in deltas:
                n1 = (r1 + d1[0], c1 + d1[1])
                if not grid.is_free(*n1) or n0 == n1:
                    continue
                if n0 == state[1] and n1 == state[0]:
                    continue
                nxt = (n0, n1)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return False


class TestRandom:
    def test_paper_configuration(self):
        scn = mapgen.gen_random(32, 32, 0.2, 50, seed=1)
        assert scn.n_agents == 50
        obstacles = int(scn.grid.obstacles.sum())
        # binomial(1024, 0.2): mean ~205, sd ~12.8
        assert 150 <= obstacles <= 260
        assert len(set(scn.starts)) == 50 and len(set(scn.goals)) == 50

    def test_zero_density(self):
        scn = mapgen.gen_random(4, 4, 0.0, 1, seed=0)
        assert scn.grid.obstacles.sum() == 0
        assert scn.n_agents == 1

    def test_all_pairs_connected(self):
        scn = mapgen.gen_random(10, 10, 0.3, 8, seed=7)
        for s, g in zip(scn.starts, scn.goals):
            assert g in bfs_reachable(scn.grid, s)

    def test_density_out_of_range(self):
        with pytest.raises(ValueError):
            mapgen.gen_random(10, 10, 0.6, 1, seed=0)

    def test_placement_infeasible(self):
        with pytest.raises(MapGenError):
            mapgen.gen_random(4, 4, 0.5, 16, seed=0)

    @pytest.mark.parametrize("width, height", [(32, 0), (0, 32), (1, 5), (-2, -2)])
    def test_size_precondition(self, width, height):
        with pytest.raises(ValueError, match="^random maps need width and height >= 2$"):
            mapgen.gen_random(width, height, 0.2, 1, seed=0)


class TestRoom:
    def test_density_window(self):
        scn = mapgen.gen_room(32, 32, 100, seed=3)
        assert 0.25 <= scn.grid.density <= 0.35
        assert scn.n_agents == 100

    def test_minimal_map_has_doorway_wall(self):
        scn = mapgen.gen_room(8, 8, 1, seed=0)
        grid = scn.grid
        assert grid.obstacles.sum() >= 1
        # a doorway: a free cell flanked along one axis by non-free cells, at
        # least one of them an in-map wall cell
        def wall(r, c):
            return grid.in_bounds(r, c) and bool(grid.obstacles[r, c])

        doorway = False
        for r in range(grid.height):
            for c in range(grid.width):
                if not grid.is_free(r, c):
                    continue
                if (not grid.is_free(r, c - 1) and not grid.is_free(r, c + 1)
                        and (wall(r, c - 1) or wall(r, c + 1))):
                    doorway = True
                if (not grid.is_free(r - 1, c) and not grid.is_free(r + 1, c)
                        and (wall(r - 1, c) or wall(r + 1, c))):
                    doorway = True
        assert doorway
        free = grid.free_cells()
        assert bfs_reachable(grid, free[0]) == set(free)

    def test_rooms_mutually_reachable(self):
        scn = mapgen.gen_room(32, 32, 8, seed=11)
        free = scn.grid.free_cells()
        assert bfs_reachable(scn.grid, free[0]) == set(free)

    def test_size_precondition(self):
        with pytest.raises(ValueError):
            mapgen.gen_room(7, 8, 1, seed=0)

    @pytest.mark.parametrize("height, width, seeds", [
        (8, 8, 200), (9, 13, 200), (13, 9, 200), (16, 40, 150), (32, 32, 120), (64, 64, 100)])
    def test_wall_lines_match_cell_scan(self, height, width, seeds):
        for seed in range(seeds):
            rng, oracle_rng = SplitMix64(seed), SplitMix64(seed)
            obstacles = mapgen._bsp_obstacles(height, width, rng)
            assert np.array_equal(obstacles, bsp_obstacles_cell_scan(height, width, oracle_rng)), seed
            assert rng.next_u64() == oracle_rng.next_u64(), seed

    @pytest.mark.parametrize("width, height, n_agents, seed, digest", [
        (8, 8, 2, 0, "5531f71e3ae00b6f60d22f4458bdfbf21d2d8aee3abf89c0b226df9f3fef82ec"),
        (16, 40, 10, 3, "5c27598d22c629fe93c78c58e482b90ab7dbf410397abf9cff444f126c78762e"),
        (32, 32, 16, 0, "89ad8850bb8408665d81703340e01eac48ac17572fc43f1f02b18758b4fed749"),
        (32, 32, 16, 7, "5d2ad68269325d069995b03ed3343c7fefba1d05f60c875f5c5e3bf612a8e91c"),
        (64, 64, 64, 1, "a6d1912777fbb2e02d6afec6249d9e80fbcdcd2616823a3b97d160f05da26332"),
    ])
    def test_pinned_rooms(self, width, height, n_agents, seed, digest):
        scn = mapgen.gen_room(width, height, n_agents, seed)
        data = scn.grid.obstacles.tobytes() + repr((scn.starts, scn.goals)).encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestMaze:
    def test_density(self):
        scn = mapgen.gen_maze(32, 32, 32, seed=5)
        assert 0.45 <= scn.grid.density <= 0.55

    def test_tree_structure(self):
        scn = mapgen.gen_maze(5, 5, 1, seed=0)
        free = scn.grid.free_cells()
        assert bfs_reachable(scn.grid, free[0]) == set(free)
        edges = 0
        for r, c in free:
            if scn.grid.is_free(r + 1, c):
                edges += 1
            if scn.grid.is_free(r, c + 1):
                edges += 1
        assert edges == len(free) - 1  # connected and acyclic

    def test_no_2x2_free_block(self):
        scn = mapgen.gen_maze(17, 17, 4, seed=9)
        obst = scn.grid.obstacles
        for r in range(16):
            for c in range(16):
                assert obst[r:r + 2, c:c + 2].any()


class TestCorridor:
    def test_recess_solvable(self):
        scn = mapgen.gen_corridor("recess", 7, seed=2)
        assert scn.n_agents == 2
        recesses = [c for c in scn.grid.free_cells() if c[0] != 1]
        assert len(recesses) == 2
        assert joint_state_solvable(scn)

    def test_ishape_goals_are_swapped_starts(self):
        scn = mapgen.gen_corridor("i_shape", 3, seed=0)
        assert scn.goals == [scn.starts[1], scn.starts[0]]

    def test_recess_10_solvable(self):
        scn = mapgen.gen_corridor("recess", 10, seed=4)
        assert joint_state_solvable(scn)

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            mapgen.gen_corridor("recess", 2, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mapgen.gen_corridor("loop", 5, seed=0)


class TestMapIO:
    def test_grid_map_leaves_the_callers_array_writable(self):
        a = np.zeros((3, 3), dtype=bool)
        mapgen.GridMap(a)
        a[1, 1] = True
        assert a[1, 1]

    def test_grid_map_does_not_see_a_later_write_to_its_input(self):
        base = np.zeros((3, 3), dtype=bool)
        grid = mapgen.GridMap(base[:, :])
        base[1, 1] = True
        assert not grid.obstacles[1, 1] and grid.is_free(1, 1)

    def test_smallest_map(self):
        grid = mapgen.GridMap(np.zeros((2, 2), dtype=bool))
        assert grid.to_text() == "type octile\nheight 2\nwidth 2\nmap\n..\n..\n"

    def test_roundtrip_generated(self):
        scn = mapgen.gen_random(32, 32, 0.2, 4, seed=9)
        assert mapgen.read_map(scn.grid.to_text()) == scn.grid
        # byte-identical canonical round trip
        text = scn.grid.to_text()
        assert mapgen.read_map(text).to_text() == text

    def test_unknown_glyph_names_line(self):
        text = "type octile\nheight 2\nwidth 2\nmap\n..\n.T\n"
        with pytest.raises(MapParseError) as err:
            mapgen.read_map(text)
        assert err.value.line == 6

    def test_crlf_text_reads_as_its_lf_twin(self):
        text = mapgen.gen_room(10, 8, 2, seed=4).grid.to_text()
        assert mapgen.read_map(text.replace("\n", "\r\n")) == mapgen.read_map(text)

    def test_carriage_return_inside_a_row_is_an_unknown_glyph(self):
        text = "type octile\r\nheight 2\r\nwidth 3\r\nmap\r\n...\r\n.\r.\r\n"
        with pytest.raises(MapParseError, match=r"unknown glyph '\\r' at column 2") as err:
            mapgen.read_map(text)
        assert err.value.line == 6

    def test_ragged_row(self):
        text = "type octile\nheight 2\nwidth 2\nmap\n..\n...\n"
        with pytest.raises(MapParseError) as err:
            mapgen.read_map(text)
        assert err.value.line == 6

    def test_malformed_header(self):
        with pytest.raises(MapParseError) as err:
            mapgen.read_map("type quad\nheight 2\nwidth 2\nmap\n..\n..\n")
        assert err.value.line == 1
        with pytest.raises(MapParseError):
            mapgen.read_map("type octile\nheight x\nwidth 2\nmap\n..\n..\n")

    @pytest.mark.parametrize("header, line, message", [
        ("height 1\nwidth 2", 2, "height must be at least 2, got 1"),
        ("height -1\nwidth 2", 2, "height must be at least 2, got -1"),
        ("height 2\nwidth 1", 3, "width must be at least 2, got 1"),
        ("height 2\nwidth 0", 3, "width must be at least 2, got 0"),
        ("heigth 2\nwidth 2", 2, "expected 'height H'"),
        ("height 2 2\nwidth 2", 2, "expected 'height H'"),
        ("height 2\nwide 2", 3, "expected 'width W'"),
        ("height 2\nwidth", 3, "expected 'width W'"),
    ])
    def test_bad_size_header_names_its_line(self, header, line, message):
        with pytest.raises(MapParseError, match=message) as err:
            mapgen.read_map(f"type octile\n{header}\nmap\n..\n..\n")
        assert err.value.line == line

    def test_header_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the header checks must not be asserts
        code = (
            "from svo_mapf.mapgen import read_map, MapParseError\n"
            "for text, line in (('type octile\\nheigth 2\\nwidth 2\\nmap\\n..\\n..\\n', 2),\n"
            "                   ('type octile\\nheight 2\\nwidht 2\\nmap\\n..\\n..\\n', 3)):\n"
            "    try:\n"
            "        read_map(text)\n"
            "    except MapParseError as err:\n"
            "        assert err.line == line\n"
            "    else:\n"
            "        raise SystemExit(f'accepted a bad header at line {line}')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestFamilyScenario:
    # width != height, so sides passed in the wrong order would show
    @pytest.mark.parametrize("family, width, height, direct", [
        ("random", 14, 10, lambda: mapgen.gen_random(14, 10, 0.25, 5, seed=7)),
        ("room", 14, 10, lambda: mapgen.gen_room(14, 10, 5, seed=7)),
        ("maze", 15, 11, lambda: mapgen.gen_maze(15, 11, 5, seed=7)),
    ])
    def test_is_the_family_generator(self, family, width, height, direct):
        assert mapgen.family_scenario(family, width, height, 0.25, 5, 7).to_json() == direct().to_json()

    def test_unknown_family_is_named(self):
        with pytest.raises(ValueError, match=r"^unknown map family 'hexagon'$"):
            mapgen.family_scenario("hexagon", 8, 8, 0.1, 2, 0)


class TestDeterminism:
    def test_identical_args_identical_scenario(self):
        for make in (
            lambda: mapgen.gen_random(16, 16, 0.25, 6, seed=5),
            lambda: mapgen.gen_room(16, 16, 6, seed=5),
            lambda: mapgen.gen_maze(15, 15, 6, seed=5),
            lambda: mapgen.gen_corridor("recess", 9, seed=5),
            lambda: mapgen.gen_corridor("i_shape", 9, seed=5),
        ):
            a, b = make(), make()
            assert a.to_json() == b.to_json()

    def test_scenario_json_roundtrip(self):
        scn = mapgen.gen_random(12, 12, 0.2, 5, seed=8)
        loaded = mapgen.scenario_from_json(scn.to_json())
        assert loaded.grid == scn.grid
        assert loaded.starts == scn.starts and loaded.goals == scn.goals

    @pytest.mark.parametrize("starts, goals", [([[0, 0]], [(1, 1)]), ([(0, 0)], [(True, 1)])])
    def test_validate_refuses_a_cell_that_is_no_tuple_of_two_integers(self, starts, goals):
        # [0, 0] raised "unhashable type" and (True, 1) passed as (1, 1)
        grid = mapgen.GridMap(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError, match=r"^cell .* is not a \(row, col\) tuple of two integers$"):
            mapgen.Scenario(grid, starts, goals, 0).validate()

    def test_every_scenario_validates(self):
        for seed in range(20):
            mapgen.gen_random(12, 12, 0.3, 6, seed=seed).validate()
            mapgen.gen_maze(11, 11, 4, seed=seed).validate()

    def test_redrawn_maps_are_pinned(self, monkeypatch):
        # 32x32 room draws outside the density window and random maps whose
        # placement fails are drawn again from the same stream; the counters
        # show both redraws happen, and the digest pins what they return.
        layouts, refusals = [], []
        bsp, place = mapgen._bsp_obstacles, mapgen._place_agents

        def counted_bsp(*args):
            layouts[-1] += 1
            return bsp(*args)

        def counted_place(*args):
            try:
                return place(*args)
            except MapGenError:
                refusals[-1] += 1
                raise

        monkeypatch.setattr(mapgen, "_bsp_obstacles", counted_bsp)
        monkeypatch.setattr(mapgen, "_place_agents", counted_place)
        digest = hashlib.sha256()
        for gen, args, seeds in ((mapgen.gen_room, (32, 32, 16), 6), (mapgen.gen_random, (5, 5, 0.5, 10), 8)):
            for seed in range(seeds):
                layouts.append(0)
                refusals.append(0)
                digest.update(gen(*args, seed).to_json().encode())
        assert layouts == [1, 2, 1, 1, 2, 2] + [0] * 8
        assert refusals == [0] * 6 + [0, 0, 0, 0, 0, 2, 0, 0]
        assert digest.hexdigest() == "daf206f96fb08eb6adf6792cee38c1a345957509bf8a9e0513e020956e33557b"

    def test_infeasible_room_is_named(self):
        with pytest.raises(MapGenError, match="^no feasible room map after 100 attempts$"):
            mapgen.gen_room(8, 8, 60, 0)
