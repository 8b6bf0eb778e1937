"""The team's sliced observation against the per-cell loop it replaced.

`reference_observe` is the previous implementation, copied verbatim (only
renamed) as the oracle: it probes every cell of the field of view through
`is_free`, a position dictionary and the goal's distance field.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from svo_mapf import mapgen
from svo_mapf.gridworld import EnvConfig, Gridworld, obs_length, observe
from svo_mapf.pathing import UNREACHABLE, distance_field
from test_blocking import FUZZ, maps


def reference_observe(env, agent: int) -> np.ndarray:
    cfg = env.config
    fov = cfg.fov
    half = fov // 2
    r0, c0 = env.positions[agent]
    occupancy = np.zeros((fov, fov))
    others = np.zeros((fov, fov))
    heuristic = np.zeros((fov, fov))

    occupied = {pos: i for i, pos in enumerate(env.positions)}
    dist = distance_field(env.grid, env.goals[agent])
    d0 = int(dist[r0, c0])
    h_half = cfg.fov_heuristic // 2
    for dr in range(-half, half + 1):
        for dc in range(-half, half + 1):
            r, c = r0 + dr, c0 + dc
            fr, fc = dr + half, dc + half
            if not env.grid.is_free(r, c):
                occupancy[fr, fc] = 1.0
                continue
            j = occupied.get((r, c))
            if j is not None and j != agent:
                others[fr, fc] = 1.0
            if abs(dr) <= h_half and abs(dc) <= h_half and d0 != UNREACHABLE:
                d = int(dist[r, c])
                if d != UNREACHABLE and d < d0:
                    heuristic[fr, fc] = 1.0

    gr, gc = env.goals[agent]
    dr, dc = gr - r0, gc - c0
    mag = float(np.hypot(dr, dc))
    clamp = float(max(env.grid.height, env.grid.width))
    if mag > 0:
        goal_vec = [dr / mag, dc / mag, min(mag, clamp) / clamp,
                    (min(d0, clamp) / clamp) if d0 != UNREACHABLE else 1.0]
    else:
        goal_vec = [0.0, 0.0, 0.0, 0.0]

    partner = int(env.partners[agent])
    pr, pc = env.positions[partner]
    off = [max(-half, min(half, pr - r0)) / max(1, half),
           max(-half, min(half, pc - c0)) / max(1, half)]
    return np.concatenate([
        occupancy.ravel(), others.ravel(), heuristic.ravel(),
        np.array(goal_vec), env.svo[agent], env.svo[partner], np.array(off),
    ])


FOVS = [1, 3, 5, 9]
HEURISTICS = [0, 1, 3, 5, 11]
# a negative window drew a blank descent plane; EnvConfig refuses it
REFUSED_HEURISTICS = [-4, -1]


def assert_rows_match(env):
    got = observe(env)
    assert got.shape == (env.n, obs_length(env.config.fov, env.config.svo_bins))
    for agent in range(env.n):
        assert got[agent].tobytes() == reference_observe(env, agent).tobytes(), agent


@st.composite
def scenes(draw):
    """A map, up to five agents on distinct free cells (edge and corner cells
    drawn first), goals on any free cells (shared and unreachable ones
    included), partners, standing SVOs and the observation geometry."""
    grid = draw(maps())
    free = grid.free_cells()
    h, w = grid.height, grid.width
    rim = [p for p in free if p[0] in (0, h - 1) or p[1] in (0, w - 1)]
    pool = rim + [p for p in free if p not in rim] if rim else free
    n = draw(st.integers(1, min(5, len(free))))
    starts = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
    goals = [draw(st.sampled_from(free)) for _ in range(n)]
    cfg = EnvConfig(fov=draw(st.sampled_from(FOVS)),
                    fov_heuristic=draw(st.sampled_from(HEURISTICS)),
                    svo_bins=draw(st.integers(2, 5)), blocking_rewards=False)
    env = Gridworld(mapgen.Scenario(grid, starts, goals, seed=0), cfg)
    env.partners = np.array([draw(st.integers(0, n - 1)) for _ in range(n)])
    env.choose_svo(np.array([draw(st.integers(0, cfg.svo_bins - 1)) for _ in range(n)]))
    return env


@given(env=scenes())
@FUZZ
def test_sliced_observe_matches_the_cell_loop(env):
    assert_rows_match(env)


@pytest.mark.parametrize("fov", FOVS)
@pytest.mark.parametrize("fov_heuristic", REFUSED_HEURISTICS + HEURISTICS)
def test_every_cell_of_a_room_in_every_geometry(fov, fov_heuristic):
    # every free cell of one small room as the observer, so windows cross
    # every side and corner of the map, with a second agent elsewhere
    if fov_heuristic < 0:
        with pytest.raises(ValueError, match=f"^fov_heuristic must be >= 0, got {fov_heuristic}$"):
            EnvConfig(fov=fov, fov_heuristic=fov_heuristic, svo_bins=3, blocking_rewards=False)
        return
    grid = mapgen.gen_room(9, 8, 1, seed=3).grid
    free = grid.free_cells()
    cfg = EnvConfig(fov=fov, fov_heuristic=fov_heuristic, svo_bins=3, blocking_rewards=False)
    for k, cell in enumerate(free):
        other = free[(7 * k + 3) % len(free)]
        if other == cell:
            continue
        env = Gridworld(mapgen.Scenario(grid, [cell, other], [free[-1], free[0]], seed=0), cfg)
        env.partners = np.array([1, 0])
        assert_rows_match(env)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fov_heuristic", HEURISTICS)
def test_crowded_windows(seed, fov_heuristic):
    # 40 agents on a 16x16 room, once where gen_room puts them and once
    # packed into the free cells nearest a corner, so that each window holds
    # many agents and crosses the map's edge; partners and SVOs are drawn
    scn = mapgen.gen_room(16, 16, 40, seed)
    packed = sorted(scn.grid.free_cells(), key=lambda p: (p[0] + p[1], p))[:scn.n_agents]
    rng = np.random.default_rng(seed)
    cfg = EnvConfig(fov=9, fov_heuristic=fov_heuristic, svo_bins=4, blocking_rewards=False)
    for starts in (scn.starts, packed):
        env = Gridworld(mapgen.Scenario(scn.grid, starts, scn.goals, seed=0), cfg)
        env.partners = rng.integers(0, env.n, env.n)
        env.choose_svo(rng.integers(0, cfg.svo_bins, env.n))
        assert_rows_match(env)
