import math

import numpy as np
import pytest
import scipy.stats

from svo_mapf import harness, mapgen, social
from svo_mapf.gridworld import EnvConfig, Gridworld
from svo_mapf.harness import DegenerateInputError
from svo_mapf.pathing import ACTION_DELTAS, IDLE, MOVE_ORDER, astar_path, distance_field
from svo_mapf.rng import SplitMix64
from test_descent import reference_nearest_refuge


def reference_betacf(a: float, b: float, x: float) -> float:
    """`_betacf` with a copy of the modified-Lentz update for each of term m's
    two coefficients, as it was before they shared one body; copied verbatim
    (only renamed)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


class TestPairedTTest:
    def test_incomplete_beta_matches_the_two_copy_update_bit_for_bit(self, monkeypatch):
        # the scipy oracles check p only to 1e-6; this pins every bit. a is
        # df / 2 and b is 1 / 2 in both orders; x is uniform on (0, 1) or
        # df / (df + t^2) for a normal t, as paired_t_test passes it
        rng = SplitMix64(29)
        draws = []
        while len(draws) < 4000:
            df = 1 + rng.randrange(120)
            t = rng.normal()
            x = rng.random() if len(draws) % 2 else df / (df + t * t)
            if 0.0 < x < 1.0:
                draws.append((df / 2.0, 0.5, x) if rng.random() < 0.5 else (0.5, df / 2.0, x))
        got = [harness.regularized_incomplete_beta(*draw) for draw in draws]
        monkeypatch.setattr(harness, "_betacf", reference_betacf)
        assert [harness.regularized_incomplete_beta(*draw) for draw in draws] == got

    def test_hand_computed_example(self):
        # differences (1, 2, 3): mean 2, sd 1, t = 2 / (1/sqrt(3)) = 3.4641
        t, p = harness.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        # two-sided p for df=2: 1 - sqrt(6/7)
        assert p == pytest.approx(1.0 - math.sqrt(6.0 / 7.0), abs=1e-12)
        assert p == pytest.approx(0.0742, abs=5e-5)

    def test_degenerate_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            harness.paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_five_sigma_bound(self):
        # differences with mean 5 and unit sd over n=30: t = 5*sqrt(30) >> 5
        rng = SplitMix64(9)
        base = np.array([rng.normal() for _ in range(30)])
        noise = np.array([rng.normal() for _ in range(30)])
        noise = (noise - noise.mean()) / noise.std(ddof=1)
        t, p = harness.paired_t_test(base + noise + 5.0, base)
        assert abs(t) > 5.0 and p < 0.001

    def test_matches_scipy_oracle(self):
        rng = SplitMix64(123)
        for _ in range(50):
            n = 5 + rng.randrange(40)
            a = np.array([rng.normal() for _ in range(n)])
            b = np.array([rng.normal() for _ in range(n)])
            t, p = harness.paired_t_test(a, b)
            oracle = scipy.stats.ttest_rel(a, b)
            assert t == pytest.approx(oracle.statistic, abs=1e-9)
            assert p == pytest.approx(oracle.pvalue, abs=1e-6)

    def test_non_finite_pair_is_named(self):
        # NaN or an infinity used to reach the incomplete beta, which raised
        # a RuntimeError about its continued fraction
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^pair 1 \(\S+, 0.0\) is not a pair of finite numbers$"):
                harness.paired_t_test([1.0, bad, 3.0, bad], [0.0, 0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match=r"^pair 2 \(3.0, inf\) is not"):
            harness.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, math.inf])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            harness.paired_t_test([1.0], [1.0])
        with pytest.raises(ValueError):
            harness.paired_t_test([1.0, 2.0], [1.0])


class TestRunBatch:
    def test_trivial_single_agent(self):
        report = harness.run_batch("random", 8, 0.0, 1, instances=1,
                                   policy_name="greedy", seed=3)
        assert report.success_rate == 1.0
        assert report.mean_arrival_rate == 1.0
        assert report.time_success <= report.time_general + 1e-9

    def test_structural_fields_and_identities(self):
        report = harness.run_batch("random", 12, 0.2, 4, instances=20,
                                   policy_name="greedy", seed=5,
                                   env_cfg=EnvConfig(max_episode_length=64,
                                                     blocking_rewards=False))
        assert 0.0 <= report.success_rate <= 1.0
        successes = report.success_rate * report.instances
        assert successes == pytest.approx(round(successes), abs=1e-9)
        assert report.mean_arrival_rate == pytest.approx(
            float(np.mean(report.metric_column("arrival_rate"))))
        assert len(report.per_instance) == 20

    def test_rerun_identical_report(self):
        kwargs = dict(family="maze", size=11, density=0.5, n_agents=3, instances=5,
                      policy_name="greedy", seed=11,
                      env_cfg=EnvConfig(max_episode_length=48, blocking_rewards=False))
        a = harness.run_batch(**kwargs)
        b = harness.run_batch(**kwargs)
        assert a.to_json() == b.to_json()

    def test_families_dispatch(self):
        for family in ("random", "room", "maze"):
            size = 8 if family != "maze" else 9
            report = harness.run_batch(family, size, 0.1, 2, instances=2,
                                       policy_name="greedy", seed=1,
                                       env_cfg=EnvConfig(max_episode_length=32,
                                                         blocking_rewards=False))
            assert report.instances == 2
        with pytest.raises(ValueError):
            harness.run_batch("desert", 8, 0.1, 2, 1, "greedy", 0)

    def test_unknown_family_is_named(self):
        with pytest.raises(ValueError, match=r"^unknown map family 'hexagon'$"):
            harness.run_batch("hexagon", 8, 0.1, 2, 1, "greedy", 0)


class TestScriptedPolicies:
    def test_no_conflict_both_modes_equal_greedy(self):
        scn = mapgen.Scenario(
            mapgen.GridMap(np.zeros((5, 5), dtype=bool)),
            starts=[(0, 0), (4, 4)], goals=[(0, 4), (4, 0)], seed=0)
        env_homo = harness.run_episode(scn, harness.GreedyPolicy(),
                                       EnvConfig(blocking_rewards=False))
        env_het = harness.run_episode(scn, harness.HeterogeneousScriptedPolicy(),
                                      EnvConfig(blocking_rewards=False))
        assert env_homo.paths == env_het.paths
        assert env_homo.metrics.success and env_het.metrics.success

    def test_ishape_homogeneous_deadlocks(self):
        scn = mapgen.gen_corridor("i_shape", 6, seed=4)
        result = harness.run_episode(scn, harness.GreedyPolicy(),
                                     EnvConfig(max_episode_length=128,
                                               blocking_rewards=False))
        assert result.metrics.goals_reached < 2
        assert not result.metrics.success

    def test_ishape_heterogeneous_solves(self):
        scn = mapgen.gen_corridor("i_shape", 6, seed=4)
        records = []
        result = harness.run_episode(scn, harness.HeterogeneousScriptedPolicy(),
                                     EnvConfig(blocking_rewards=False),
                                     trace_writer=records.append)
        assert result.metrics.goals_reached == 2
        assert result.metrics.success
        # the prosocial role went to the lower-indexed agent
        svo_trace = [r["svos"] for r in records]
        flat = [z for step in svo_trace for z in [step[0]]]
        assert 45.0 in flat
        assert all(step[1] == 0.0 for step in svo_trace)

    def test_recess_heterogeneous_uses_refuge(self):
        scn = mapgen.gen_corridor("recess", 9, seed=2)
        result = harness.run_episode(scn, harness.HeterogeneousScriptedPolicy(),
                                     EnvConfig(blocking_rewards=False))
        assert result.metrics.success
        recess_cells = {c for c in scn.grid.free_cells() if c[0] != 1}
        visited = set(result.paths[0]) | set(result.paths[1])
        assert visited & recess_cells  # somebody actually stepped aside

    def test_retreat_step_descends_toward_the_refuge(self):
        # the first move toward the refuge, with Up/Down/Left/Right tie-break,
        # as read off the refuge's full distance field on a separate map copy
        scn = mapgen.gen_room(16, 16, 2, seed=7)
        copy = mapgen.GridMap(scn.grid.obstacles.copy())
        free = scn.grid.free_cells()
        checked = 0
        targets = set()
        for pos in free[::5]:
            env = Gridworld(mapgen.Scenario(scn.grid, [pos], [pos], seed=0),
                            EnvConfig(blocking_rewards=False))
            targets.add(free[-1 - checked % 7])
            flow = astar_path(scn.grid, pos, free[-1 - checked % 7])
            path_cells = set(flow.vertices)
            refuge = reference_nearest_refuge(scn.grid, pos, path_cells)
            want = IDLE
            if refuge is not None and pos in path_cells:
                dist = distance_field(copy, refuge)
                for action in MOVE_ORDER:
                    dr, dc = ACTION_DELTAS[action]
                    nxt = (pos[0] + dr, pos[1] + dc)
                    if copy.in_bounds(*nxt) and dist[nxt] == dist[pos] - 1:
                        want = action
                        break
                checked += 1
            assert harness.HeterogeneousScriptedPolicy._retreat_step(env, 0, path_cells) == want
        assert checked > 10
        assert set(scn.grid._goal_cache) == targets  # no refuge field was cached

    def test_distance_fields_cached_only_for_goals(self):
        # a blocking-on hetero episode on a 32x32 room map caches one field
        # per goal at most: no field per visited start cell or per refuge
        scn = mapgen.gen_room(32, 32, 16, seed=3)
        records = []
        harness.run_episode(scn, harness.HeterogeneousScriptedPolicy(),
                            EnvConfig(max_episode_length=32), trace_writer=records.append)
        assert any(45.0 in r["svos"] for r in records)  # somebody retreated
        assert set(scn.grid._goal_cache) <= set(scn.goals)

    def test_policy_step_from_make_policy(self):
        scn = mapgen.gen_corridor("i_shape", 4, seed=1)
        env = Gridworld(scn, EnvConfig(blocking_rewards=False))
        overlap = social.compute_overlap(env.grid, env.positions, env.goals,
                                         env.config.overlap_decay)
        env.partners = overlap.partners.copy()
        intents_homo, svo_homo = harness.make_policy("homo", env.config).step(env, overlap)
        assert not svo_homo.any()
        intents_het, svo_het = harness.make_policy("hetero", env.config).step(env, overlap)
        assert svo_het[0] == 45.0 and svo_het[1] == 0.0


class TestCaseStudy:
    def test_hetero_exact_two(self):
        res = harness.corridor_case_study(0.8, 60, "hetero", seed=21,
                                          env_cfg=EnvConfig(blocking_rewards=False))
        assert res.mean_goals == 2.0
        assert res.kind_mean("recess") == 2.0
        assert res.kind_mean("i_shape") == 2.0

    def test_homo_below_two_on_ishape(self):
        res = harness.corridor_case_study(0.0, 30, "homo", seed=22,
                                          env_cfg=EnvConfig(blocking_rewards=False))
        assert res.kind_mean("i_shape") < 2.0

    # each id names p_recess, the I-shape probability 1 - p_recess, and the episodes
    out_of_range = [(1.5, 10), (-0.2, 10), (float("nan"), 10), (0.5, 0)]

    @pytest.mark.parametrize("p_recess, episodes", out_of_range, ids=[f"{p}-{1 - p}-{n}" for p, n in out_of_range])
    def test_out_of_range_arguments_rejected(self, p_recess, episodes):
        with pytest.raises(ValueError):
            harness.corridor_case_study(p_recess, episodes, "homo", seed=0)

    def test_kind_without_episodes_has_no_mean(self):
        res = harness.corridor_case_study(1.0, 3, "hetero", seed=0)
        assert res.kind_mean("recess") == 2.0 and res.kind_mean("i_shape") is None

    def test_kind_mix_follows_probability(self):
        res = harness.corridor_case_study(0.8, 200, "hetero", seed=23,
                                          env_cfg=EnvConfig(blocking_rewards=False))
        frac = len(res.per_kind_goals["recess"]) / res.episodes
        assert 0.7 < frac < 0.9

    def test_deterministic(self):
        a = harness.corridor_case_study(0.5, 20, "hetero", seed=24,
                                        env_cfg=EnvConfig(blocking_rewards=False))
        b = harness.corridor_case_study(0.5, 20, "hetero", seed=24,
                                        env_cfg=EnvConfig(blocking_rewards=False))
        assert a.per_episode_goals == b.per_episode_goals


def test_report_json_excludes_timings_by_default():
    report = harness.run_batch("random", 8, 0.0, 1, instances=1,
                               policy_name="greedy", seed=3)
    assert "wall_time" not in report.to_json()
    assert "wall_time" in report.to_json(include_timings=True)
