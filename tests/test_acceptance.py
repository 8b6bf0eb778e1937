"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 starts from a reward-monotonicity claim that is false as stated
and checks its exact boundary instead: the SVO-weighted action reward falls
with the angle up to atan(|partner| / |own|) and rises after it.
"""

import json
import math
import time

import numpy as np
import scipy.stats

from svo_mapf import cli, execution, harness, learner, mapgen, social
from svo_mapf.gridworld import EnvConfig, Gridworld
from svo_mapf.resolver import greedy_intents, resolve
from svo_mapf.rng import SplitMix64, derive_seed
from test_resolver import rotation_in


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def mixed_scenario(index, master_seed=20240):
    rng = SplitMix64(derive_seed(master_seed, index))
    family = rng.choice(["random", "random", "room", "maze", "recess", "i_shape"])
    if family == "random":
        size = rng.randint(10, 20)
        n_agents = rng.randint(2, 32)
        density = 0.05 + 0.25 * rng.random()
        return mapgen.gen_random(size, size, density, n_agents, rng.next_u64())
    if family == "room":
        size = rng.randint(8, 16)
        return mapgen.gen_room(size, size, rng.randint(2, 12), rng.next_u64())
    if family == "maze":
        size = rng.randint(9, 15)
        return mapgen.gen_maze(size, size, rng.randint(2, 8), rng.next_u64())
    return mapgen.gen_corridor(family, rng.randint(4, 10), rng.next_u64())


def test_criterion_01_safety_suite():
    """Zero vertex/swap/rotation violations and bounded resolver chains over 1000
    greedy+resolver episodes on mixed maps with 2-32 agents; < 60 s."""
    t0 = time.perf_counter()
    episodes = 1000
    max_agents_seen = 0
    steps_checked = 0
    cfg = EnvConfig(max_episode_length=48, blocking_rewards=False)
    for index in range(episodes):
        scn = mixed_scenario(index)
        env = Gridworld(scn, cfg)
        n = env.n
        max_agents_seen = max(max_agents_seen, n)
        while not env.terminated:
            previous = list(env.positions)
            intents = greedy_intents(env.grid, env.positions, env.goals)
            res = resolve(env.grid, env.positions, intents, np.zeros(n))
            assert res.iterations <= 4 * n, f"episode {index}: chain used {res.iterations} pops"
            env.step(res.actions, res.penalties)
            # independent condition checks on the applied joint move
            assert len(set(env.positions)) == n, f"episode {index}: shared vertex"
            for i in range(n):
                for j in range(i + 1, n):
                    assert not (env.positions[i] == previous[j]
                                and env.positions[j] == previous[i]), \
                        f"episode {index}: swap between {i} and {j}"
            assert rotation_in(previous, env.positions) is None, f"episode {index}: rotation"
            steps_checked += 1
    elapsed = time.perf_counter() - t0
    assert max_agents_seen == 32
    assert report(1, elapsed < 60.0,
                  f"{episodes} episodes, {steps_checked} steps, up to {max_agents_seen} "
                  f"agents, 0 violations, {elapsed:.1f}s (< 60s)")


def test_criterion_02_appendix_reward_monotonicity_as_stated():
    """Stated claim: f(x) = a cos x + b sin x is non-increasing on a 1-degree
    grid of [0, 45] degrees for ALL a, b in {-c, -2, -0.3, 0}, c in {1, 2, 5}.

    The claim is false as stated (its proof divides by the negative quantity
    a without flipping the inequality). For a, b <= 0, f = -R cos(x - phi)
    with phi = atan2(|b|, |a|), so f falls on [0, phi] and rises on
    [phi, 45]: it is non-increasing on the whole domain exactly when
    |b| >= |a|. E.g. a=-2, b=0 gives f = -2 cos x, strictly increasing.

    This test checks that exact boundary through social.redistribute_rewards
    (f is its action-stream reward with own reward a, partner reward b), pair
    by pair: (i) f is non-increasing on the grid degrees <= phi (phi = 45 when
    |b| >= |a|); (ii) f is non-decreasing on the grid degrees >= phi;
    (iii) f rises somewhere on the grid exactly when |b| < |a|.
    """
    tol = 1e-12
    mismatches = []
    expected_rising, rising = [], []
    for c in (1.0, 2.0, 5.0):
        values = (-c, -2.0, -0.3, 0.0)
        for a in values:
            for b in values:
                f = [social.redistribute_rewards(a, b, float(deg))[1] for deg in range(46)]
                breaks_claim = abs(b) < abs(a)
                phi = math.degrees(math.atan2(abs(b), abs(a))) if breaks_claim else 45.0
                if a == 0.0 and b == 0.0 and any(v != 0.0 for v in f):
                    mismatches.append((c, a, b, "f is not identically 0"))
                steps = {deg: f[deg] - f[deg - 1] for deg in range(1, 46)}
                for deg, step in steps.items():
                    if deg <= phi and step > tol:
                        mismatches.append((c, a, b, f"rises by {step:.2e} up to {deg} <= phi"))
                    if deg - 1 >= phi and step < -tol:
                        mismatches.append((c, a, b, f"falls by {-step:.2e} from {deg - 1} >= phi"))
                if breaks_claim:
                    expected_rising.append((c, a, b))
                if any(step > tol for step in steps.values()):
                    rising.append((c, a, b))
    if rising != expected_rising:
        mismatches.append(("rising pairs", rising, "expected", expected_rising))
    ok = not mismatches
    report(2, ok, f"{len(rising)} of 48 (a, b) pairs break the stated monotonicity, "
                  f"exactly those with |b| < |a|; each falls up to atan(|b|/|a|) and "
                  f"rises after it, the rest never rise" if ok
           else f"{len(mismatches)} mismatches against the boundary; first: {mismatches[0]}")
    assert ok, (
        "the action reward departs from the monotonicity boundary phi = "
        f"atan2(|b|, |a|): {mismatches[:5]}"
    )
    assert len(expected_rising) == 17
    # the named counterexample: own collision, partner resting on goal
    assert all((c, -2.0, 0.0) in rising for c in (1.0, 2.0, 5.0))


def test_criterion_03_overlap_oracle():
    """compute_overlap equals the brute-force double-loop oracle on 500 random
    2-8-agent instances, exact to 1e-12, symmetric, zero diagonal."""
    rng = SplitMix64(555)
    worst = 0.0
    for _ in range(500):
        size = rng.randint(8, 14)
        n = rng.randint(2, 8)
        scn = mapgen.gen_random(size, size, 0.3 * rng.random(), n, rng.next_u64())
        decay = 0.5 + 0.5 * rng.random()
        res = social.compute_overlap(scn.grid, scn.starts, scn.goals, decay)
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                total = 0.0
                for t_i, v_i in enumerate(res.flows[i].vertices):
                    for t_j, v_j in enumerate(res.flows[j].vertices):
                        if v_i == v_j and res.flows[i].directions[t_i] != res.flows[j].directions[t_j]:
                            total += decay ** t_i + decay ** t_j
                oracle[i, j] = total
        diff = float(np.abs(res.matrix - oracle).max())
        worst = max(worst, diff)
        assert diff <= 1e-12
        assert np.array_equal(res.matrix, res.matrix.T)
        assert not res.matrix.diagonal().any()
    assert report(3, True, f"500 instances, max |matrix - oracle| = {worst:.2e} (<= 1e-12)")


def test_criterion_04_corridor_case_study():
    """Heterogeneous scripted policy reaches 2.000 goals exactly on the 80/20
    mixture over 1000 episodes. Homogeneous-selfish cannot solve recess maps
    (greedy descent never leaves the corridor row), so the criterion's
    fallback applies: report the measured value and assert the paper-anchored
    bounds hetero = 2.0 and homo(i-shape) < 2."""
    t0 = time.perf_counter()
    env_cfg = EnvConfig(blocking_rewards=False)
    hetero = harness.corridor_case_study(0.8, 1000, "hetero", seed=1001, env_cfg=env_cfg)
    homo_recess = harness.corridor_case_study(1.0, 200, "homo", seed=1002, env_cfg=env_cfg)
    homo_mix = harness.corridor_case_study(0.8, 1000, "homo", seed=1003, env_cfg=env_cfg)
    elapsed = time.perf_counter() - t0

    assert hetero.mean_goals == 2.0, f"hetero mixture mean {hetero.mean_goals} != 2.0"
    if homo_recess.mean_goals >= 1.95:
        # selfish agents solve recess maps: the paper's 1.7 arithmetic applies
        assert abs(homo_mix.mean_goals - 1.7) <= 0.05
        detail = (f"hetero = {hetero.mean_goals:.3f}, homo mixture = "
                  f"{homo_mix.mean_goals:.3f} (within 1.7 +- 0.05)")
    else:
        assert homo_mix.kind_mean("i_shape") < 2.0
        detail = (f"hetero = {hetero.mean_goals:.3f} exactly; homogeneous-selfish "
                  f"cannot solve recess maps (recess-only mean = "
                  f"{homo_recess.mean_goals:.3f}), measured mixture mean = "
                  f"{homo_mix.mean_goals:.3f}, i-shape mean = "
                  f"{homo_mix.kind_mean('i_shape'):.3f} < 2")
    assert report(4, elapsed < 120.0, detail + f"; {elapsed:.1f}s (< 120s)")


def test_criterion_05_gradient_checks():
    """Analytic gradients match central finite differences to relative error
    < 1e-4 on every coordinate at 20 random parameter points; < 60 s."""
    t0 = time.perf_counter()
    cfg = learner.SmpConfig(hidden=8)
    obs_dim, bins = 39, 3
    rng = SplitMix64(90210)
    worst = 0.0
    for point in range(20):
        params = learner.init_params(obs_dim, cfg.hidden, bins, rng.next_u64(), scale=0.5)
        r = np.random.default_rng(point)
        valid = (r.random((8, 5)) > 0.3).astype(float)
        valid[:, 0] = 1.0
        zexp = r.random((8, bins))
        zexp /= zexp.sum(1, keepdims=True)
        batch = learner.RolloutBatch(
            obs=r.normal(size=(8, obs_dim)),
            actions=r.integers(0, 5, 8),
            svo_bins=r.integers(0, bins, 8),
            logp_act_old=np.log(r.random(8) * 0.5 + 0.1),
            logp_svo_old=np.log(r.random(8) * 0.5 + 0.1),
            adv_action=r.normal(size=8),
            adv_svo=r.normal(size=8),
            ret_action=r.normal(size=8),
            ret_svo=r.normal(size=8),
            valid_mask=valid,
            blocking_label=(r.random(8) > 0.5).astype(float),
            z_exp=zexp,
            alpha=r.random(8),
            reward_action=r.normal(size=8),
            reward_svo=r.normal(size=8),
            reward_external=r.normal(size=8),
        )
        _, grads = learner.smp3o_loss_and_grad(params, batch, cfg)
        vec = learner.params_to_vector(params)
        gvec = learner.params_to_vector(grads)
        h = 1e-6
        for i in range(len(vec)):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += h
            vm[i] -= h
            lp = learner.smp3o_loss_and_grad(learner._param_views(vp, params), batch, cfg)[0]
            lm = learner.smp3o_loss_and_grad(learner._param_views(vm, params), batch, cfg)[0]
            num = (lp - lm) / (2 * h)
            rel = abs(gvec[i] - num) / max(abs(gvec[i]) + abs(num), 1e-6)
            assert rel < 1e-4, f"point {point}, coordinate {i}: rel err {rel:.2e}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    assert report(5, elapsed < 60.0,
                  f"20 points x {len(vec)} coordinates, worst rel err {worst:.2e} "
                  f"(< 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_06_training_smoke():
    """SMP3O on the 80/20 corridor curriculum, 2 agents, 200k env steps:
    goals-reached moving average strictly higher over the final 10 iterations
    than the first 10; < 30 min."""
    t0 = time.perf_counter()
    cfg = learner.smoke_train_config(seed=0, total_env_steps=200_000)
    curve = []
    result = learner.train(cfg, progress=lambda row: curve.append(row))
    elapsed = time.perf_counter() - t0
    goals = [row["goals"] for row in curve]
    assert len(goals) >= 30
    first = float(np.mean(goals[:10]))
    last = float(np.mean(goals[-10:]))
    assert last > first, f"no improvement: first10 {first:.3f} vs last10 {last:.3f}"
    assert report(6, elapsed < 1800.0,
                  f"{len(goals)} iterations, goals first10 {first:.3f} -> last10 "
                  f"{last:.3f}, {elapsed:.0f}s (< 1800s)")
    assert result.curve[-1]["env_steps"] >= 200_000


def test_criterion_07_adg_suite():
    """200 valid random plans: acyclic ADGs whose per-cell precedence matches
    plan order; jitter-seeded executions (100+ seeds) complete every task with
    zero continuous-time cell co-occupancy; < 120 s."""
    t0 = time.perf_counter()
    rng = SplitMix64(771)
    seeds_used = 0
    for index in range(200):
        scn = mapgen.gen_random(10, 10, 0.2, 2 + rng.randrange(7),
                                derive_seed(771, index))
        paths = harness.run_episode(
            scn, harness.GreedyPolicy(),
            EnvConfig(max_episode_length=24, blocking_rewards=False)).paths
        graph = execution.build_adg(paths)
        speeds = [0.5 + 2.0 * rng.random() for _ in range(len(paths))]
        log = execution.simulate_execution(graph, speeds, jitter_seed=index,
                                           jitter_amplitude=0.8)
        seeds_used += 1
        assert all(task.status == execution.DONE for task in graph.tasks)
        # the DONE events come in a topological order of the ADG
        rank = {e.task_id: k for k, e in enumerate(e for e in log if e.transition == execution.DONE)}
        assert all(rank[d] < rank[task.task_id] for task in graph.tasks for d in task.dependencies)
        for cell, visits in graph.cell_visits.items():
            assert [v[0] for v in visits] == sorted(v[0] for v in visits)
            for (t0_, _, vac0), (_, ent1, _) in zip(visits, visits[1:]):
                assert rank[vac0] < rank[ent1]
        enq = {e.task_id: e.t for e in log if e.transition == execution.ENQUEUED}
        done = {e.task_id: e.t for e in log if e.transition == execution.DONE}
        horizon = max(done.values())
        for cell, visits in graph.cell_visits.items():
            spans = sorted(
                (enq[ent], done[vac] if vac is not None else horizon,
                 graph.tasks[ent].robot_id)
                for _, ent, vac in visits)
            for (s0, e0, r0), (s1, e1, r1) in zip(spans, spans[1:]):
                if r0 != r1:
                    assert e0 <= s1 + 1e-12, f"cell {cell} co-occupied"
    elapsed = time.perf_counter() - t0
    assert seeds_used >= 100
    assert report(7, elapsed < 120.0,
                  f"200 plans, {seeds_used} jitter seeds, all DONE, zero "
                  f"co-occupancy, {elapsed:.1f}s (< 120s)")


# Frozen hand-trace of the five-agent follower-cycle fixture (chain topology:
# 0 follows 2, 2 follows 3, 3 follows 1 which walks into a wall, 4 follows 0;
# SVOs strictly descending by agent index).
FIVE_AGENT_TRACE = {
    "actions": [0, 0, 0, 0, 0],
    "penalized": [0, 1, 2],
    "annotations": ["restricted-idled", "invalidated", "restricted-idled",
                    "restricted-idled", "restricted-idled"],
    "iterations": 8,
}


def test_criterion_08_resolver_regression():
    """The five-agent fixture resolves with all agents idle and penalties
    exactly on the strictly-more-prosocial member of each conflicting pair."""
    obst = np.zeros((3, 7), dtype=bool)
    obst[0, 1] = True
    grid = mapgen.GridMap(obst)
    positions = [(1, 4), (1, 1), (1, 3), (1, 2), (1, 5)]
    intents = np.array([3, 1, 3, 3, 3])
    svos = np.array([45.0, 40.0, 30.0, 20.0, 10.0])
    out = resolve(grid, positions, intents, svos)
    assert list(out.actions) == FIVE_AGENT_TRACE["actions"]
    assert sorted(i for i in range(5) if out.penalties[i] == -2.0) == FIVE_AGENT_TRACE["penalized"]
    assert out.annotations == FIVE_AGENT_TRACE["annotations"]
    assert out.iterations == FIVE_AGENT_TRACE["iterations"]
    # pairwise oracle: conflicting pairs were (1,3), (2,3), (0,2), (4,0);
    # each penalized agent is the strictly more prosocial member of its pair
    for hi, lo in ((1, 3), (2, 3), (0, 2)):
        assert svos[hi] > svos[lo] and out.penalties[hi] == -2.0
    assert out.penalties[3] == 0.0 and out.penalties[4] == 0.0
    assert report(8, True, "all five idle; penalties exactly on {0, 1, 2}; "
                           f"{out.iterations} chain pops")


def test_criterion_09_ttest_oracle():
    """paired_t_test matches scipy on 50 random pairs: t to 1e-9, p to 1e-6."""
    rng = SplitMix64(424242)
    worst_t, worst_p = 0.0, 0.0
    for _ in range(50):
        n = 5 + rng.randrange(60)
        a = np.array([rng.normal() for _ in range(n)])
        b = np.array([rng.normal() * 0.7 + 0.2 for _ in range(n)])
        t, p = harness.paired_t_test(a, b)
        oracle = scipy.stats.ttest_rel(a, b)
        worst_t = max(worst_t, abs(t - oracle.statistic))
        worst_p = max(worst_p, abs(p - oracle.pvalue))
        assert abs(t - oracle.statistic) <= 1e-9
        assert abs(p - oracle.pvalue) <= 1e-6
    assert report(9, True, f"50 pairs, max |dt| {worst_t:.1e} (<= 1e-9), "
                           f"max |dp| {worst_p:.1e} (<= 1e-6)")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Every CLI command rerun with identical arguments and seed produces
    byte-identical output files (and stdout)."""

    def run_twice(args, outputs):
        blobs = []
        for tag in ("x", "y"):
            out_dir = str(tmp_path / tag)
            concrete = [a.replace("{D}", out_dir) for a in args]
            (tmp_path / tag).mkdir(exist_ok=True)
            code = cli.main(concrete)
            assert code == 0
            # stdout echoes output paths, which differ by run directory; the
            # byte-identity requirement is about content
            stdout = capsys.readouterr().out.replace(out_dir, "{D}")
            blob = [stdout.encode()]
            for rel in outputs:
                with open(str(tmp_path / tag / rel), "rb") as f:
                    blob.append(f.read())
            blobs.append(blob)
        assert blobs[0] == blobs[1], f"non-deterministic output for {args[0]}"

    for kind in ("random", "room", "maze"):
        run_twice(["gen-map", "--kind", kind, "--size", "10x10", "--density", "0.2",
                   "--agents", "3", "--seed", "6", "--out", "{D}"],
                  [f"{kind}-6.map", f"{kind}-6.scen.json"])
    for kind in ("recess", "ishape"):
        run_twice(["gen-map", "--kind", kind, "--corridor-len", "6", "--seed", "2",
                   "--out", "{D}"], [f"{kind}-2.map", f"{kind}-2.scen.json"])

    scen_dir = tmp_path / "scen"
    cli.main(["gen-map", "--kind", "random", "--size", "10x10", "--density", "0.15",
              "--agents", "3", "--seed", "8", "--out", str(scen_dir)])
    capsys.readouterr()
    scen = str(scen_dir / "random-8.scen.json")
    run_twice(["run", "--scenario", scen, "--policy", "scripted", "--max-steps", "48",
               "--trace", "{D}/trace.jsonl"], ["trace.jsonl"])
    run_twice(["bench", "--family", "random", "--size", "10", "--density", "0.15",
               "--agents", "3", "--instances", "3", "--policy", "greedy",
               "--seed", "4", "--out", "{D}/report.json"], ["report.json"])

    state = {"map": "type octile\nheight 3\nwidth 4\nmap\n....\n....\n....\n",
             "positions": [[1, 1], [1, 2]], "intents": [4, 3], "svos": [45.0, 0.0]}
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(state))
    run_twice(["resolve", "--state", str(state_path)], [])

    (tmp_path / "a.json").write_text("[1.5, 2.5, 3.0, 0.5]")
    (tmp_path / "b.json").write_text("[1.0, 2.0, 2.0, 1.0]")
    run_twice(["ttest", "--a", str(tmp_path / "a.json"), "--b", str(tmp_path / "b.json")], [])
    run_twice(["case-study", "--p-recess", "0.8", "--episodes", "10",
               "--policy", "hetero", "--seed", "3"], [])

    trace_dir = tmp_path / "tr"
    trace_dir.mkdir(exist_ok=True)
    cli.main(["run", "--scenario", scen, "--policy", "greedy", "--max-steps", "48",
              "--trace", str(trace_dir / "t.jsonl")])
    capsys.readouterr()
    (tmp_path / "speeds.json").write_text("[1.0, 1.5, 0.5]")
    run_twice(["replay-adg", "--trace", str(trace_dir / "t.jsonl"),
               "--speeds", str(tmp_path / "speeds.json"), "--seed", "5",
               "--jitter", "0.4", "--out", "{D}/log.jsonl"], ["log.jsonl"])

    train_cfg = {"smp": {"hidden": 8, "epochs": 1, "minibatch": 8},
                 "env": {"fov": 5, "svo_bins": 3, "max_episode_length": 24},
                 "total_env_steps": 30, "rollout_steps": 15, "seed": 2}
    (tmp_path / "train.json").write_text(json.dumps(train_cfg))
    run_twice(["train", "--config", str(tmp_path / "train.json"), "--quiet",
               "--out", "{D}"], ["checkpoint.json", "curve.csv"])
    assert report(10, True, "gen-map x5, run, bench, resolve, ttest, case-study, "
                            "replay-adg, train all byte-identical on rerun")
