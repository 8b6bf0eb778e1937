"""Golden outputs: digests of whole episodes, rollouts, training runs and
CLI commands.

The determinism tests elsewhere compare two runs of the same code, so they
cannot notice a change that alters outputs. These digests were recorded from
older code, and every later change must reproduce them:
- GOLDEN, before the evaluation and training episode loops were merged into
  one;
- GOLDEN_CLI's gen-map, bench (with its CSV), case-study, run and replay-adg
  entries at small sizes, stdout and stderr included, before the four descent
  loops became one helper, and its `train` entry (stdout, stderr, curve.csv
  and checkpoint) before the two greedy steps became one;
- the raw rollout bytes, before the two network policies became one;
- GOLDEN_CLI's resolve, ttest and I-shape entries, and every entry from
  gen_map_room_32 on, before GridMap copied its input array.
Every test runs under each condition of the `condition` fixture, the default
one and a cold one in which no step reuses cached state, and CI runs the file
under two hash seeds; each digest must hold under all of them.
Integers are hashed exactly and floats rounded to 9 decimals, so the digests
do not depend on the BLAS build.
"""

import collections
import hashlib
import itertools
import json

import numpy as np
import pytest

from svo_mapf import cli, harness, social
from svo_mapf import learner as L
from svo_mapf.gridworld import Gridworld, obs_length
from svo_mapf.mapgen import sample_corridor
from svo_mapf.rng import SplitMix64, derive_seed

# the train config that test_criterion_10_cli_determinism runs through the CLI
TRAIN_CFG = {"smp": {"hidden": 8, "epochs": 1, "minibatch": 8},
             "env": {"fov": 5, "svo_bins": 3, "max_episode_length": 24},
             "total_env_steps": 30, "rollout_steps": 15, "seed": 2}

GOLDEN = {
    "run_hetero_social":
        "bda984cda22b0f3d4a531513649511ecdbc3f01fc2a90f9349716e378d8a45cc",
    "run_greedy":
        "fed6354da4b7f90579227293ac8ced604eba675d9805ea2e216f1fb16b76362e",
    "case_study_homo":
        "70505652e931cd7a8a5918e88b665e97e4c84015ad76800bbe46a081e284768d",
    "case_study_hetero":
        "59174914e7482552264c78cd38d41a64dcacceaa484764a2e74e28cd8112d71d",
    "rollout_batch":
        "3144aea030edb755af4d8dd6673be6ba8939748bd0a197fcaf9b423942ca858d",
    "train":
        "67e96a06de0839ba6fed4432ac9e8b202bf53cfefe03c8b6074e21f9d5ee3f74",
    "run_trained":
        "aef7863de3fe32714823ecf932268d223be6c9947cd5372d87d817052c5e0f94",
}


@pytest.fixture(autouse=True, params=["default", "cold"])
def condition(request, monkeypatch):
    """The condition every test in this file runs under; each digest must
    hold under both.

    default: the library as it is.
    cold: every step starts with no cached state. compute_overlap is given no
    previous result, and the map's goal searches are dropped before it runs.
    Gridworld.step drops its dominator chains, its blocking verdicts and the
    map's goal searches before and after the step.

    Gives the condition's name and how many calls each wrapper intercepted.
    """
    intercepted = collections.Counter()
    if request.param == "cold":
        compute_overlap, step = social.compute_overlap, Gridworld.step

        def cold_overlap(grid, positions, goals, decay=social.DEFAULT_OVERLAP_DECAY,
                         previous=None):
            intercepted["compute_overlap"] += 1
            grid._goal_cache.clear()
            return compute_overlap(grid, positions, goals, decay)

        def forget(env):
            env._chains_at, env._chains, env._verdicts, env._verdicts_before = None, [], {}, {}
            env.grid._goal_cache.clear()

        def cold_step(env, *args, **kwargs):
            intercepted["step"] += 1
            forget(env)
            outcome = step(env, *args, **kwargs)
            forget(env)
            return outcome

        monkeypatch.setattr(social, "compute_overlap", cold_overlap)
        monkeypatch.setattr(Gridworld, "step", cold_step)
    return request.param, intercepted


def assert_condition_ran(condition):
    """Under cold, at least one overlap call and one step went through the
    wrappers, so that a change to harness's call sites cannot quietly make
    cold a second default."""
    name, intercepted = condition
    if name == "cold":
        assert intercepted["compute_overlap"] > 0 and intercepted["step"] > 0, intercepted


def corridor_scenarios(p_recess, corridor_lengths, seed):
    """The scenarios train's corridor curriculum draws, in its order."""
    return (sample_corridor(p_recess, corridor_lengths, seed, k)[0] for k in itertools.count())


def golden_rollout():
    """The rollout of TRAIN_CFG's initial parameters over 60 steps."""
    cfg = L.TrainConfig.from_json(json.dumps(TRAIN_CFG))
    params = L.init_params(obs_length(cfg.env.fov, cfg.env.svo_bins), cfg.smp.hidden,
                           cfg.env.svo_bins, derive_seed(cfg.seed, 0), cfg.param_scale)
    scenarios = corridor_scenarios(cfg.p_recess, cfg.corridor_lengths, derive_seed(cfg.seed, 1))
    return L.collect_rollout(params, cfg.smp, cfg.env, scenarios, 60,
                             SplitMix64(derive_seed(cfg.seed, 2)))


def canon(x):
    """JSON-ready copy with exact integers and floats rounded to 9 decimals."""
    if isinstance(x, dict):
        return {str(k): canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return canon(x.tolist())
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return round(float(x), 9) + 0.0  # + 0.0 folds -0.0 into 0.0
    return x


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(canon(obj), sort_keys=True).encode()).hexdigest()


def run_trace(scen, policy, tmp_path, *extra):
    trace = tmp_path / f"trace-{policy.split(':')[0]}{''.join(extra)}.jsonl"
    assert cli.main(["run", "--scenario", scen, "--policy", policy, "--max-steps", "64",
                     "--trace", str(trace), *extra]) == 0
    return [json.loads(line) for line in trace.read_text().splitlines()]


def test_golden_outputs(tmp_path, capsys, condition):
    got = {}
    assert cli.main(["gen-map", "--kind", "room", "--size", "16x16", "--agents", "8",
                     "--seed", "5", "--out", str(tmp_path)]) == 0
    scen = str(tmp_path / "room-5.scen.json")
    # run's environment keeps the default blocking rewards on
    got["run_hetero_social"] = digest(run_trace(scen, "hetero", tmp_path, "--social"))
    got["run_greedy"] = digest(run_trace(scen, "greedy", tmp_path))

    for name in ("homo", "hetero"):
        res = harness.corridor_case_study(0.6, 40, name, seed=3)
        got[f"case_study_{name}"] = digest([res.per_episode_goals, res.per_kind_goals])

    batch, stats = golden_rollout()
    got["rollout_batch"] = digest([{k: getattr(batch, k) for k in batch.__dataclass_fields__},
                                   stats])

    cfg = L.TrainConfig.from_json(json.dumps(TRAIN_CFG))
    result = L.train(cfg)
    got["train"] = digest([{k: result.params[k] for k in L.PARAM_KEYS}, result.curve])

    ckpt = tmp_path / "checkpoint.json"
    L.save_checkpoint(str(ckpt), result.params, cfg)
    got["run_trained"] = digest(run_trace(scen, f"trained:{ckpt}", tmp_path))
    capsys.readouterr()
    assert got == GOLDEN
    assert_condition_ran(condition)


def test_rollout_bytes_are_golden(condition):
    """The golden rollout to the last bit: each field's dtype, shape and raw
    bytes, and the stats dict. The rollout_batch digest above rounds floats
    to 9 places; these bytes see a reordered float operation. Like the raw
    parameter bytes in test_learner, they hold for one numpy and BLAS build."""
    batch, stats = golden_rollout()
    h = hashlib.sha256()
    for k in L.RolloutBatch.__dataclass_fields__:
        v = getattr(batch, k)
        h.update(f"{k}:{v.dtype.str}:{v.shape}".encode())
        h.update(v.tobytes())
    h.update(json.dumps(stats, sort_keys=True).encode())
    assert h.hexdigest() == "edb81963034da24f86b8241b8bacf32d224abd472eebd069d6397b651e61dc3d"
    assert_condition_ran(condition)


# the five-agent follower-cycle snapshot of tests/test_cli.py
FIVE_AGENT_STATE = {
    "map": "type octile\nheight 3\nwidth 7\nmap\n.@.....\n.......\n.......\n",
    "positions": [[1, 4], [1, 1], [1, 3], [1, 2], [1, 5]],
    "intents": [3, 1, 3, 3, 3],
    "svos": [45.0, 40.0, 30.0, 20.0, 10.0],
}

# the files the commands read, written to the temporary directory first
CLI_INPUTS = {
    "speeds.json": "[1.0, 2.0, 0.5, 1.5, 1.0, 0.75]",
    "speeds-16.json": json.dumps([1.0] * 16),
    "train.json": json.dumps(TRAIN_CFG),
    "five.json": json.dumps(FIVE_AGENT_STATE),
    "a.json": "[1.0, 2.0, 3.0, 0.5]",
    "b.txt": "0.0 0.5\n1.0 -0.25\n",
}

# name: (command, with TMP for the temporary directory; its output files;
# the digest). The commands run in this order, so a later one reads what an
# earlier one wrote. The entries from gen_map_room_32 on run at larger sizes:
# 32x32 maps with 16 agents, their 256-step episodes and ADG replays, a
# 2 048-step train and a 50-episode case study.
GOLDEN_CLI = {
    "gen_map_room": (
        "gen-map --kind room --size 16x16 --agents 6 --seed 4 --out TMP",
        ["room-4.map", "room-4.scen.json"],
        "df41938680313f7c85407d9ac7f58e432be1cb8c25a8d8f8348c0d8d79ca0900"),
    "gen_map_maze": (
        "gen-map --kind maze --size 15x15 --agents 6 --seed 4 --out TMP",
        ["maze-4.map", "maze-4.scen.json"],
        "01d92f342be177d948fccb0ede6fd417449e4389224b044b8884cc958b298f0d"),
    "gen_map_random": (
        "gen-map --kind random --size 12x12 --density 0.25 --agents 6 --seed 4 --out TMP",
        ["random-4.map", "random-4.scen.json"],
        "3462752583d555dd0fb90c62bda44c1031aec02e2840448c0e74e48bb6790653"),
    "gen_map_recess": (
        "gen-map --kind recess --corridor-len 6 --seed 4 --out TMP",
        ["recess-4.map", "recess-4.scen.json"],
        "bcedf5f2f9e10007b1d96e987577c293c2a11eda55bbec3f09df009163048741"),
    "bench_room_hetero": (
        "bench --family room --size 16 --agents 6 --instances 3 --policy hetero --seed 7"
        " --out TMP/bench.json --csv TMP/bench.csv",
        ["bench.json", "bench.csv"],
        "caf2151f201a309e9ca1025c81fefdc01abe656038c77616d2a168a31ebaf092"),
    "bench_maze_greedy": (
        "bench --family maze --size 16 --agents 6 --instances 3 --policy greedy --seed 7"
        " --out TMP/bench.json --csv TMP/bench.csv",
        ["bench.json", "bench.csv"],
        "3027cfc87fa9aca88f8da0120837309bca1be8bb4a4cdcac223a1ea021501255"),
    "case_study_homo": (
        "case-study --p-recess 0.5 --episodes 24 --policy homo --seed 6", [],
        "e414c60ee59bdf1359296696939dfa6788b7748afb165e6ae345d840467db160"),
    "case_study_hetero": (
        "case-study --p-recess 0.5 --episodes 24 --policy hetero --seed 6", [],
        "0f0d4f40f06ca1249293be7d5d28731ef7de86e58293bc820209cc8467b09442"),
    "run_room_hetero": (
        "run --scenario TMP/room-4.scen.json --policy hetero --max-steps 64"
        " --trace TMP/trace.jsonl",
        ["trace.jsonl"],
        "2e4bc0749139fa438903645864797071bb1878cbacc2ddaafe5932dc3ae25033"),
    "replay_adg": (
        "replay-adg --trace TMP/trace.jsonl --speeds TMP/speeds.json --seed 3 --jitter 0.5", [],
        "9bc67de9ffc5c06bcf7800752b59c1b3df0ce76a806f76e556a336b778852e5a"),
    "train": (
        "train --config TMP/train.json --out TMP/train",
        ["train/curve.csv", "train/checkpoint.json"],
        "6e7a91cac787a832af7ad4017af06efdcf64c6e65c617a1ac0a25bdb3011c90b"),
    "gen_map_ishape": (
        "gen-map --kind ishape --corridor-len 6 --seed 4 --out TMP",
        ["ishape-4.map", "ishape-4.scen.json"],
        "ddaefa17a8a1d10fc5fcd601969d057618fd1e4a7558f044c75a8bb953abd368"),
    "resolve_five_agents": (
        "resolve --state TMP/five.json", [],
        "e6ec36da3bed8f10327ae15e84d628bc215b3e65f8288c97d39a73ad9eda056d"),
    "ttest": (
        "ttest --a TMP/a.json --b TMP/b.txt", [],
        "a5ca622a2714d11b3dfcca4ce2a8d2410ffb7d470d54712a188f7644c8f587ad"),
    "gen_map_room_32": (
        "gen-map --kind room --size 32x32 --agents 16 --seed 0 --out TMP",
        ["room-0.map", "room-0.scen.json"],
        "072fb5caffb1536b97eb9b7add41b9875ea2116af311bbfdc199dede946d1974"),
    "gen_map_random_32": (
        "gen-map --kind random --size 32x32 --agents 16 --out TMP",
        ["random-0.map", "random-0.scen.json"],
        "d55ba75a0ab5bfb80cf06a4451ac629d51bfb4a771e39eee632e6c4cab5e0de8"),
    "gen_map_maze_31": (
        "gen-map --kind maze --size 31x31 --agents 16 --out TMP",
        ["maze-0.map", "maze-0.scen.json"],
        "2c1d17f8210f3f773e07ddf82275df7b62ce0c384f8589ad4c05df6fede1d304"),
    "gen_map_recess_9": (
        "gen-map --kind recess --corridor-len 9 --out TMP",
        ["recess-0.map", "recess-0.scen.json"],
        "37589e8e237d76d2390709981c842c208e6c7bbef49de045abccc7c876e7e4ef"),
    "run_room_32_hetero_social": (
        "run --scenario TMP/room-0.scen.json --policy hetero --social --trace TMP/social.jsonl",
        ["social.jsonl"],
        "a1424f63100d34f705dffebb52fb4fbde73822aa5a0824f6297e9b40e14e4188"),
    "run_room_32_hetero": (
        "run --scenario TMP/room-0.scen.json --policy hetero --trace TMP/room.jsonl",
        ["room.jsonl"],
        "d1b1328f3818db54614835b81abd5eb11503052370634a44a4379535c9094e3a"),
    "run_random_32_greedy": (
        "run --scenario TMP/random-0.scen.json --policy greedy --trace TMP/random.jsonl",
        ["random.jsonl"],
        "da8c7cb2fda13bda0f6fe1538b6d6070e9da2f82c98be92ee5541f32b9d21fd2"),
    "bench_room_hetero_4": (
        "bench --family room --size 16 --agents 6 --instances 4 --policy hetero"
        " --out TMP/bench-room.json --csv TMP/bench-room.csv",
        ["bench-room.json", "bench-room.csv"],
        "fa66159c403177aad52cc13387e59ebf3ad4599dda369628a23d266e475540f3"),
    "bench_random_greedy_4": (
        "bench --family random --size 16 --agents 6 --instances 4 --policy greedy"
        " --out TMP/bench-random.json",
        ["bench-random.json"],
        "73711b3ea72aca16776b38797d7b45de6b05a7df744b33dd598c567db72df981"),
    "case_study_hetero_50": (
        "case-study --episodes 50 --policy hetero --seed 3", [],
        "b632d1247a1e96e4e36d4f021b8cf33fda7d9e32d0f07f1e94033ee411c52c1c"),
    "train_2048": (
        "train --steps 2048 --quiet --out TMP/train-2048",
        ["train-2048/curve.csv", "train-2048/checkpoint.json"],
        "8e947d932acaf47638965008e98a9442b1a4d0dc363647624ce493062fdc398f"),
    "run_room_32_trained": (
        "run --scenario TMP/room-0.scen.json --policy trained:TMP/train-2048/checkpoint.json"
        " --trace TMP/trained.jsonl",
        ["trained.jsonl"],
        "c2ce6b4441a0f41174792d9b47acc106054b05c41fe9f08f8aebb23982b7f721"),
    "replay_adg_room_32_social": (
        "replay-adg --trace TMP/social.jsonl --speeds TMP/speeds-16.json --jitter 0.2"
        " --out TMP/social-log.jsonl",
        ["social-log.jsonl"],
        "66e1f02cbf4dc5d5d5b7173e65c982432ac0ba6fdb419117ad00802bb47c8a50"),
    "replay_adg_room_32": (
        "replay-adg --trace TMP/room.jsonl --speeds TMP/speeds-16.json --jitter 0.2"
        " --out TMP/room-log.jsonl",
        ["room-log.jsonl"],
        "66e1f02cbf4dc5d5d5b7173e65c982432ac0ba6fdb419117ad00802bb47c8a50"),
    "replay_adg_random_32": (
        "replay-adg --trace TMP/random.jsonl --speeds TMP/speeds-16.json --jitter 0.2"
        " --out TMP/random-log.jsonl",
        ["random-log.jsonl"],
        "ef683285cae4b256dcaa789a5c95ffd07663c263fbeb8665b0475007abc9dc28"),
}


def cli_digest(command, files, tmp_path, capsys):
    """Digest of one CLI command: exit code, stdout and stderr (with the
    temporary directory masked) and the bytes of each output file. A
    checkpoint is read back through canon instead, so that its digest does
    not depend on the BLAS build; curve.csv holds only rewards and counts."""
    mask = str(tmp_path)
    code = cli.main(command.replace("TMP", mask).split())
    captured = capsys.readouterr()
    stdio = digest([code, captured.out.replace(mask, "TMP"), captured.err.replace(mask, "TMP"),
                    [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                     for f in files if not f.endswith("checkpoint.json")]])
    checkpoints = [json.loads((tmp_path / f).read_text())
                   for f in files if f.endswith("checkpoint.json")]
    return digest([stdio, *checkpoints]) if checkpoints else stdio


def test_golden_cli_outputs(tmp_path, capsys, condition):
    for name, text in CLI_INPUTS.items():
        (tmp_path / name).write_text(text)
    got = {name: cli_digest(command, files, tmp_path, capsys)
           for name, (command, files, _) in GOLDEN_CLI.items()}
    assert got == {name: pinned for name, (_, _, pinned) in GOLDEN_CLI.items()}
    assert_condition_ran(condition)
