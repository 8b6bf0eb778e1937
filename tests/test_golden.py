"""Golden outputs: digests of whole episodes, rollouts and training runs.

The determinism tests elsewhere compare two runs of the same code, so they
cannot notice a change that alters outputs. These digests were recorded from
the code before the evaluation and training episode loops were merged into
one; the CLI digests (gen-map, bench with its CSV, case-study, run and
replay-adg, stdout and stderr included) were recorded before the four
descent loops became one helper, and the CLI `train` digest (its stdout,
stderr, curve.csv and checkpoint) before the two greedy steps became one.
Every later change must reproduce them.
Integers are hashed exactly and floats rounded to 9 decimals, so the digests
do not depend on the BLAS build.
"""

import hashlib
import itertools
import json

import numpy as np

from svo_mapf import cli, harness
from svo_mapf import learner as L
from svo_mapf.gridworld import obs_length
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


def test_golden_outputs(tmp_path, capsys):
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


def test_rollout_bytes_are_golden():
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


def cli_digest(args, tmp_path, capsys, *files):
    """Digest of one CLI command: exit code, stdout and stderr (with the
    temporary directory masked) and the bytes of each named output file."""
    code = cli.main(args)
    captured = capsys.readouterr()
    mask = str(tmp_path)
    return digest([code, captured.out.replace(mask, "TMP"), captured.err.replace(mask, "TMP"),
                   [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in files]])


GOLDEN_CLI = {
    "gen_map_room":
        "df41938680313f7c85407d9ac7f58e432be1cb8c25a8d8f8348c0d8d79ca0900",
    "gen_map_maze":
        "01d92f342be177d948fccb0ede6fd417449e4389224b044b8884cc958b298f0d",
    "gen_map_random":
        "3462752583d555dd0fb90c62bda44c1031aec02e2840448c0e74e48bb6790653",
    "gen_map_recess":
        "bcedf5f2f9e10007b1d96e987577c293c2a11eda55bbec3f09df009163048741",
    "bench_room_hetero":
        "caf2151f201a309e9ca1025c81fefdc01abe656038c77616d2a168a31ebaf092",
    "bench_maze_greedy":
        "3027cfc87fa9aca88f8da0120837309bca1be8bb4a4cdcac223a1ea021501255",
    "case_study_homo":
        "e414c60ee59bdf1359296696939dfa6788b7748afb165e6ae345d840467db160",
    "case_study_hetero":
        "0f0d4f40f06ca1249293be7d5d28731ef7de86e58293bc820209cc8467b09442",
    "run_room_hetero":
        "2e4bc0749139fa438903645864797071bb1878cbacc2ddaafe5932dc3ae25033",
    "replay_adg":
        "9bc67de9ffc5c06bcf7800752b59c1b3df0ce76a806f76e556a336b778852e5a",
    "train":
        "6e7a91cac787a832af7ad4017af06efdcf64c6e65c617a1ac0a25bdb3011c90b",
}


def test_golden_cli_outputs(tmp_path, capsys):
    got = {}
    for kind, extra in (("room", ["--size", "16x16", "--agents", "6"]),
                        ("maze", ["--size", "15x15", "--agents", "6"]),
                        ("random", ["--size", "12x12", "--density", "0.25", "--agents", "6"]),
                        ("recess", ["--corridor-len", "6"])):
        got[f"gen_map_{kind}"] = cli_digest(
            ["gen-map", "--kind", kind, *extra, "--seed", "4", "--out", str(tmp_path)],
            tmp_path, capsys, f"{kind}-4.map", f"{kind}-4.scen.json")

    for family, policy in (("room", "hetero"), ("maze", "greedy")):
        got[f"bench_{family}_{policy}"] = cli_digest(
            ["bench", "--family", family, "--size", "16", "--agents", "6", "--instances", "3",
             "--policy", policy, "--seed", "7", "--out", str(tmp_path / "bench.json"),
             "--csv", str(tmp_path / "bench.csv")],
            tmp_path, capsys, "bench.json", "bench.csv")

    for policy in ("homo", "hetero"):
        got[f"case_study_{policy}"] = cli_digest(
            ["case-study", "--p-recess", "0.5", "--episodes", "24", "--policy", policy,
             "--seed", "6"], tmp_path, capsys)

    got["run_room_hetero"] = cli_digest(
        ["run", "--scenario", str(tmp_path / "room-4.scen.json"), "--policy", "hetero",
         "--max-steps", "64", "--trace", str(tmp_path / "trace.jsonl")],
        tmp_path, capsys, "trace.jsonl")
    (tmp_path / "speeds.json").write_text("[1.0, 2.0, 0.5, 1.5, 1.0, 0.75]")
    got["replay_adg"] = cli_digest(
        ["replay-adg", "--trace", str(tmp_path / "trace.jsonl"),
         "--speeds", str(tmp_path / "speeds.json"), "--seed", "3", "--jitter", "0.5"],
        tmp_path, capsys)

    # the checkpoint is read back through canon, so that its digest does not
    # depend on the BLAS build; curve.csv holds only rewards and counts
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_CFG))
    stdio = cli_digest(["train", "--config", str(tmp_path / "train.json"),
                        "--out", str(tmp_path / "train")], tmp_path, capsys, "train/curve.csv")
    checkpoint = json.loads((tmp_path / "train" / "checkpoint.json").read_text())
    got["train"] = digest([stdio, checkpoint])
    assert got == GOLDEN_CLI
