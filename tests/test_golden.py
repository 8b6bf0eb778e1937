"""Golden outputs: digests of whole episodes, rollouts and training runs.

The determinism tests elsewhere compare two runs of the same code, so they
cannot notice a change that alters outputs. These digests were recorded from
the code before the evaluation and training episode loops were merged into
one; every later change must reproduce them. Integers are hashed exactly and
floats rounded to 9 decimals, so the digests do not depend on the BLAS build.
"""

import hashlib
import json

import numpy as np

from svo_mapf import cli, harness
from svo_mapf import learner as L
from svo_mapf.gridworld import obs_length
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
        res = harness.corridor_case_study(0.6, 0.4, 40, name, seed=3)
        got[f"case_study_{name}"] = digest([res.per_episode_goals, res.per_kind_goals])

    cfg = L.TrainConfig.from_json(json.dumps(TRAIN_CFG))
    params = L.init_params(obs_length(cfg.env.fov, cfg.env.svo_bins), cfg.smp.hidden,
                           cfg.env.svo_bins, derive_seed(cfg.seed, 0), cfg.param_scale)
    sampler = L.CorridorCurriculum(cfg.p_recess, cfg.corridor_lengths, derive_seed(cfg.seed, 1))
    batch, stats = L.collect_rollout(params, cfg.smp, cfg.env, sampler, 60,
                                     SplitMix64(derive_seed(cfg.seed, 2)))
    got["rollout_batch"] = digest([{k: getattr(batch, k) for k in batch.__dataclass_fields__},
                                   stats])

    result = L.train(cfg)
    got["train"] = digest([{k: result.params[k] for k in L.PARAM_KEYS}, result.curve])

    ckpt = tmp_path / "checkpoint.json"
    L.save_checkpoint(str(ckpt), result.params, cfg)
    got["run_trained"] = digest(run_trace(scen, f"trained:{ckpt}", tmp_path))
    capsys.readouterr()
    assert got == GOLDEN
