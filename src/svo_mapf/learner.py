"""Desk-scale trainer for the two-level policy (SVO head + action head).

A single two-layer tanh network carries output blocks for action logits,
SVO logits, two value estimates (one per reward stream), and a blocking
logit. Both policy heads train with clipped surrogates whose advantages are
cross-utilized: the action ratio pairs with the SVO-stream advantage and the
SVO ratio pairs with the action-stream advantage. Supervised terms keep the
SVO stable under partner overlap, push probability mass off statically
invalid moves, and teach the blocking head. The forward and backward passes
are hand-written numpy so gradients can be checked against central finite
differences coordinate by coordinate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import social
from .gridworld import EnvConfig, Gridworld, _obstacle_plane, obs_length, observe
from .harness import episode_steps
from .inputs import check_fields, parse_json, read_dataclass, read_object
from .mapgen import CORRIDOR_LENGTHS, sample_corridor
from .pathing import ACTION_DELTAS, N_ACTIONS
from .rng import SplitMix64, derive_seed

_EPS = 1e-12

PARAM_KEYS = ("w_in", "b_in", "w_act", "b_act", "w_svo", "b_svo",
              "w_va", "b_va", "w_vs", "b_vs", "w_blk", "b_blk")


class TrainingDiverged(RuntimeError):
    """Loss or gradients went non-finite; the last good checkpoint survives."""


@dataclass
class SmpConfig:
    """Optimization hyperparameters (defaults follow the training recipe)."""

    gamma: float = 0.95
    lam: float = 0.95
    clip_eps: float = 0.2
    value_coef: float = 0.08
    policy_coef: float = 10.0
    entropy_coef: float = 0.01
    valid_coef: float = 0.5
    blocking_coef: float = 0.5
    stability_coef: float = 0.5
    learning_rate: float = 1e-5
    momentum: float = 0.9
    grad_clip: float = 10.0
    epochs: int = 10
    minibatch: int = 16
    hidden: int = 64
    normalize_advantages: bool = True

    def __post_init__(self):
        check_fields(self)
        if not (0.0 < self.gamma <= 1.0 and 0.0 <= self.lam <= 1.0):
            raise ValueError("gamma in (0,1], lam in [0,1]")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be positive")
        # a negative rate climbs the loss; a momentum of 1 never forgets a step
        if self.learning_rate < 0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for name in ("epochs", "minibatch", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def _param_shapes(obs_dim: int, hidden: int, svo_bins: int) -> dict:
    """Each tensor's shape, in PARAM_KEYS order."""
    return {"w_in": (obs_dim, hidden), "b_in": (hidden,),
            "w_act": (hidden, N_ACTIONS), "b_act": (N_ACTIONS,),
            "w_svo": (hidden, svo_bins), "b_svo": (svo_bins,),
            "w_va": (hidden,), "b_va": (1,), "w_vs": (hidden,), "b_vs": (1,),
            "w_blk": (hidden,), "b_blk": (1,)}


def init_params(obs_dim: int, hidden: int, svo_bins: int, seed: int, scale: float = 0.1) -> dict:
    """Small random parameters, drawn weight by weight in PARAM_KEYS order;
    biases start at zero."""
    rng = SplitMix64(seed)
    params = {}
    for k, shape in _param_shapes(obs_dim, hidden, svo_bins).items():
        if k.startswith("b_"):
            params[k] = np.zeros(shape)
        else:
            params[k] = rng.normals(math.prod(shape)).reshape(shape) * scale / math.sqrt(shape[0])
    return params


def params_to_vector(params: dict) -> np.ndarray:
    return np.concatenate([np.ravel(params[k]) for k in PARAM_KEYS], dtype=np.float64)


def _param_views(vec: np.ndarray, template: dict) -> dict:
    """Named views (no copies) into a flat vector laid out like params_to_vector."""
    out = {}
    offset = 0
    for k in PARAM_KEYS:
        shape = np.shape(template[k])
        size = math.prod(shape)
        out[k] = vec[offset:offset + size].reshape(shape)
        offset += size
    if offset != vec.size:
        raise ValueError("parameter vector size mismatch")
    return out


def forward(params: dict, obs: np.ndarray) -> dict:
    """Shared trunk plus the four output blocks; obs is (B, D)."""
    obs = np.atleast_2d(obs)
    hidden = np.tanh(obs @ params["w_in"] + params["b_in"])
    return {
        "hidden": hidden,
        "logits_act": hidden @ params["w_act"] + params["b_act"],
        "logits_svo": hidden @ params["w_svo"] + params["b_svo"],
        "value_act": hidden @ params["w_va"] + params["b_va"][0],
        "value_svo": hidden @ params["w_vs"] + params["b_vs"][0],
        "logit_blk": hidden @ params["w_blk"] + params["b_blk"][0],
    }


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))


def gae_advantages(rewards, values, gamma: float, lam: float, bootstrap=0.0) -> np.ndarray:
    """Generalized advantage estimates over one contiguous segment.

    delta_t = r_t + gamma * V_{t+1} - V_t with V_T = bootstrap;
    A_t = sum_k (gamma * lam)^k delta_{t+k}. Rewards and values may be (T, n):
    each column is then its own segment, bit for bit as a (T,) call on it,
    bootstrapped from a scalar or from its entry of an (n,) bootstrap.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if rewards.shape != values.shape:
        raise ValueError("rewards and values must have equal shapes")
    adv = np.zeros_like(rewards)
    running = 0.0
    next_value = bootstrap
    for t in range(len(rewards) - 1, -1, -1):
        delta = rewards[t] + gamma * next_value - values[t]
        running = delta + gamma * lam * running
        adv[t] = running
        next_value = values[t]
    return adv


@dataclass
class RolloutBatch:
    """Flattened per-(step, agent) training samples.

    The loss reads the first twelve fields; alpha and the three reward
    streams are bookkeeping that minibatches leave out.
    """

    obs: np.ndarray
    actions: np.ndarray
    svo_bins: np.ndarray
    logp_act_old: np.ndarray
    logp_svo_old: np.ndarray
    adv_action: np.ndarray
    adv_svo: np.ndarray
    ret_action: np.ndarray
    ret_svo: np.ndarray
    valid_mask: np.ndarray
    blocking_label: np.ndarray
    z_exp: np.ndarray
    alpha: np.ndarray | None = None
    reward_action: np.ndarray | None = None
    reward_svo: np.ndarray | None = None
    reward_external: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.actions)

    def minibatch(self, idx) -> "RolloutBatch":
        """The samples at idx, with only the fields the loss reads."""
        return RolloutBatch(self.obs[idx], self.actions[idx], self.svo_bins[idx],
                            self.logp_act_old[idx], self.logp_svo_old[idx],
                            self.adv_action[idx], self.adv_svo[idx],
                            self.ret_action[idx], self.ret_svo[idx],
                            self.valid_mask[idx], self.blocking_label[idx], self.z_exp[idx])


LOSS_TERMS = ("loss_pi_act", "loss_pi_svo", "mse_value_act", "mse_value_svo",
              "entropy_act", "entropy_svo", "loss_stability", "loss_valid", "loss_blocking")


def _objective(params: dict, batch: RolloutBatch, cfg: SmpConfig):
    """The forward half of the loss: the total, its nine terms (LOSS_TERMS
    order) and the intermediates the backward half reads, policy ratios
    first.

    Every mean is a sum divided by B and every negated mean a negated sum:
    the same bits as numpy's mean, in fewer calls. Raises TrainingDiverged,
    naming the terms, when the total is not finite.
    """
    fwd = forward(params, batch.obs)
    B = len(batch.actions)
    rows = np.arange(B)

    lp_act = log_softmax(fwd["logits_act"])
    lp_svo = log_softmax(fwd["logits_svo"])
    p_act = np.exp(lp_act)
    p_svo = np.exp(lp_svo)

    # Clipped surrogates. The action ratio is weighted by the SVO-stream
    # advantage and vice versa.
    ratio_act = np.exp(lp_act[rows, batch.actions] - batch.logp_act_old)
    ratio_svo = np.exp(lp_svo[rows, batch.svo_bins] - batch.logp_svo_old)
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    surr_act_raw = ratio_act * batch.adv_svo
    surr_act_clip = np.minimum(np.maximum(ratio_act, lo), hi) * batch.adv_svo
    surr_svo_raw = ratio_svo * batch.adv_action
    surr_svo_clip = np.minimum(np.maximum(ratio_svo, lo), hi) * batch.adv_action
    loss_pi_act = np.add.reduce(np.minimum(surr_act_raw, surr_act_clip)) / B
    loss_pi_svo = np.add.reduce(np.minimum(surr_svo_raw, surr_svo_clip)) / B

    err_va = fwd["value_act"] - batch.ret_action
    err_vs = fwd["value_svo"] - batch.ret_svo
    mse_va = np.add.reduce(err_va * err_va) / B
    mse_vs = np.add.reduce(err_vs * err_vs) / B

    # row sums of p log p: the negated entropies
    plogp_act = np.add.reduce(p_act * lp_act, axis=1)
    plogp_svo = np.add.reduce(p_svo * lp_svo, axis=1)
    ent_act = -np.add.reduce(plogp_act) / B
    ent_svo = -np.add.reduce(plogp_svo) / B

    # SVO stability: elementwise binary cross entropy against the blend target.
    t = batch.z_exp
    not_t = 1.0 - t
    p_eps = p_svo + _EPS
    q_eps = 1.0 - p_svo + _EPS
    stab = t * np.log(p_eps) + not_t * np.log(q_eps)
    loss_stab = -np.add.reduce(np.add.reduce(stab, axis=1)) / B

    valid_mass = np.add.reduce(p_act * batch.valid_mask, axis=1) + _EPS
    loss_valid = -np.add.reduce(np.log(valid_mass)) / B

    blk_prob = 1.0 / (1.0 + np.exp(-fwd["logit_blk"]))
    y = batch.blocking_label
    bce = y * np.log(blk_prob + _EPS) + (1.0 - y) * np.log(1.0 - blk_prob + _EPS)
    loss_blk = -np.add.reduce(bce) / B

    total = (
        -cfg.policy_coef * (loss_pi_act + loss_pi_svo)
        + cfg.value_coef * (mse_va + mse_vs)
        - cfg.entropy_coef * (ent_act + ent_svo)
        + cfg.stability_coef * loss_stab
        + cfg.valid_coef * loss_valid
        + cfg.blocking_coef * loss_blk
    )
    terms = (loss_pi_act, loss_pi_svo, mse_va, mse_vs, ent_act, ent_svo,
             loss_stab, loss_valid, loss_blk)
    if not math.isfinite(total):
        diagnostics = {name: float(value) for name, value in zip(LOSS_TERMS, terms)}
        diagnostics.update(total=float(total), ratio_act_mean=float(ratio_act.mean()),
                           ratio_svo_mean=float(ratio_svo.mean()))
        raise TrainingDiverged(f"non-finite loss; diagnostics: {diagnostics}")
    cache = (ratio_act, ratio_svo, fwd, rows, lp_act, lp_svo, p_act, p_svo,
             surr_act_raw <= surr_act_clip, surr_svo_raw <= surr_svo_clip,
             err_va, err_vs, plogp_act, plogp_svo, not_t, p_eps, q_eps, valid_mass, blk_prob)
    return float(total), terms, cache


def smp3o_loss_and_grad(params: dict, batch: RolloutBatch, cfg: SmpConfig,
                        grads: dict | None = None) -> tuple[float, dict]:
    """Total objective and its analytic parameter gradients, written into
    grads (arrays shaped like params) when given.

    total = -policy * (L_act + L_svo)                 (clipped surrogates,
                                                       cross-utilized advantages)
            + value * (mse_va + mse_vs)
            - entropy * (H_act + H_svo)
            + stability * bce(svo_dist, z_exp)
            + valid * (-log mass on valid actions)
            + blocking * bce(sigmoid(blk), label)
    """
    total, _, cache = _objective(params, batch, cfg)
    (ratio_act, ratio_svo, fwd, rows, lp_act, lp_svo, p_act, p_svo, act_pass, svo_pass,
     err_va, err_vs, plogp_act, plogp_svo, not_t, p_eps, q_eps, valid_mass, blk_prob) = cache
    B = len(rows)

    # policy surrogates: d surr / d logp(chosen) is ratio * adv on the active
    # branch. The clipped branch passes gradient only while the ratio is
    # inside the window, and there it equals the raw branch, which min keeps.
    c_pi = -cfg.policy_coef / B
    d_lp_chosen_act = c_pi * act_pass * ratio_act * batch.adv_svo
    d_lp_chosen_svo = c_pi * svo_pass * ratio_svo * batch.adv_action
    # d logp(a) / d logits = onehot(a) - p
    onehot_act = batch.actions[:, None] == np.arange(p_act.shape[1])
    onehot_svo = batch.svo_bins[:, None] == np.arange(p_svo.shape[1])
    d_logits_act = d_lp_chosen_act[:, None] * (onehot_act - p_act)
    d_logits_svo = d_lp_chosen_svo[:, None] * (onehot_svo - p_svo)

    # entropy bonus: dH/dz_k = -p_k (log p_k + H) and H = -sum_j p_j log p_j
    c_ent = cfg.entropy_coef / B
    d_logits_act += c_ent * (p_act * (lp_act - plogp_act[:, None]))
    d_logits_svo += c_ent * (p_svo * (lp_svo - plogp_svo[:, None]))

    # stability bce through softmax: dL/dz_k = p_k (g_k - sum_j p_j g_j)
    g = not_t / q_eps - batch.z_exp / p_eps
    s = np.add.reduce(p_svo * g, axis=1)
    d_logits_svo += cfg.stability_coef / B * p_svo * (g - s[:, None])

    # valid-mass loss: dL/dz_k = -p_k (m_k - q) / q
    q = valid_mass[:, None]
    d_logits_act -= cfg.valid_coef / B * (p_act * (batch.valid_mask - q) / q)

    d_va = cfg.value_coef / B * 2.0 * err_va
    d_vs = cfg.value_coef / B * 2.0 * err_vs
    d_blk = cfg.blocking_coef / B * (blk_prob - batch.blocking_label)

    hidden = fwd["hidden"]
    d_hidden = d_logits_act @ params["w_act"].T
    d_hidden += d_logits_svo @ params["w_svo"].T
    d_hidden += np.multiply.outer(d_va, params["w_va"])
    d_hidden += np.multiply.outer(d_vs, params["w_vs"])
    d_hidden += np.multiply.outer(d_blk, params["w_blk"])
    d_pre = d_hidden * (1.0 - hidden * hidden)
    if grads is None:
        grads = {k: np.empty(np.shape(params[k])) for k in PARAM_KEYS}
    hidden_t = hidden.T
    np.matmul(batch.obs.T, d_pre, out=grads["w_in"])
    np.add.reduce(d_pre, axis=0, out=grads["b_in"])
    np.matmul(hidden_t, d_logits_act, out=grads["w_act"])
    np.add.reduce(d_logits_act, axis=0, out=grads["b_act"])
    np.matmul(hidden_t, d_logits_svo, out=grads["w_svo"])
    np.add.reduce(d_logits_svo, axis=0, out=grads["b_svo"])
    for head, d_head in (("va", d_va), ("vs", d_vs), ("blk", d_blk)):
        np.matmul(hidden_t, d_head, out=grads["w_" + head])
        np.add.reduce(d_head, keepdims=True, out=grads["b_" + head])
    return total, grads


def _sample_categorical(rng: SplitMix64, probs) -> int:
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i
    return len(probs) - 1


_MOVE_ROWS = np.array([ACTION_DELTAS[a][0] for a in range(N_ACTIONS)])
_MOVE_COLS = np.array([ACTION_DELTAS[a][1] for a in range(N_ACTIONS)])


def static_valid_mask(grid, positions) -> np.ndarray:
    """(n, N_ACTIONS): 1.0 where the action's target cell is free, per agent."""
    pos = np.array(positions) + 1   # into the plane padded by one obstacle ring
    return 1.0 - _obstacle_plane(grid, 1)[pos[:, :1] + _MOVE_ROWS, pos[:, 1:] + _MOVE_COLS]


class TrainedPolicy:
    """The network's controller, one forward pass per step. With a generator
    it samples every agent's SVO bin and then every agent's action, and keeps
    the step's tensors for the rollout to record; without one it takes each
    head's argmax."""

    needs_social = True

    def __init__(self, params: dict, env_cfg: EnvConfig, rng: SplitMix64 | None = None):
        self.params = params
        self.env_cfg = env_cfg
        self.rng = rng
        self.angles = social.svo_bin_angles(env_cfg.svo_bins)

    @staticmethod
    def from_checkpoint(path: str) -> "TrainedPolicy":
        params, cfg = load_checkpoint(path)
        return TrainedPolicy(params, cfg.env)

    def env_config(self, base: EnvConfig) -> EnvConfig:
        # observation geometry must match the checkpoint; episode limits and
        # reward toggles stay with the caller
        return replace(self.env_cfg, max_episode_length=base.max_episode_length,
                       blocking_rewards=base.blocking_rewards)

    def step(self, env: Gridworld, overlap: social.OverlapResult) -> tuple[np.ndarray, np.ndarray]:
        self.obs = observe(env)
        self.out = forward(self.params, self.obs)
        if self.rng is None:
            # the raw logits: subtracting log_softmax's row constant could round two into a tie
            self.svo_bins = np.argmax(self.out["logits_svo"], axis=1)
            self.actions = np.argmax(self.out["logits_act"], axis=1).astype(np.int64)
        else:
            self.lp_act = log_softmax(self.out["logits_act"])
            self.lp_svo = log_softmax(self.out["logits_svo"])
            self.p_svo = np.exp(self.lp_svo)
            self.svo_bins = np.array([_sample_categorical(self.rng, p) for p in self.p_svo.tolist()],
                                     dtype=np.int64)
            self.actions = np.array([_sample_categorical(self.rng, p)
                                     for p in np.exp(self.lp_act).tolist()], dtype=np.int64)
            self.valid_mask = static_valid_mask(env.grid, env.positions)
        env.choose_svo(self.svo_bins)
        return self.actions, self.angles[self.svo_bins]


def collect_rollout(params: dict, cfg: SmpConfig, env_cfg: EnvConfig, scenarios,
                    min_steps: int, rng: SplitMix64) -> tuple[RolloutBatch, dict]:
    """Whole episodes until at least min_steps (>= 1) env steps are gathered,
    each on the scenario that next(scenarios) gives.

    A TrainedPolicy sampling from rng drives each episode through
    harness.episode_steps; after every step the rollout redistributes each
    agent's reward and records its stability target. Advantages use one GAE
    pass per episode per reward stream; solved episodes bootstrap
    with 0 and step-cap truncations bootstrap from the critic.
    """
    if min_steps < 1:
        raise ValueError(f"min_steps must be >= 1, got {min_steps}")
    policy = TrainedPolicy(params, env_cfg, rng)
    episodes: list[dict] = []
    stats = {"episodes": 0, "env_steps": 0, "external_reward": 0.0, "goals": 0.0, "length": 0.0}

    while stats["env_steps"] < min_steps:
        env = Gridworld(next(scenarios), env_cfg)
        n = env.n
        z_prev = np.full((n, env_cfg.svo_bins), 1.0 / env_cfg.svo_bins)
        ep: list[dict] = []   # one record per step, each holding per-agent values
        ep_external = 0.0
        for step in episode_steps(env, policy):
            rewards = step.outcome.rewards
            ep_external += float(rewards.sum())
            own, svo_deg, overlap = rewards.tolist(), step.svo_deg.tolist(), step.overlap.matrix
            split, alpha, z_exp = [], [], []
            for i, p in enumerate(env.partners.tolist()):
                split.append(social.redistribute_rewards(
                    own[i], own[p], svo_deg[i], env_cfg.svo_importance))
                a, z = social.stability_target(
                    policy.p_svo[i], z_prev[i], overlap[i, p], env_cfg.overlap_cap)
                alpha.append(a)
                z_exp.append(z)
            ep.append({
                "obs": policy.obs, "actions": policy.actions, "svo_bins": policy.svo_bins,
                "lp_act": policy.lp_act, "lp_svo": policy.lp_svo, "valid_mask": policy.valid_mask,
                "blocked": step.outcome.blocked_counts, "z_exp": z_exp, "alpha": alpha,
                "split": split, "reward_external": rewards,
                "value_action": policy.out["value_act"], "value_svo": policy.out["value_svo"],
            })
            z_prev = policy.p_svo

        # per-agent GAE over the finished episode, kept step-major. A solved
        # episode is absorbing (bootstrap 0); hitting the step cap is a
        # truncation, so the tail bootstraps from the critic's estimate of the
        # final state instead of pretending the episode ended well.
        T = env.t
        if env.on_goal().all():
            boot = {"action": 0.0, "svo": 0.0}
        else:
            final_out = forward(params, observe(env))
            boot = {"action": final_out["value_act"], "svo": final_out["value_svo"]}
        arr = {k: np.array([record[k] for record in ep]) for k in ep[0]}   # (T, n, ...)
        arr["reward_svo"], arr["reward_action"] = arr.pop("split").transpose(2, 0, 1)
        arr["logp_act_old"] = np.take_along_axis(arr.pop("lp_act"), arr["actions"][..., None], 2)[..., 0]
        arr["logp_svo_old"] = np.take_along_axis(arr.pop("lp_svo"), arr["svo_bins"][..., None], 2)[..., 0]
        arr["blocking_label"] = (arr.pop("blocked") > 0).astype(np.float64)
        for stream in ("action", "svo"):
            values = arr.pop(f"value_{stream}")
            adv = gae_advantages(arr[f"reward_{stream}"], values, cfg.gamma, cfg.lam, boot[stream])
            arr[f"adv_{stream}"] = adv
            arr[f"ret_{stream}"] = adv + values
        episodes.append({k: v.reshape(T * n, *v.shape[2:]) for k, v in arr.items()})
        stats["episodes"] += 1
        stats["env_steps"] += T
        stats["external_reward"] += ep_external
        stats["goals"] += float(env.on_goal().sum())
        stats["length"] += T

    batch = RolloutBatch(**{k: np.concatenate([e[k] for e in episodes])
                            for k in RolloutBatch.__dataclass_fields__})
    if cfg.normalize_advantages:
        for adv in (batch.adv_action, batch.adv_svo):
            mean, std = adv.mean(), adv.std()
            adv -= mean
            if std > 1e-8:
                adv /= std
    if stats["episodes"]:
        stats["goals"] /= stats["episodes"]
        stats["length"] /= stats["episodes"]
        stats["external_reward"] /= stats["episodes"]
    return batch, stats


@dataclass
class TrainConfig:
    """Full training recipe: optimization, environment, and curriculum."""

    smp: SmpConfig = field(default_factory=SmpConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    p_recess: float = 0.8
    corridor_lengths: tuple[int, int] = CORRIDOR_LENGTHS
    total_env_steps: int = 200_000
    rollout_steps: int = 1024
    seed: int = 0
    param_scale: float = 0.1

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.corridor_lengths
        # gen_corridor needs corridor_len >= 3
        if not 3 <= lo <= hi:
            raise ValueError(f"corridor_lengths must satisfy 3 <= lo <= hi, got {self.corridor_lengths}")
        if not 0 <= self.p_recess <= 1:
            raise ValueError(f"p_recess must lie in [0, 1], got {self.p_recess}")
        for name in ("total_env_steps", "rollout_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str, source: str = "config") -> "TrainConfig":
        """The recipe a JSON object describes; absent fields keep their
        defaults. A ValueError names an unknown or mistyped field, or source
        (the file) when text is not JSON."""
        return read_dataclass(parse_json(text, source), TrainConfig, "config")


def config_hash(cfg: TrainConfig) -> str:
    return hashlib.sha256(cfg.to_json().encode()).hexdigest()[:16]


def save_checkpoint(path: str, params: dict, cfg: TrainConfig) -> None:
    obj = {
        "format": 1,
        "config": asdict(cfg),
        "config_hash": config_hash(cfg),
        "params": {k: np.asarray(v).tolist() for k, v in params.items()},
    }
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def load_checkpoint(path: str) -> tuple[dict, TrainConfig]:
    """The parameters and recipe save_checkpoint wrote. A ValueError names
    the file and the key or tensor at fault: params must hold exactly
    PARAM_KEYS, each finite and shaped as init_params shapes it for the
    recipe, and config_hash must be the recipe's config_hash."""
    with open(path) as f:
        obj = read_object(parse_json(f.read(), path), path, ("format", "config", "params"),
                          ("config_hash",))
    if obj["format"] != 1:
        raise ValueError(f"{path}: unsupported checkpoint format {obj['format']!r}")
    try:
        cfg = read_dataclass(obj["config"], TrainConfig, "config")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    tensors = obj["params"]
    if not isinstance(tensors, dict):
        raise ValueError(f"{path}: params: need a JSON object, got {type(tensors).__name__}")
    unknown = sorted(set(tensors) - set(PARAM_KEYS))
    if unknown:
        raise ValueError(f"{path}: params: unknown tensor {unknown[0]!r}")
    shapes = _param_shapes(obs_length(cfg.env.fov, cfg.env.svo_bins), cfg.smp.hidden,
                           cfg.env.svo_bins)
    params = {}
    for k, shape in shapes.items():
        if k not in tensors:
            raise ValueError(f"{path}: params: missing key {k!r}")
        try:
            tensor = np.array(tensors[k])
        except ValueError:  # ragged nesting
            tensor = None
        if tensor is None or tensor.dtype.kind not in "iuf":
            raise ValueError(f"{path}: params {k}: need an array of numbers")
        if tensor.shape != shape:
            raise ValueError(f"{path}: params {k}: shape {tensor.shape}, but the config's "
                             f"network needs {shape}")
        if not np.isfinite(tensor).all():
            raise ValueError(f"{path}: params {k}: holds a value that is not finite")
        params[k] = tensor.astype(np.float64, copy=False)
    if obj.get("config_hash") != config_hash(cfg):
        raise ValueError(f"{path}: config_hash {obj.get('config_hash')!r} does not match the "
                         f"config's hash {config_hash(cfg)!r}")
    return params, cfg


@dataclass
class TrainResult:
    params: dict
    curve: list[dict]          # per-iteration {iteration, env_steps, mean_reward, goals, ep_len}
    # The iteration whose update went non-finite and why (the TrainingDiverged
    # message); training stopped there with the previous iteration's params.
    diverged_at: int | None = None
    divergence: str = ""


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale the gradients in place to a joint L2 norm of at most max_norm;
    return the norm before scaling. The norm is not finite when a gradient is
    not, or when finite gradients' squared norm overflows (they scale to 0)."""
    total = math.sqrt(sum([float(np.add.reduce(g * g, None)) for g in grads.values()]))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def train(cfg: TrainConfig, params: dict | None = None, progress=None) -> TrainResult:
    """Iterate rollout collection and minibatched momentum-SGD epochs.

    Deterministic for a fixed config and seed. The parameters train as views
    into one flat vector (a copy: the caller's arrays never change).
    Divergence (non-finite loss or gradients) aborts before the update,
    keeping the parameters from the previous iteration, and is recorded in
    the result.
    """
    smp = cfg.smp
    obs_dim = obs_length(cfg.env.fov, cfg.env.svo_bins)
    if params is None:
        params = init_params(obs_dim, smp.hidden, cfg.env.svo_bins,
                             derive_seed(cfg.seed, 0), cfg.param_scale)
    scenarios = (sample_corridor(cfg.p_recess, cfg.corridor_lengths, derive_seed(cfg.seed, 1), k)[0]
                 for k in itertools.count())
    rollout_rng = SplitMix64(derive_seed(cfg.seed, 2))
    shuffle_rng = SplitMix64(derive_seed(cfg.seed, 3))
    flat = params_to_vector(params)
    params = _param_views(flat, params)
    grad = np.empty_like(flat)
    grads = _param_views(grad, params)
    velocity = np.zeros_like(flat)
    step = np.empty_like(flat)
    curve: list[dict] = []
    env_steps = 0
    iteration = 0
    last_good = flat.copy()
    diverged_at, divergence = None, ""
    while env_steps < cfg.total_env_steps:
        batch, stats = collect_rollout(params, smp, cfg.env, scenarios,
                                       cfg.rollout_steps, rollout_rng)
        env_steps += stats["env_steps"]
        try:
            # a diverging update is reported through the result, not warned about
            with np.errstate(all="ignore"):
                for _ in range(smp.epochs):
                    order = list(range(len(batch)))
                    shuffle_rng.shuffle(order)
                    order = np.array(order)
                    for lo in range(0, len(order), smp.minibatch):
                        smp3o_loss_and_grad(params, batch.minibatch(order[lo:lo + smp.minibatch]),
                                            smp, grads)
                        norm = clip_gradients(grads, smp.grad_clip)
                        # the norm is finite exactly when every gradient is,
                        # unless finite gradients' squared norm overflowed
                        if not math.isfinite(norm) and not np.isfinite(grad).all():
                            raise TrainingDiverged("non-finite gradient")
                        velocity *= smp.momentum
                        velocity += grad
                        np.multiply(velocity, smp.learning_rate, out=step)
                        flat -= step
        except TrainingDiverged as exc:
            diverged_at, divergence = iteration + 1, str(exc)
            params = _param_views(last_good, params)
            break
        last_good = flat.copy()
        iteration += 1
        row = {
            "iteration": iteration,
            "env_steps": env_steps,
            "mean_reward": stats["external_reward"],
            "goals": stats["goals"],
            "ep_len": stats["length"],
        }
        curve.append(row)
        if progress is not None:
            progress(row)
    return TrainResult(params, curve, diverged_at, divergence)


def smoke_train_config(seed: int = 0, total_env_steps: int = 200_000) -> TrainConfig:
    """Corridor-curriculum recipe that improves measurably at desk scale.

    Overrides three SmpConfig defaults: plain momentum-SGD at the default
    1e-5 cannot outrun the idle-ward drift from wall-bump penalties within
    200k steps, so the smoke recipe raises the learning rate, strengthens the
    critics, and shortens episodes for denser finish events.
    """
    return TrainConfig(
        smp=SmpConfig(learning_rate=1e-3, value_coef=1.0, entropy_coef=0.03),
        env=EnvConfig(max_episode_length=64),
        total_env_steps=total_env_steps,
        rollout_steps=1024,
        seed=seed,
    )
