import hashlib
import json

import numpy as np
import pytest

from svo_mapf import learner as L
from svo_mapf.gridworld import EnvConfig, obs_length
from svo_mapf.rng import SplitMix64, derive_seed
from test_golden import TRAIN_CFG, corridor_scenarios


def double_sum_gae_oracle(rewards, values, gamma, lam, bootstrap=0.0):
    """A_t = sum_k (gamma*lam)^k * delta_{t+k}, by direct double summation."""
    T = len(rewards)
    vnext = list(values[1:]) + [bootstrap]
    deltas = [rewards[t] + gamma * vnext[t] - values[t] for t in range(T)]
    return np.array([
        sum((gamma * lam) ** k * deltas[t + k] for k in range(T - t))
        for t in range(T)
    ])


class TestGae:
    def test_lambda_zero_is_one_step_td(self):
        rewards = np.array([1.0, -0.5, 2.0])
        values = np.array([0.3, 0.3, 0.3])
        adv = L.gae_advantages(rewards, values, gamma=0.9, lam=0.0, bootstrap=0.3)
        expected = rewards + 0.9 * 0.3 - 0.3
        assert np.allclose(adv, expected, atol=1e-15)

    def test_single_step_zero_value(self):
        adv = L.gae_advantages([2.5], [0.0], gamma=0.95, lam=0.95)
        assert adv[0] == pytest.approx(2.5, abs=1e-15)

    def test_matches_double_sum_oracle(self):
        rng = SplitMix64(17)
        for _ in range(20):
            T = 5
            rewards = np.array([rng.random() * 4 - 2 for _ in range(T)])
            values = np.array([rng.random() * 2 - 1 for _ in range(T)])
            adv = L.gae_advantages(rewards, values, gamma=0.95, lam=0.95)
            oracle = double_sum_gae_oracle(rewards, values, 0.95, 0.95)
            assert np.allclose(adv, oracle, atol=1e-12, rtol=0)

    def test_columns_are_independent_segments(self):
        # a (T, n) call, bootstrapped per column, is n (T,) calls byte for byte
        rng = np.random.default_rng(5)
        rewards, values, boot = rng.normal(size=(7, 3)), rng.normal(size=(7, 3)), rng.normal(size=3)
        adv = L.gae_advantages(rewards, values, 0.95, 0.9, boot)
        for i in range(3):
            column = L.gae_advantages(rewards[:, i], values[:, i], 0.95, 0.9, float(boot[i]))
            assert adv[:, i].tobytes() == column.tobytes()
        assert L.gae_advantages(rewards, values, 0.95, 0.9).tobytes() == np.stack(
            [L.gae_advantages(rewards[:, i], values[:, i], 0.95, 0.9) for i in range(3)], axis=1).tobytes()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            L.gae_advantages([1.0, 2.0], [0.0], gamma=0.9, lam=0.9)


def tiny_cfg():
    return L.SmpConfig(hidden=8)


def random_batch(seed, B=8, D=39, K=3, zero_adv=False):
    r = np.random.default_rng(seed)
    valid = (r.random((B, 5)) > 0.3).astype(float)
    valid[:, 0] = 1.0
    zexp = r.random((B, K))
    zexp /= zexp.sum(1, keepdims=True)
    adv = np.zeros(B) if zero_adv else r.normal(size=B)
    return L.RolloutBatch(
        obs=r.normal(size=(B, D)),
        actions=r.integers(0, 5, B),
        svo_bins=r.integers(0, K, B),
        logp_act_old=np.log(r.random(B) * 0.5 + 0.1),
        logp_svo_old=np.log(r.random(B) * 0.5 + 0.1),
        adv_action=adv.copy(),
        adv_svo=adv.copy() if zero_adv else r.normal(size=B),
        ret_action=r.normal(size=B),
        ret_svo=r.normal(size=B),
        valid_mask=valid,
        blocking_label=(r.random(B) > 0.5).astype(float),
        z_exp=zexp,
        alpha=r.random(B),
        reward_action=r.normal(size=B),
        reward_svo=r.normal(size=B),
        reward_external=r.normal(size=B),
    )


def batch_from_params(params, seed, B=8, D=39, K=3):
    """Old log-probs recorded from the given params, so ratios start at 1."""
    batch = random_batch(seed, B, D, K)
    out = L.forward(params, batch.obs)
    lp_act = L.log_softmax(out["logits_act"])
    lp_svo = L.log_softmax(out["logits_svo"])
    rows = np.arange(B)
    batch.logp_act_old = lp_act[rows, batch.actions]
    batch.logp_svo_old = lp_svo[rows, batch.svo_bins]
    return batch


class TestLoss:
    def test_ratio_identity_at_old_params(self):
        params = L.init_params(39, 8, 3, seed=5, scale=0.3)
        batch = batch_from_params(params, seed=9)
        _, terms, (ratio_act, ratio_svo, *_) = L._objective(params, batch, tiny_cfg())
        diag = dict(zip(L.LOSS_TERMS, terms))
        assert ratio_act.mean() == pytest.approx(1.0, abs=1e-12)
        assert ratio_svo.mean() == pytest.approx(1.0, abs=1e-12)
        assert diag["loss_pi_act"] == pytest.approx(float(batch.adv_svo.mean()), abs=1e-12)
        assert diag["loss_pi_svo"] == pytest.approx(float(batch.adv_action.mean()), abs=1e-12)

    def test_zero_advantages_reduce_to_supervised_terms(self):
        params = L.init_params(39, 8, 3, seed=6, scale=0.3)
        batch = random_batch(11, zero_adv=True)
        cfg = tiny_cfg()
        total, terms, _ = L._objective(params, batch, cfg)
        diag = dict(zip(L.LOSS_TERMS, terms))
        assert diag["loss_pi_act"] == 0.0 and diag["loss_pi_svo"] == 0.0
        expected = (cfg.value_coef * (diag["mse_value_act"] + diag["mse_value_svo"])
                    - cfg.entropy_coef * (diag["entropy_act"] + diag["entropy_svo"])
                    + cfg.stability_coef * diag["loss_stability"]
                    + cfg.valid_coef * diag["loss_valid"]
                    + cfg.blocking_coef * diag["loss_blocking"])
        assert total == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        cfg = tiny_cfg()
        rng = SplitMix64(404)
        for trial in range(4):
            params = L.init_params(39, 8, 3, seed=rng.next_u64(), scale=0.5)
            batch = random_batch(1000 + trial)
            _, grads = L.smp3o_loss_and_grad(params, batch, cfg)
            vec = L.params_to_vector(params)
            gvec = L.params_to_vector(grads)
            h = 1e-6
            for i in range(0, len(vec), 7):  # stride keeps the module test quick
                vp, vm = vec.copy(), vec.copy()
                vp[i] += h
                vm[i] -= h
                lp = L.smp3o_loss_and_grad(L._param_views(vp, params), batch, cfg)[0]
                lm = L.smp3o_loss_and_grad(L._param_views(vm, params), batch, cfg)[0]
                num = (lp - lm) / (2 * h)
                rel = abs(gvec[i] - num) / max(abs(gvec[i]) + abs(num), 1e-6)
                assert rel < 1e-4, f"coordinate {i}: analytic {gvec[i]} vs numeric {num}"

    def test_clipped_surrogate_bound(self):
        cfg = tiny_cfg()
        rng = SplitMix64(777)
        for _ in range(10):
            params = L.init_params(39, 8, 3, seed=rng.next_u64(), scale=1.0)
            batch = random_batch(rng.next_u64() % 2**32)
            out = L.forward(params, batch.obs)
            rows = np.arange(len(batch))
            ratio = np.exp(L.log_softmax(out["logits_act"])[rows, batch.actions] - batch.logp_act_old)
            surr = np.minimum(ratio * batch.adv_svo,
                              np.clip(ratio, 0.8, 1.2) * batch.adv_svo)
            assert (surr <= (1 + cfg.clip_eps) * np.abs(batch.adv_svo) + 1e-12).all()

    def test_probability_heads_normalize(self):
        params = L.init_params(39, 8, 3, seed=3, scale=2.0)
        batch = random_batch(21)
        out = L.forward(params, batch.obs)
        p_act = np.exp(L.log_softmax(out["logits_act"]))
        p_svo = np.exp(L.log_softmax(out["logits_svo"]))
        assert np.allclose(p_act.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(p_svo.sum(axis=1), 1.0, atol=1e-9)

    def test_non_finite_loss_raises(self):
        params = L.init_params(39, 8, 3, seed=3)
        params["w_in"][0, 0] = np.nan
        with pytest.raises(L.TrainingDiverged):
            L.smp3o_loss_and_grad(params, random_batch(2), tiny_cfg())

    def test_stability_dominant_training_converges_to_target(self):
        # with a huge stability weight, gradient steps on a frozen batch pull
        # the SVO head toward z_exp: cross-entropy decreases monotonically
        cfg = L.SmpConfig(hidden=8, stability_coef=500.0, policy_coef=0.0,
                          value_coef=0.0, entropy_coef=0.0, valid_coef=0.0,
                          blocking_coef=0.0, learning_rate=1e-4, momentum=0.0)
        params = L.init_params(39, 8, 3, seed=12, scale=0.3)
        batch = random_batch(31, B=4)
        batch.z_exp = np.tile(np.array([0.7, 0.2, 0.1]), (4, 1))

        def kl_to_target():
            p = np.exp(L.log_softmax(L.forward(params, batch.obs)["logits_svo"]))
            t = batch.z_exp
            return float((t * (np.log(t) - np.log(p))).sum(axis=1).mean())

        history = [kl_to_target()]
        for _ in range(60):
            _, grads = L.smp3o_loss_and_grad(params, batch, cfg)
            for k in params:
                params[k] = params[k] - cfg.learning_rate * grads[k]
            history.append(kl_to_target())
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert history[-1] < 0.25 * history[0]


class TestRollout:
    def test_deterministic_batch(self):
        cfg = L.SmpConfig(hidden=8)
        env_cfg = EnvConfig(fov=5, svo_bins=3, max_episode_length=40)
        params = L.init_params(obs_length(5, 3), 8, 3, seed=1)

        def collect():
            scenarios = corridor_scenarios(0.8, (5, 8), seed=4)
            return L.collect_rollout(params, cfg, env_cfg, scenarios, 30, SplitMix64(9))

        a, _ = collect()
        b, _ = collect()
        for key in a.__dataclass_fields__:
            assert np.array_equal(getattr(a, key), getattr(b, key)), key

    def test_action_reward_is_passthrough_at_zero_svo(self):
        cfg = L.SmpConfig(hidden=8)
        env_cfg = EnvConfig(fov=5, svo_bins=3, max_episode_length=64)
        params = L.init_params(obs_length(5, 3), 8, 3, seed=2)
        params["b_svo"][:] = np.array([50.0, -50.0, -50.0])  # force bin 0 (Z = 0)
        scenarios = corridor_scenarios(0.8, (5, 8), seed=6)
        batch, _ = L.collect_rollout(params, cfg, env_cfg, scenarios, 64, SplitMix64(5))
        assert (batch.svo_bins == 0).all()
        assert np.allclose(batch.reward_action, batch.reward_external, atol=1e-12)

    def test_advantages_match_replay_oracle(self):
        # interior steps obey A_t = delta_t + gamma*lam*A_{t+1} regardless of
        # the terminal bootstrap (truncated episodes bootstrap from the critic)
        cfg = L.SmpConfig(hidden=8, normalize_advantages=False)
        env_cfg = EnvConfig(fov=5, svo_bins=3, max_episode_length=24)
        params = L.init_params(obs_length(5, 3), 8, 3, seed=3)
        scenarios = corridor_scenarios(0.8, (5, 6), seed=8)
        batch, stats = L.collect_rollout(params, cfg, env_cfg, scenarios, 1, SplitMix64(7))
        assert stats["episodes"] == 1
        n = 2
        T = len(batch) // n
        assert T >= 3
        for agent in range(n):
            idx = [t * n + agent for t in range(T)]
            adv = batch.adv_action[idx]
            rewards = batch.reward_action[idx]
            values = batch.ret_action[idx] - adv
            for t in range(T - 1):
                delta = rewards[t] + cfg.gamma * values[t + 1] - values[t]
                assert adv[t] == pytest.approx(delta + cfg.gamma * cfg.lam * adv[t + 1], abs=1e-10)
            # same recurrence holds for the team-reward stream
            adv_s = batch.adv_svo[idx]
            values_s = batch.ret_svo[idx] - adv_s
            rewards_s = batch.reward_svo[idx]
            for t in range(T - 1):
                delta = rewards_s[t] + cfg.gamma * values_s[t + 1] - values_s[t]
                assert adv_s[t] == pytest.approx(delta + cfg.gamma * cfg.lam * adv_s[t + 1], abs=1e-10)

    @pytest.mark.parametrize("min_steps", [0, -3])
    def test_min_steps_below_one_is_refused(self, min_steps):
        # no episode would be gathered, and an empty batch is not a rollout
        params = L.init_params(obs_length(5, 3), 8, 3, seed=1)
        with pytest.raises(ValueError, match=rf"^min_steps must be >= 1, got {min_steps}$"):
            L.collect_rollout(params, L.SmpConfig(hidden=8), EnvConfig(fov=5, svo_bins=3),
                              corridor_scenarios(0.8, (5, 8), seed=4), min_steps, SplitMix64(9))


class TestTraining:
    def test_zero_learning_rate_is_noop(self):
        cfg = L.TrainConfig(
            smp=L.SmpConfig(hidden=8, learning_rate=0.0, epochs=2, minibatch=8),
            env=EnvConfig(fov=5, svo_bins=3, max_episode_length=24),
            total_env_steps=40, rollout_steps=20, seed=5,
        )
        before = L.init_params(obs_length(5, 3), 8, 3, seed=99)
        result = L.train(cfg, params={k: v.copy() for k, v in before.items()})
        for k in before:
            assert np.array_equal(result.params[k], before[k])

    def test_checkpoint_roundtrip_identical(self, tmp_path):
        cfg = L.TrainConfig(
            smp=L.SmpConfig(hidden=8, epochs=1, minibatch=8),
            env=EnvConfig(fov=5, svo_bins=3, max_episode_length=24),
            total_env_steps=30, rollout_steps=15, seed=6,
        )
        result = L.train(cfg)
        path = tmp_path / "ckpt.json"
        L.save_checkpoint(str(path), result.params, cfg)
        loaded, loaded_cfg = L.load_checkpoint(str(path))
        for k in result.params:
            assert np.array_equal(loaded[k], result.params[k])
        assert L.config_hash(loaded_cfg) == L.config_hash(cfg)
        batch = random_batch(50, D=obs_length(5, 3), K=3)
        a = L.smp3o_loss_and_grad(result.params, batch, cfg.smp)[0]
        b = L.smp3o_loss_and_grad(loaded, batch, cfg.smp)[0]
        assert a == b

    def test_training_is_deterministic(self):
        def run():
            cfg = L.TrainConfig(
                smp=L.SmpConfig(hidden=8, epochs=2, minibatch=8, learning_rate=1e-4),
                env=EnvConfig(fov=5, svo_bins=3, max_episode_length=24),
                total_env_steps=60, rollout_steps=20, seed=7,
            )
            return L.train(cfg)

        a, b = run(), run()
        assert a.curve == b.curve
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_gradient_clipping(self):
        grads = {"w": np.full(4, 10.0)}
        norm = L.clip_gradients(grads, max_norm=10.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(grads["w"]) == pytest.approx(10.0)


def test_checkpoint_reload_identical_evaluation(tmp_path):
    from svo_mapf import harness, mapgen

    cfg = L.TrainConfig(
        smp=L.SmpConfig(hidden=8, epochs=1, minibatch=8, learning_rate=1e-4),
        env=EnvConfig(fov=5, svo_bins=3, max_episode_length=32),
        total_env_steps=40, rollout_steps=20, seed=8,
    )
    result = L.train(cfg)
    path = tmp_path / "ckpt.json"
    L.save_checkpoint(str(path), result.params, cfg)
    scn = mapgen.gen_corridor("i_shape", 5, seed=2)
    before = harness.run_episode(
        scn, L.TrainedPolicy(result.params, cfg.env),
        EnvConfig(max_episode_length=32, blocking_rewards=False))
    after = harness.run_episode(
        scn, L.TrainedPolicy.from_checkpoint(str(path)),
        EnvConfig(max_episode_length=32, blocking_rewards=False))
    assert before.metrics == after.metrics
    assert before.paths == after.paths


def small_train_cfg(**smp):
    return L.TrainConfig(
        smp=L.SmpConfig(hidden=8, epochs=1, minibatch=8, **smp),
        env=EnvConfig(fov=5, svo_bins=3, max_episode_length=24),
        total_env_steps=30, rollout_steps=15, seed=2,
    )


def raw_digest(params) -> str:
    h = hashlib.sha256()
    for k in L.PARAM_KEYS:
        h.update(np.ascontiguousarray(params[k], dtype=np.float64).tobytes())
    return h.hexdigest()


# A run whose gradients clip on most minibatches, with a last minibatch
# shorter than the rest and a descent window wider than the field of view.
CLIPPED_TRAIN_CFG = {"smp": {"hidden": 16, "epochs": 3, "minibatch": 7, "learning_rate": 1e-3},
                     "env": {"fov": 3, "svo_bins": 4, "max_episode_length": 32,
                             "fov_heuristic": 7},
                     "total_env_steps": 300, "rollout_steps": 100, "seed": 11}


@pytest.mark.parametrize("cfg, want", [
    (TRAIN_CFG, "6e52695016c8bc91bdc86ca088bdc56ea6795c4ad28af19fd798d6d445887ea5"),
    (CLIPPED_TRAIN_CFG, "61da4d3325f5edd6ffae3359c1e5788113205d2763160e1ed3c5c56c6ec8a31a"),
], ids=["train-cfg", "clipped"])
def test_trained_parameter_bytes_are_golden(cfg, want):
    """Trained parameters to the last bit, recorded before the minibatch loop
    and the observation were rewritten. test_golden rounds floats to 9
    places, so it cannot see a reordered float operation; these raw bytes
    can. They hold for one numpy and BLAS build (numpy 2.4, OpenBLAS 0.3.31
    here) and may move on another."""
    result = L.train(L.TrainConfig.from_json(json.dumps(cfg)))
    assert raw_digest(result.params) == want


@pytest.mark.parametrize("seed, want", [
    (0, "585e5e4845a7efcf75225caf5475ef202a5295025c4eafca0c78ae062c74c475"),
    (3, "04e803d13e5c550dca4b4b7488d27518b7a855a92d9bc17b4a966d031ab29638"),
])
def test_initial_parameter_bytes_are_golden(seed, want):
    """The default network's initial weights to the last bit, recorded while
    each weight was one SplitMix64.normal() call."""
    assert raw_digest(L.init_params(259, 64, 5, seed, 0.1)) == want


def test_train_leaves_the_callers_arrays_alone():
    cfg = small_train_cfg(learning_rate=1e-2)
    params = L.init_params(obs_length(5, 3), 8, 3, seed=99)
    given = dict(params)
    before = {k: v.copy() for k, v in params.items()}
    result = L.train(cfg, params)
    assert params.keys() == given.keys()
    assert all(params[k] is given[k] for k in given)  # the same arrays under the same keys
    for k in before:
        assert np.array_equal(params[k], before[k])
        assert not np.shares_memory(result.params[k], params[k])
    assert not np.array_equal(result.params["w_in"], before["w_in"])


def _patched_loss(monkeypatch, poison):
    """Let poison(call, grads) edit the gradients of each minibatch; record a
    copy of the parameters each call saw and the live parameter dict."""
    real = L.smp3o_loss_and_grad
    seen = []

    def loss(params, batch, cfg, grads=None):
        total, grads = real(params, batch, cfg, grads)
        seen.append((params, {k: v.copy() for k, v in params.items()}))
        poison(len(seen), grads)
        return total, grads

    monkeypatch.setattr(L, "smp3o_loss_and_grad", loss)
    return seen


def test_nan_gradient_stops_training_before_the_update(monkeypatch):
    def poison(call, grads):
        if call == 2:
            grads["b_blk"][0] = np.nan

    seen = _patched_loss(monkeypatch, poison)
    result = L.train(small_train_cfg(learning_rate=1e-2))
    assert len(seen) == 2
    assert result.diverged_at == 1 and result.divergence == "non-finite gradient"
    assert result.curve == []
    live, at_nan = seen[-1]
    first = seen[0][1]
    # the first minibatch moved the parameters; the poisoned one did not
    assert not np.array_equal(at_nan["w_in"], first["w_in"])
    for k in L.PARAM_KEYS:
        assert np.array_equal(live[k], at_nan[k]), k
        assert np.array_equal(result.params[k], first[k]), k  # iteration 0's parameters


def test_overflowing_gradient_norm_clips_to_a_zero_update(monkeypatch):
    # finite gradients whose squared norm overflows: the norm reads inf, the
    # clip scale max_norm / inf is 0 and momentum carries the step alone
    def poison(call, grads):
        if call == 1:
            for g in grads.values():
                g[...] = 1e200

    seen = _patched_loss(monkeypatch, poison)
    cfg = small_train_cfg(learning_rate=1e-2)
    start = L.init_params(obs_length(5, 3), 8, 3, derive_seed(cfg.seed, 0), cfg.param_scale)
    result = L.train(cfg)
    assert result.diverged_at is None and len(result.curve) == 2
    assert len(seen) > 2
    for k in L.PARAM_KEYS:
        assert np.array_equal(seen[1][1][k], start[k]), k  # the first step moved nothing
    grads = {"w": np.full(3, 1e200), "b": np.array([-1e200])}
    with np.errstate(over="ignore"):
        assert L.clip_gradients(grads, 10.0) == np.inf
    assert grads["w"].tolist() == [0.0] * 3 and grads["b"].tolist() == [0.0]


def test_diverging_run_records_the_iteration_and_the_loss_terms():
    from test_cli import DIVERGING_TRAIN_CFG

    result = L.train(L.TrainConfig.from_json(json.dumps(DIVERGING_TRAIN_CFG)))
    assert result.diverged_at == 3 and len(result.curve) == 2
    assert result.divergence.startswith("non-finite loss; diagnostics: {")
    for name in L.LOSS_TERMS + ("total", "ratio_act_mean", "ratio_svo_mean"):
        assert f"'{name}': " in result.divergence


def test_gradients_written_into_given_arrays_match_fresh_ones():
    params = L.init_params(39, 8, 3, seed=5, scale=0.5)
    batch = random_batch(3)
    total, fresh = L.smp3o_loss_and_grad(params, batch, tiny_cfg())
    out = {k: np.full_like(v, np.nan) for k, v in params.items()}
    total_out, written = L.smp3o_loss_and_grad(params, batch, tiny_cfg(), out)
    assert total_out == total and written is out
    for k in L.PARAM_KEYS:
        assert fresh[k].tobytes() == out[k].tobytes(), k


def test_minibatch_takes_the_loss_fields():
    batch = random_batch(4, B=10)
    idx = np.array([7, 2, 2, 9])
    mb = batch.minibatch(idx)
    assert len(mb) == 4
    fields = list(L.RolloutBatch.__dataclass_fields__)
    for k in fields[:12]:
        assert np.array_equal(getattr(mb, k), getattr(batch, k)[idx]), k
    assert all(getattr(mb, k) is None for k in fields[12:])
    total = L.smp3o_loss_and_grad(L.init_params(39, 8, 3, seed=1), mb, tiny_cfg())[0]
    assert np.isfinite(total)
