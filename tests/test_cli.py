import json
import math
import os

import pytest

from svo_mapf import cli, learner
from svo_mapf.gridworld import obs_length


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


class TestGenMap:
    def test_generates_and_reruns_identically(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code, _ = run_cli(["gen-map", "--kind", "random", "--size", "12x12",
                               "--density", "0.2", "--agents", "4", "--seed", "7",
                               "--out", str(out)], capsys)
            assert code == 0
        assert read_bytes(out_a / "random-7.map") == read_bytes(out_b / "random-7.map")
        assert read_bytes(out_a / "random-7.scen.json") == read_bytes(out_b / "random-7.scen.json")

    def test_corridor_kinds(self, tmp_path, capsys):
        for kind in ("recess", "ishape"):
            code, out = run_cli(["gen-map", "--kind", kind, "--corridor-len", "6",
                                 "--seed", "3", "--out", str(tmp_path / kind)], capsys)
            assert code == 0
            assert json.loads(out.splitlines()[-1])["agents"] == 2


class TestRunAndReplay:
    @pytest.fixture()
    def scenario_path(self, tmp_path, capsys):
        run_cli(["gen-map", "--kind", "random", "--size", "10x10", "--density", "0.15",
                 "--agents", "3", "--seed", "5", "--out", str(tmp_path)], capsys)
        return str(tmp_path / "random-5.scen.json")

    def test_run_writes_trace_and_metrics(self, scenario_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code, out = run_cli(["run", "--scenario", scenario_path, "--policy", "greedy",
                             "--max-steps", "64", "--trace", str(trace)], capsys)
        assert code == 0
        metrics = json.loads(out.splitlines()[-1])
        assert set(metrics) >= {"success", "episode_length", "arrival_rate", "goals_reached"}
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines[0]["t"] == 0 and lines[0]["actions"] is None
        assert "metrics" in lines[-1]
        assert len(lines) == metrics["episode_length"] + 2

    def test_run_deterministic(self, scenario_path, tmp_path, capsys):
        traces = []
        for name in ("t1.jsonl", "t2.jsonl"):
            path = tmp_path / name
            run_cli(["run", "--scenario", scenario_path, "--policy", "scripted",
                     "--max-steps", "64", "--trace", str(path)], capsys)
            traces.append(read_bytes(path))
        assert traces[0] == traces[1]

    def test_replay_adg(self, scenario_path, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        run_cli(["run", "--scenario", scenario_path, "--policy", "greedy",
                 "--max-steps", "64", "--trace", str(trace)], capsys)
        speeds = tmp_path / "speeds.json"
        speeds.write_text("[1.0, 2.0, 0.5]")
        log_a = tmp_path / "log_a.jsonl"
        log_b = tmp_path / "log_b.jsonl"
        for log in (log_a, log_b):
            code, _ = run_cli(["replay-adg", "--trace", str(trace), "--speeds", str(speeds),
                               "--seed", "2", "--jitter", "0.5", "--out", str(log)], capsys)
            assert code == 0
        assert read_bytes(log_a) == read_bytes(log_b)
        events = [json.loads(l) for l in log_a.read_text().splitlines()]
        assert {e["transition"] for e in events} == {"ENQUEUED", "DONE"}


def test_resolve_snapshot(tmp_path, capsys):
    state = {
        "map": "type octile\nheight 3\nwidth 4\nmap\n....\n....\n....\n",
        "positions": [[1, 1], [1, 2]],
        "intents": [4, 3],
        "svos": [45.0, 0.0],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    code, out = run_cli(["resolve", "--state", str(path)], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["actions"] == [0, 0]
    assert result["penalties"] == [-2.0, 0.0]


def test_resolve_reads_the_map_path_beside_the_snapshot(tmp_path, capsys, monkeypatch):
    # the snapshot names its map by a path relative to the snapshot's own
    # directory, as a scenario does, whatever the current directory
    snap_dir, elsewhere = tmp_path / "snap", tmp_path / "elsewhere"
    snap_dir.mkdir()
    elsewhere.mkdir()
    (snap_dir / "room.map").write_text("type octile\nheight 3\nwidth 4\nmap\n....\n....\n....\n")
    state = {"map": "room.map", "positions": [[1, 1], [1, 2]], "intents": [4, 3],
             "svos": [45.0, 0.0]}
    (snap_dir / "snap.json").write_text(json.dumps(state))
    monkeypatch.chdir(elsewhere)
    code, out = run_cli(["resolve", "--state", str(snap_dir / "snap.json")], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[-1])["actions"] == [0, 0]


def test_bench_byte_identical(tmp_path, capsys):
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code, _ = run_cli(["bench", "--family", "random", "--size", "10",
                           "--density", "0.15", "--agents", "3", "--instances", "4",
                           "--policy", "greedy", "--seed", "9", "--out", str(out)], capsys)
        assert code == 0
        reports.append(read_bytes(out))
    assert reports[0] == reports[1]
    assert b"wall_time" not in reports[0]


def test_ttest_files(tmp_path, capsys):
    (tmp_path / "a.json").write_text("[1.0, 2.0, 3.0]")
    (tmp_path / "b.json").write_text("[0.0, 0.0, 0.0]")
    code, out = run_cli(["ttest", "--a", str(tmp_path / "a.json"),
                         "--b", str(tmp_path / "b.json")], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["t"] == pytest.approx(3.4641016151377544, abs=1e-12)
    assert result["df"] == 2


def test_case_study_command(capsys):
    code, out = run_cli(["case-study", "--p-recess", "0.8", "--episodes", "20",
                         "--policy", "hetero", "--seed", "4"], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["mean_goals"] == 2.0


def _no_nan(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("p_recess, empty", [("1.0", "i_shape"), ("0.0", "recess"), ("0.5", None)])
def test_case_study_prints_strict_json(p_recess, empty, capsys):
    # a kind that no episode drew has no mean: null, never NaN
    code, out = run_cli(["case-study", "--p-recess", p_recess, "--episodes", "6",
                         "--policy", "hetero", "--seed", "2"], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[-1], parse_constant=_no_nan)
    for kind in ("recess", "i_shape"):
        if kind == empty:
            assert result[f"{kind}_episodes"] == 0 and result[f"{kind}_mean"] is None
        else:
            assert result[f"{kind}_episodes"] > 0 and result[f"{kind}_mean"] == 2.0
    assert result["mean_goals"] == 2.0


def test_train_command_and_checkpoint_runs(tmp_path, capsys):
    cfg = {
        "smp": {"hidden": 8, "epochs": 1, "minibatch": 8, "learning_rate": 1e-4},
        "env": {"fov": 5, "svo_bins": 3, "max_episode_length": 24},
        "total_env_steps": 40,
        "rollout_steps": 20,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "run"
    code, out = run_cli(["train", "--config", str(cfg_path), "--quiet",
                         "--out", str(out_dir)], capsys)
    assert code == 0
    info = json.loads(out.splitlines()[-1])
    assert os.path.exists(info["checkpoint"])
    assert os.path.exists(info["curve"])
    with open(info["curve"]) as f:
        header = f.readline().strip()
    assert header == "iteration,env_steps,mean_reward,goals,ep_len"
    # the checkpoint drives the run command
    scn_dir = tmp_path / "scn"
    run_cli(["gen-map", "--kind", "ishape", "--corridor-len", "4", "--seed", "1",
             "--out", str(scn_dir)], capsys)
    code, out = run_cli(["run", "--scenario", str(scn_dir / "ishape-1.scen.json"),
                         "--policy", f"trained:{info['checkpoint']}",
                         "--max-steps", "32"], capsys)
    assert code == 0
    assert "episode_length" in json.loads(out.splitlines()[-1])


def test_run_social_trace_flag(tmp_path, capsys):
    run_cli(["gen-map", "--kind", "ishape", "--corridor-len", "4", "--seed", "2",
             "--out", str(tmp_path)], capsys)
    trace = tmp_path / "social.jsonl"
    code, _ = run_cli(["run", "--scenario", str(tmp_path / "ishape-2.scen.json"),
                       "--policy", "hetero", "--max-steps", "64", "--social",
                       "--trace", str(trace)], capsys)
    assert code == 0
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    step = lines[1]
    assert "overlap" in step and "fixed_partners" in step
    assert len(step["overlap"]) == 2 and len(step["overlap"][0]) == 2
    assert step["overlap"][0][1] > 0  # head-on conflict visible at t=1


def test_bench_csv_export(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code, _ = run_cli(["bench", "--family", "random", "--size", "10",
                       "--density", "0.1", "--agents", "2", "--instances", "3",
                       "--policy", "greedy", "--seed", "1", "--out", str(out),
                       "--csv", str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "instance,success,episode_length,arrival_rate,goals_reached,collisions_prevented"
    assert len(lines) == 4


def test_resolve_five_agent_fixture_via_cli(tmp_path, capsys):
    """The follower-cycle regression fixture through the debug interface."""
    state = {
        "map": "type octile\nheight 3\nwidth 7\nmap\n.@.....\n.......\n.......\n",
        "positions": [[1, 4], [1, 1], [1, 3], [1, 2], [1, 5]],
        "intents": [3, 1, 3, 3, 3],
        "svos": [45.0, 40.0, 30.0, 20.0, 10.0],
    }
    path = tmp_path / "five.json"
    path.write_text(json.dumps(state))
    code, out = run_cli(["resolve", "--state", str(path)], capsys)
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    assert result["actions"] == [0, 0, 0, 0, 0]
    assert [i for i, p in enumerate(result["penalties"]) if p == -2.0] == [0, 1, 2]
    assert result["iterations"] == 8


def _train_config(value):
    """train args for a config file holding the given JSON value."""
    def make_args(tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(value))
        return ["train", "--config", "cfg.json", "--quiet", "--out", "out"]
    return make_args


def _replay(records, speeds, *options):
    """replay-adg args for a trace of the given position records and a speeds
    file holding the given JSON value, followed by the given options."""
    def make_args(tmp_path):
        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps({"t": t, "positions": p}) + "\n" for t, p in enumerate(records)))
        (tmp_path / "speeds.json").write_text(json.dumps(speeds))
        return ["replay-adg", "--trace", "trace.jsonl", "--speeds", "speeds.json", *options]
    return make_args


def _state_file(value):
    def make_args(tmp_path):
        (tmp_path / "state.json").write_text(json.dumps(value))
        return ["resolve", "--state", "state.json"]
    return make_args


def _height_one_map(tmp_path):
    (tmp_path / "flat.map").write_text("type octile\nheight 1\nwidth 4\nmap\n....\n")
    (tmp_path / "flat.scen.json").write_text(json.dumps(
        {"map": "flat.map", "starts": [[0, 0]], "goals": [[0, 3]]}))
    return ["run", "--scenario", "flat.scen.json"]


def _unknown_policy(tmp_path):
    cli.main(["gen-map", "--kind", "recess", "--seed", "1", "--out", "."])
    return ["run", "--scenario", "recess-1.scen.json", "--policy", "nobody"]


def _snapshot(drop=(), **changes):
    """resolve --state args for a two-agent snapshot on a 3x3 map, with the
    given fields replaced and the fields in drop left out."""
    def make_args(tmp_path):
        state = {"map": "type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n",
                 "positions": [[0, 0], [1, 1]], "intents": [2, 1], "svos": [45.0, 0.0]}
        state.update(changes)
        for key in drop:
            del state[key]
        (tmp_path / "state.json").write_text(json.dumps(state))
        return ["resolve", "--state", "state.json"]
    return make_args


def _scenario_file(value=None, drop=(), **changes):
    """run --scenario args for a one-agent scenario on an inline 3x3 map with
    the given fields replaced and the fields in drop left out, or for a file
    holding the given JSON value."""
    def make_args(tmp_path):
        scenario = {"map": "type octile\nheight 3\nwidth 3\nmap\n...\n...\n...\n",
                    "starts": [[0, 0]], "goals": [[2, 2]], "seed": 0}
        scenario.update(changes)
        for key in drop:
            del scenario[key]
        (tmp_path / "s.scen.json").write_text(json.dumps(scenario if value is None else value))
        return ["run", "--scenario", "s.scen.json"]
    return make_args


def _max_steps(steps):
    def make_args(tmp_path):
        cli.main(["gen-map", "--kind", "recess", "--seed", "1", "--out", "."])
        return ["run", "--scenario", "recess-1.scen.json", "--max-steps", steps]
    return make_args


def _text_file(name, text, args):
    """args for a command reading a file of the given name that holds text."""
    def make_args(tmp_path):
        (tmp_path / name).write_text(text)
        return args
    return make_args


def _two_files(first, first_text, second, second_text, args):
    """args for a command reading two files holding the given texts."""
    def make_args(tmp_path):
        (tmp_path / first).write_text(first_text)
        (tmp_path / second).write_text(second_text)
        return args
    return make_args


def _checkpoint(edit, command="run"):
    """Args for run, bench or case-study with --policy trained:ck.json, for a
    checkpoint of the default recipe's initial parameters with its JSON value
    replaced by edit(value)."""
    def make_args(tmp_path):
        cfg = learner.TrainConfig()
        params = learner.init_params(obs_length(cfg.env.fov, cfg.env.svo_bins), cfg.smp.hidden,
                                     cfg.env.svo_bins, 0)
        learner.save_checkpoint(str(tmp_path / "ck.json"), params, cfg)
        value = edit(json.loads((tmp_path / "ck.json").read_text()))
        (tmp_path / "ck.json").write_text(json.dumps(value))
        policy = ["--policy", "trained:ck.json"]
        if command == "bench":
            return ["bench", "--family", "random", "--size", "8", "--instances", "1",
                    "--out", "r.json", *policy]
        if command == "case-study":
            return ["case-study", "--episodes", "1", *policy]
        cli.main(["gen-map", "--kind", "recess", "--seed", "1", "--out", "."])
        return ["run", "--scenario", "recess-1.scen.json", *policy]
    return make_args


def _tensor(key, value):
    """A checkpoint edit setting params[key] to value (None drops it)."""
    def edit(ck):
        params = {k: v for k, v in ck["params"].items() if k != key}
        if value is not None:
            params[key] = value
        return {**ck, "params": params}
    return edit


def _fov(ck):
    return {**ck, "config": {**ck["config"], "env": {**ck["config"]["env"], "fov": 7}}}


@pytest.mark.parametrize("make_args, message", [
    (_train_config({"env": {"block_threshold": -1}}), "block_threshold must be >= 0, got -1"),
    (_height_one_map, "line 2: height must be at least 2, got 1"),
    (lambda tmp_path: ["run", "--scenario", "missing.json"], "No such file or directory: 'missing.json'"),
    (_unknown_policy, "unknown policy 'nobody'; expected greedy, homo, hetero, scripted or trained:PATH"),
    (lambda tmp_path: ["gen-map", "--kind", "random", "--size", "4x4", "--agents", "30",
                       "--out", "m"], "no feasible random map after 100 attempts"),
    (lambda tmp_path: ["bench", "--family", "random", "--size", "4", "--agents", "30",
                       "--instances", "1", "--out", "r.json"], "no feasible random map after 100 attempts"),
    (lambda tmp_path: ["case-study", "--p-recess", "1.5", "--episodes", "4"],
     "kind probabilities must lie in [0, 1], got 1.5 and -0.5"),
    (lambda tmp_path: ["case-study", "--p-recess", "-0.2", "--episodes", "4"],
     "kind probabilities must lie in [0, 1], got -0.2 and 1.2"),
    (lambda tmp_path: ["case-study", "--episodes", "0"], "episodes must be at least 1, got 0"),
    (_snapshot(positions=[[1, 1], [1, 1]]), "positions[1]: agents 0 and 1 share [1, 1]"),
    (_snapshot(positions=[[0, 0], [5, 5]]), "positions[1]: [5, 5] is not a free cell of the 3x3 map"),
    (_snapshot(positions=[[0, 0], [1.5, 1]]), "positions[1]: [1.5, 1] is not a free cell"),
    (_snapshot(intents=[1.5, 1]), "intents[0]: 1.5 is not an action 0-4"),
    (_snapshot(intents=[2, 7]), "intents[1]: 7 is not an action 0-4"),
    (_snapshot(intents=[2]), "intents: need one entry per agent (2)"),
    (_snapshot(svos=[90, 0.0]), "svos[0]: 90 is not an angle in [0, 45] degrees"),
    (_snapshot(svos=[45.0, -1e-9]), "svos[1]: -1e-09 is not an angle in [0, 45] degrees"),
    (_train_config({"env": {"fov": 4}}), "fov must be a positive odd integer, got 4"),
    (_state_file([1, 2]), "state.json: need a JSON object with map, positions, intents and "
                          "svos, got list"),
    (_replay([[[0]], [[1]]], [1.0]), "trace.jsonl line 1: position [0] is not a [row, col] pair"),
    (_replay([[[0, 0]], [[0, 1]]], ["x"]), "speeds.json: speed 0 ('x') is not a finite number"),
    (_replay([[[0, 0]], [[0, 1]]], {"a": 1}),
     "speeds.json: need a JSON array of speed multipliers, got dict"),
    (_replay([[[0, 0]], [[0, 1]]], [1.0], "--jitter", "-5"),
     "jitter_amplitude must be finite and at least -1, got -5.0"),
    (_replay([[[0, 0]], [[0, 1]]], [1.0], "--jitter", "nan"),
     "jitter_amplitude must be finite and at least -1, got nan"),
    (_replay([[[0, 0]], [[0, 1]]], [1.0], "--jitter", "inf"),
     "jitter_amplitude must be finite and at least -1, got inf"),
    (_scenario_file([1, 2]), "need a JSON object with map, starts and goals, got list"),
    (_scenario_file(map=5), "map: need map text or the path of a map file, got int"),
    (_scenario_file(starts=[[0]]), "starts[0]: [0] is not a [row, col] pair of integers"),
    (_scenario_file(starts=7), "starts: need a list of [row, col] cells, got int"),
    (_scenario_file(starts=[[1.5, 2]]), "starts[0]: [1.5, 2] is not a [row, col] pair of integers"),
    (_scenario_file(seed=None), "seed: None is not an integer"),
    (_snapshot(map=5), "map: need map text or the path of a map file, got int"),
    (lambda tmp_path: ["bench", "--family", "random", "--size", "8", "--instances", "0",
                       "--out", "r.json"], "instances must be at least 1, got 0"),
    (_max_steps("0"), "max_episode_length must be a positive integer, got 0"),
    (_max_steps("-3"), "max_episode_length must be a positive integer, got -3"),
    (_train_config({"env": {"block_threshold": "x"}}), "block_threshold: 'x' is not an integer"),
    (_train_config({"env": {"overlap_decay": None}}), "overlap_decay: None is not a finite number"),
    (_train_config({"env": {"blocking_rewards": 1}}), "blocking_rewards: 1 is not true or false"),
    (_train_config({"smp": {"gamma": "0.9"}}), "gamma: '0.9' is not a finite number"),
    (_train_config({"smp": {"epochs": 2.5}}), "epochs: 2.5 is not an integer"),
    (_train_config({"total_env_steps": "many"}), "total_env_steps: 'many' is not an integer"),
    (_train_config({"corridor_lengths": 5}), "corridor_lengths: 5 is not a pair of integers"),
    (_train_config({"smp": {"gama": 0.9}}), "smp: unknown field 'gama'"),
    (_train_config({"env": [1]}), "env: need a JSON object, got list"),
    (_train_config([1]), "config: need a JSON object, got list"),
    (_scenario_file(drop=["goals"]), "s.scen.json: missing key 'goals'"),
    (_scenario_file(drop=["map"]), "s.scen.json: missing key 'map'"),
    (_snapshot(drop=["positions"]), "state.json: missing key 'positions'"),
    (_snapshot(drop=["svos"]), "state.json: missing key 'svos'"),
    (_checkpoint(lambda ck: {k: v for k, v in ck.items() if k != "config"}),
     "ck.json: missing key 'config'"),
    (_checkpoint(lambda ck: {**ck, "params": [1.0]}), "ck.json: params: need a JSON object, got list"),
    (_checkpoint(lambda ck: [ck], "bench"),
     "ck.json: need a JSON object with format, config and params, got list"),
    (_checkpoint(_tensor("b_act", [[1.0]])),
     "ck.json: params b_act: shape (1, 1), but the config's network needs (5,)"),
    (_checkpoint(_fov, "case-study"),
     "ck.json: params w_in: shape (259, 64), but the config's network needs (163, 64)"),
    (_checkpoint(_tensor("b_svo", [0.0, math.nan, 0.0, 0.0, 0.0])),
     "ck.json: params b_svo: holds a value that is not finite"),
    (_checkpoint(_tensor("w_va", ["x"] * 64)), "ck.json: params w_va: need an array of numbers"),
    (_checkpoint(_tensor("w_va", [[0.0], [0.0, 0.0]])), "ck.json: params w_va: need an array of numbers"),
    (_checkpoint(_tensor("b_blk", None)), "ck.json: params: missing key 'b_blk'"),
    (_checkpoint(_tensor("b_extra", [0.0])), "ck.json: params: unknown tensor 'b_extra'"),
    (_checkpoint(lambda ck: {**ck, "format": 2}), "ck.json: unsupported checkpoint format 2"),
    (_checkpoint(lambda ck: {**ck, "config": {**ck["config"], "seed": 99}}),
     "ck.json: config_hash '%s' does not match the config's hash '%s'"
     % (learner.config_hash(learner.TrainConfig()),
        learner.config_hash(learner.TrainConfig(seed=99)))),
    (_two_files("a.json", '[{"a": 1}, 2]', "b.json", "[1, 2]", ["ttest", "--a", "a.json", "--b", "b.json"]),
     "a.json: sample 0 ({'a': 1}) is not a finite number"),
    (_two_files("a.json", "[1, 2]", "b.json", "[0, NaN]", ["ttest", "--a", "a.json", "--b", "b.json"]),
     "b.json: sample 1 (nan) is not a finite number"),
    (_two_files("a.txt", "1 2\n-inf", "b.txt", "0 0 0", ["ttest", "--a", "a.txt", "--b", "b.txt"]),
     "a.txt: sample 2 ('-inf') is not a finite number"),
    (_text_file("s.scen.json", '{"map": "x", ', ["run", "--scenario", "s.scen.json"]),
     "s.scen.json line 1: Expecting property name enclosed in double quotes at column 14"),
    (_text_file("cfg.json", '{"env":\n  {"fov": }}', ["train", "--config", "cfg.json", "--out", "o"]),
     "cfg.json line 2: Expecting value at column 11"),
    (_text_file("state.json", "[1, 2", ["resolve", "--state", "state.json"]),
     "state.json line 1: Expecting ',' delimiter at column 6"),
    (_two_files("trace.jsonl", '{"positions": [[0, 0]]}\n{"positions": [[0, 1]]\n', "speeds.json", "[1.0]",
                ["replay-adg", "--trace", "trace.jsonl", "--speeds", "speeds.json"]),
     "trace.jsonl line 2: Expecting ',' delimiter at column 23"),
    (_two_files("trace.jsonl", '{"positions": [[0, 0]]}\n', "speeds.json", "[1.0,",
                ["replay-adg", "--trace", "trace.jsonl", "--speeds", "speeds.json"]),
     "speeds.json line 1: Expecting value at column 6"),
    (_text_file("ck.json", '{"format": 1', ["case-study", "--policy", "trained:ck.json"]),
     "ck.json line 1: Expecting ',' delimiter at column 13"),
    (_train_config({"smp": {"minibatch": 0}}), "minibatch must be >= 1, got 0"),
    (_train_config({"smp": {"epochs": -1}}), "epochs must be >= 1, got -1"),
    (_train_config({"smp": {"hidden": 0}}), "hidden must be >= 1, got 0"),
    (_train_config({"rollout_steps": 0}), "rollout_steps must be >= 1, got 0"),
    (_train_config({"corridor_lengths": [12, 5]}),
     "corridor_lengths must satisfy 3 <= lo <= hi, got (12, 5)"),
    (_train_config({"corridor_lengths": [0, 1]}),
     "corridor_lengths must satisfy 3 <= lo <= hi, got (0, 1)"),
    (_train_config({"p_recess": 2}), "p_recess must lie in [0, 1], got 2"),
    (_train_config({"env": {"svo_bins": 1}}), "svo_bins must be >= 2, got 1"),
    (_train_config({"env": {"overlap_decay": 0}}), "overlap_decay must lie in (0, 1], got 0"),
    (_train_config({"env": {"overlap_cap": 0.0}}), "overlap_cap must be > 0, got 0.0"),
    (_train_config({"env": {"svo_importance": -2}}), "svo_importance must be > 0, got -2"),
    (_train_config({"env": {"fov_heuristic": -3}}), "fov_heuristic must be >= 0, got -3"),
    (_train_config({"smp": {"learning_rate": -1.0}}), "learning_rate must be >= 0, got -1.0"),
    (_train_config({"smp": {"momentum": 1.5}}), "momentum must lie in [0, 1), got 1.5"),
    (lambda tmp_path: ["gen-map", "--kind", "room", "--size", "4x", "--out", "m"],
     "--size: need WxH, two integers, got '4x'"),
    (lambda tmp_path: ["gen-map", "--kind", "maze", "--size", "abc", "--out", "m"],
     "--size: need WxH, two integers, got 'abc'"),
    (_scenario_file(foo=1), "s.scen.json: unknown field 'foo'"),
    (_snapshot(foo=1), "state.json: unknown field 'foo'"),
    (_checkpoint(lambda ck: {**ck, "foo": 1}), "ck.json: unknown field 'foo'"),
    (_train_config({"smp": {"gamma": 10 ** 400}}), "00 is not a finite number"),
    (lambda tmp_path: ["train", "--steps", "-5", "--quiet", "--out", "o"],
     "total_env_steps must be >= 1, got -5"),
    (lambda tmp_path: ["train", "--steps", "0", "--quiet", "--out", "o"],
     "total_env_steps must be >= 1, got 0"),
    (lambda tmp_path: ["bench", "--family", "random", "--size", "0", "--out", "r.json"],
     "random maps need width and height >= 2"),
], ids=["negative-block-threshold", "height-1-map", "missing-scenario", "unknown-policy",
        "infeasible-gen-map", "infeasible-bench", "p-recess-above-1", "p-recess-below-0",
        "zero-episodes", "resolve-shared-cell", "resolve-off-map", "resolve-fractional-cell",
        "resolve-fractional-intent", "resolve-intent-7", "resolve-short-intents",
        "resolve-svo-90", "resolve-negative-svo", "even-fov", "resolve-not-an-object",
        "replay-adg-not-pairs", "replay-adg-speed-not-a-number", "replay-adg-speeds-object",
        "replay-adg-jitter-below-minus-1", "replay-adg-jitter-nan", "replay-adg-jitter-inf",
        "scenario-not-an-object", "scenario-map-not-a-string", "scenario-start-not-a-pair",
        "scenario-starts-not-a-list", "scenario-fractional-start", "scenario-seed-null",
        "resolve-map-not-a-string", "bench-zero-instances", "run-zero-max-steps",
        "run-negative-max-steps", "train-threshold-not-a-number", "train-decay-null",
        "train-blocking-not-a-bool", "train-gamma-a-string", "train-fractional-epochs",
        "train-steps-a-string", "train-corridor-lengths-not-a-pair", "train-unknown-field",
        "train-env-not-an-object", "train-config-not-an-object", "scenario-without-goals",
        "scenario-without-map", "resolve-without-positions", "resolve-without-svos",
        "checkpoint-without-config", "checkpoint-params-a-list", "checkpoint-not-an-object",
        "checkpoint-b-act-broadcasts", "checkpoint-fov-disagrees", "checkpoint-nan-tensor",
        "checkpoint-string-tensor", "checkpoint-ragged-tensor", "checkpoint-missing-tensor",
        "checkpoint-unknown-tensor", "checkpoint-format-2", "checkpoint-seed-edited",
        "ttest-object-sample",
        "ttest-nan-json-sample", "ttest-inf-whitespace-sample", "scenario-truncated",
        "train-config-truncated", "resolve-state-truncated", "replay-adg-trace-truncated",
        "replay-adg-speeds-truncated", "checkpoint-truncated", "train-minibatch-0",
        "train-epochs-negative", "train-hidden-0", "train-rollout-steps-0",
        "train-corridor-lengths-reversed", "train-corridor-lengths-too-short",
        "train-p-recess-above-1", "train-one-svo-bin", "train-overlap-decay-0",
        "train-overlap-cap-0", "train-svo-importance-negative",
        "train-fov-heuristic-negative", "train-learning-rate-negative", "train-momentum-1.5", "gen-map-size-without-height",
        "gen-map-size-not-a-size", "scenario-unknown-key", "resolve-unknown-key",
        "checkpoint-unknown-key", "train-gamma-beyond-float", "train-steps-negative",
        "train-steps-0", "bench-random-size-0"])
def test_bad_input_is_one_error_line(make_args, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = make_args(tmp_path)
    capsys.readouterr()
    code = cli.main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [captured.err.rstrip("\n")]
    assert captured.err.startswith("svo-mapf: error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def _write_trace(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("ragged", [[[0, 1]], [[0, 1], [1, 1], [2, 2]]], ids=["short", "long"])
def test_replay_adg_rejects_ragged_traces(ragged, tmp_path, capsys):
    # a record whose positions do not match the t = 0 header is not a plan
    trace, speeds = tmp_path / "trace.jsonl", tmp_path / "speeds.json"
    _write_trace(trace, [{"t": 0, "positions": [[0, 0], [1, 0]]},
                         {"t": 1, "positions": [[0, 1], [1, 1]]},
                         {"t": 2, "positions": ragged},
                         {"metrics": {}}])
    speeds.write_text("[1.0, 1.0]")
    code = cli.main(["replay-adg", "--trace", str(trace), "--speeds", str(speeds)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"svo-mapf: error: {trace} line 3: {len(ragged)} positions, "
                            "but the t = 0 record has 2\n")


def test_rotation_is_refused_so_its_trace_replays(tmp_path, capsys, monkeypatch):
    # four agents on a 2x2 map, each goal one step clockwise: the resolver
    # refuses the rotation, as the ADG does, so nobody moves and the trace
    # of the run replays
    monkeypatch.chdir(tmp_path)
    (tmp_path / "square.map").write_text("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
    cells = [[0, 0], [0, 1], [1, 1], [1, 0]]
    (tmp_path / "square.scen.json").write_text(json.dumps(
        {"map": "square.map", "starts": cells, "goals": cells[1:] + cells[:1]}))
    code, out = run_cli(["run", "--scenario", "square.scen.json", "--policy", "greedy",
                         "--max-steps", "3", "--trace", "trace.jsonl"], capsys)
    assert code == 0
    metrics = json.loads(out.splitlines()[-1])
    assert not metrics["success"] and metrics["episode_length"] == 3
    records = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [r["positions"] for r in records[:-1]] == [cells] * 4
    (tmp_path / "speeds.json").write_text("[1.0, 1.0, 1.0, 1.0]")
    code = cli.main(["replay-adg", "--trace", "trace.jsonl", "--speeds", "speeds.json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.err) == {"tasks": 16, "makespan": 3.0}


def test_training_divergence_is_one_stderr_line(tmp_path, capsys):
    # a learning rate of 1e6 without clipping blows the critics up in the
    # third iteration; the first two iterations are kept and saved
    (tmp_path / "cfg.json").write_text(json.dumps(DIVERGING_TRAIN_CFG))
    code = cli.main(["train", "--config", str(tmp_path / "cfg.json"), "--quiet",
                     "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.startswith("svo-mapf: training diverged in iteration 3 (non-finite loss; "
                                   "diagnostics: {'loss_pi_act': ")
    assert captured.err.endswith("); saved the parameters of iteration 2\n")
    assert captured.err.count("\n") == 1 and "Warning" not in captured.err
    assert json.loads(captured.out)["iterations"] == 2
    assert len((tmp_path / "curve.csv").read_text().splitlines()) == 3


DIVERGING_TRAIN_CFG = {
    "smp": {"hidden": 8, "epochs": 2, "minibatch": 8, "learning_rate": 1e6, "grad_clip": 0.0},
    "env": {"fov": 5, "svo_bins": 3, "max_episode_length": 24},
    "total_env_steps": 200, "rollout_steps": 20, "seed": 2,
}
