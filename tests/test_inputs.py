"""The input boundary: the typed reader's messages, and property tests that
every reader of outside input refuses bad input with a ValueError (an
OSError for a map path that does not open), never with another exception."""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svo_mapf import cli, execution, learner, mapgen, resolver
from svo_mapf.inputs import check_fields, finite_numbers, read_dataclass, read_object
from svo_mapf.pathing import ACTION_DELTAS

PROPERTY = settings(deadline=None, derandomize=True, max_examples=100)

MAP_3X3 = "type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n"
MAP_4X2 = "type octile\nheight 2\nwidth 4\nmap\n....\n..@.\n"

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.just(10 ** 400) | st.floats(allow_nan=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def near(valid, junk=JSON, odds=9):
    """Mostly the valid strategy (odds to 1), sometimes the junk one, by
    default an arbitrary JSON value."""
    return st.sampled_from([valid] * odds + [junk]).flatmap(lambda strategy: strategy)


def broken(draw, fields: dict):
    """An object of the given field strategies, sometimes without a key or
    with an unknown one, and sometimes an arbitrary JSON value instead."""
    obj = draw(st.fixed_dictionaries(fields))
    change = draw(st.sampled_from(["none"] * 7 + ["drop", "extra", "other"]))
    if change == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif change == "extra":
        obj["extra"] = draw(JSON)
    return draw(JSON) if change == "other" else obj


FREE_3X3 = [[r, c] for r in range(3) for c in range(3) if (r, c) != (1, 1)]
CELLS = near(st.permutations(FREE_3X3).map(lambda cells: cells[:3]),
             st.lists(near(st.lists(st.integers(-1, 4), min_size=2, max_size=2),
                           st.lists(st.integers(0, 3) | st.floats(0, 3) | st.booleans(), max_size=3)),
                      max_size=4))


@dataclass
class _Inner:
    k: int = 3

    def __post_init__(self):
        check_fields(self)


@dataclass
class _Outer:
    inner: _Inner = field(default_factory=_Inner)
    pair: tuple[int, int] = (1, 2)
    rate: float = 0.5
    flag: bool = False

    def __post_init__(self):
        check_fields(self)


class TestReader:
    def test_object_messages(self):
        with pytest.raises(ValueError, match=r"^f: need a JSON object with a, b and c, got list$"):
            read_object([], "f", ("a", "b", "c"))
        with pytest.raises(ValueError, match=r"^f: need a JSON object with a, got int$"):
            read_object(1, "f", ("a",))
        with pytest.raises(ValueError, match=r"^f: need a JSON object, got str$"):
            read_object("x", "f")
        # the first missing key in required order, before any unknown key
        with pytest.raises(ValueError, match=r"^f: missing key 'b'$"):
            read_object({"z": 0, "c": 1}, "f", ("a", "b", "c")[1:])
        with pytest.raises(ValueError, match=r"^f: unknown field 'z'$"):
            read_object({"a": 1, "z": 0}, "f", ("a",), ("b",))
        assert read_object({"a": 1, "b": 2}, "f", ("a",), ("b",)) == {"a": 1, "b": 2}

    def test_dataclass_nests_and_makes_tuples(self):
        got = read_dataclass({"inner": {"k": 4}, "pair": [5, 6], "rate": 1}, _Outer, "cfg")
        assert got == _Outer(_Inner(4), (5, 6), 1, False)
        assert read_dataclass({}, _Outer, "cfg") == _Outer()
        for obj, message in [({"inner": [1]}, "inner: need a JSON object, got list"),
                             ({"inner": {"j": 1}}, "inner: unknown field 'j'"),
                             ({"pair": [1, 2, 3]}, r"pair: \(1, 2, 3\) is not a pair of integers"),
                             ({"pair": [1, True]}, r"pair: \(1, True\) is not a pair of integers"),
                             ({"rate": "1"}, "rate: '1' is not a finite number"),
                             ({"flag": 0}, "flag: 0 is not true or false"),
                             ({"inner": {"k": 1.0}}, "k: 1.0 is not an integer")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                read_dataclass(obj, _Outer, "cfg")

    def test_construction_from_python_is_checked(self):
        with pytest.raises(ValueError, match=r"^pair: \[1, 2\] is not a pair of integers$"):
            _Outer(pair=[1, 2])
        with pytest.raises(ValueError, match=r"^rate: inf is not a finite number$"):
            _Outer(rate=float("inf"))

    def test_finite_numbers(self):
        assert finite_numbers([1, 2.5], "f", "speed") == [1.0, 2.5]
        assert finite_numbers(["1", "2e0"], "f", "sample", parse=float) == [1.0, 2.0]
        for values, parse, bad in [([1, True], None, "1 (True)"), (["1"], None, "0 ('1')"),
                                   (["x"], float, "0 ('x')"), (["nan"], float, "0 ('nan')")]:
            with pytest.raises(ValueError, match=re.escape(f"f: entry {bad} is not a finite number")):
                finite_numbers(values, "f", "entry", parse)


@st.composite
def map_texts(draw):
    """Map text near the benchmark format: headers and rows that are mostly
    well formed."""
    h, w = draw(st.integers(-1, 4)), draw(st.integers(-1, 4))
    header = ["type octile", f"height {h}", f"width {w}", "map"]
    if draw(st.booleans()):
        header[draw(st.integers(0, 3))] = draw(st.text(max_size=6))
    rows = draw(st.lists(st.text(".@", min_size=max(w, 0), max_size=max(w, 0)) | st.text(".@x ", max_size=5),
                         min_size=max(h, 0), max_size=max(h, 0) + 1))
    return "\n".join(header + rows) + draw(st.sampled_from(["", "\n", "\n\n"]))


@given(text=map_texts() | st.text(max_size=30))
@PROPERTY
def test_read_map_raises_only_parse_errors(text):
    try:
        grid = mapgen.read_map(text)
    except ValueError:
        return
    assert grid.height >= 2 and grid.width >= 2


@st.composite
def scenarios(draw):
    return broken(draw, {"map": near(st.sampled_from([MAP_3X3, "m.map", MAP_3X3, MAP_4X2, "missing.map", ""])),
                         "starts": CELLS, "goals": CELLS, "seed": near(st.integers(0, 2 ** 64 - 1))})


@given(obj=scenarios())
@PROPERTY
def test_scenario_from_json_raises_only_value_and_os_errors(obj, tmp_path_factory):
    base = tmp_path_factory.getbasetemp() / "scenarios"
    base.mkdir(exist_ok=True)
    (base / "m.map").write_text(MAP_3X3)
    try:
        scn = mapgen.scenario_from_json(json.dumps(obj), base_dir=str(base))
    except (ValueError, OSError):
        return
    assert scn.n_agents == len(obj["starts"]) >= 1


SMP_FIELDS = {"hidden": st.integers(-1, 9), "epochs": st.integers(-1, 3), "minibatch": st.integers(-1, 9),
              "gamma": st.floats(-0.5, 1.5), "clip_eps": st.floats(-0.1, 0.5),
              "learning_rate": st.floats(-1, 1), "momentum": st.floats(-0.5, 1.5),
              "normalize_advantages": st.booleans()}
ENV_FIELDS = {"fov": st.integers(-1, 9), "fov_heuristic": st.integers(-3, 11),
              "svo_bins": st.integers(-1, 6), "overlap_decay": st.floats(-0.5, 1.5),
              "overlap_cap": st.floats(-1, 2), "block_threshold": st.integers(-2, 12),
              "max_episode_length": st.integers(-1, 64), "blocking_rewards": st.booleans()}
TRAIN_FIELDS = {"p_recess": st.floats(-0.5, 1.5), "corridor_lengths": st.lists(st.integers(0, 14), max_size=3),
                "rollout_steps": st.integers(-1, 64), "seed": st.integers(0, 2 ** 64 - 1)}


def config_objects(fields):
    """Config objects holding some of the given fields, now and then an
    unknown one."""
    return st.fixed_dictionaries({}, optional={**{k: near(v) for k, v in fields.items()}, "unknown": JSON})


@given(obj=near(config_objects({**TRAIN_FIELDS, "smp": config_objects(SMP_FIELDS),
                                "env": config_objects(ENV_FIELDS)})))
@PROPERTY
def test_train_config_from_json_raises_only_value_errors(obj):
    try:
        cfg = learner.TrainConfig.from_json(json.dumps(obj))
    except ValueError:
        return
    assert 3 <= cfg.corridor_lengths[0] <= cfg.corridor_lengths[1]
    assert cfg.smp.minibatch >= 1 and cfg.env.svo_bins >= 2
    assert cfg.env.fov_heuristic >= 0 and cfg.smp.learning_rate >= 0 and 0 <= cfg.smp.momentum < 1
    assert learner.TrainConfig.from_json(cfg.to_json()) == cfg


@st.composite
def snapshots(draw):
    n = draw(st.integers(1, 6))
    cells = st.permutations(FREE_3X3).map(lambda p: p[:n])
    return broken(draw, {
        "map": near(st.sampled_from([MAP_3X3, MAP_3X3, MAP_4X2])),
        "positions": near(cells, st.lists(near(st.lists(st.integers(-1, 3), min_size=2, max_size=2)),
                                          min_size=n, max_size=n)),
        "intents": near(st.lists(near(st.integers(-1, 5)), min_size=n, max_size=n)),
        "svos": near(st.lists(near(st.floats(-5, 50) | st.sampled_from([0.0, 45.0])),
                              min_size=n, max_size=n))})


def run_cli(args):
    """cli.main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


@given(state=snapshots())
@PROPERTY
def test_resolve_snapshots_refuse_with_one_line_or_keep_the_pop_bound(state, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "state.json"
    path.write_text(json.dumps(state))
    args = cli.build_parser().parse_args(["resolve", "--state", str(path)])
    try:
        with redirect_stdout(io.StringIO()):
            args.func(args)     # what cli.main runs, without its catch-all
    except (ValueError, OSError):
        code, out, err = run_cli(["resolve", "--state", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("svo-mapf: error: ") and err.count("\n") == 1
        return
    code, out, _ = run_cli(["resolve", "--state", str(path)])
    result = json.loads(out)
    n = len(state["positions"])
    assert code == 0 and len(result["actions"]) == n and result["iterations"] <= 4 * n


ANGLES = st.floats(-5, 50) | st.sampled_from([0.0, 45.0, math.nan, math.inf, -math.inf])


@st.composite
def resolve_calls(draw):
    """resolve's arguments: a map, and n agents on integer cells anywhere (on
    or off the map, on an obstacle or on one cell, though mostly on distinct
    free cells) or now and then on a position that is no (row, col) tuple of
    integers, their intents in -1..5 and angles that include NaN and both
    infinities, as a list or an array."""
    text = draw(st.sampled_from([MAP_3X3, MAP_4X2]))
    grid = mapgen.read_map(text)
    n = draw(st.integers(1, 6))
    free = st.permutations(grid.free_cells()).map(lambda cells: cells[:n])
    malformed = st.sampled_from([(1.5, 0), (0,), None, (0, 0, 0), [0, 0], (True, 0), (0, False)])
    anywhere = st.lists(near(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), malformed, 3),
                        min_size=n, max_size=n)
    positions = draw(near(free, anywhere, 2))
    def per_agent(entry):
        return st.lists(entry, min_size=n, max_size=n)
    intents = draw(near(per_agent(st.integers(0, 4)), per_agent(st.integers(0, 4) | st.sampled_from([-1, 5])), 2))
    svos = draw(near(per_agent(st.floats(0, 45)), per_agent(ANGLES), 2))
    return grid, positions, np.array(intents), draw(st.sampled_from([svos, np.array(svos)]))


@given(call=resolve_calls())
@example(call=(mapgen.read_map(MAP_3X3), [(0, 0), (0, 1)], np.array([4, 3]), [math.nan, 0.0]))
@example(call=(mapgen.read_map(MAP_3X3), [(0, 0), (0, 1)], np.array([4, 3]), np.array([0.0, math.inf])))
@example(call=(mapgen.read_map(MAP_3X3), [(0, 0), (True, 0)], np.array([0, 0]), [0.0, 0.0]))
@example(call=(mapgen.read_map(MAP_3X3), [None], np.array([0]), [0.0]))
@PROPERTY
def test_resolve_refuses_bad_input_or_returns_a_legal_joint_move(call):
    grid, positions, intents, svos = call

    def free(p):
        return (type(p) is tuple and len(p) == 2 and all(type(x) is int for x in p)
                and 0 <= p[0] < grid.height and 0 <= p[1] < grid.width and not grid.obstacles[p])
    bad = (not all(free(p) for p in positions) or len(set(positions)) < len(positions)
           or not all(0 <= a <= 4 for a in intents) or not all(0 <= z <= 45 for z in svos))
    try:
        out = resolver.resolve(grid, positions, intents, svos)
    except ValueError:
        assert bad
        return
    assert not bad
    targets = [(r + ACTION_DELTAS[a][0], c + ACTION_DELTAS[a][1])
               for (r, c), a in zip(positions, out.actions.tolist())]
    assert resolver.joint_move_fault(positions, targets) is None
    assert all(free(cell) for cell in targets)
    assert out.iterations <= 4 * len(positions)


@st.composite
def plans(draw):
    """Paths of up to four robots on a 4x4 grid: random walks of idle and
    unit steps from distinct starts, a few of them with a jump or a cell that
    is no pair of integers."""
    n = draw(st.integers(0, 4))
    starts = draw(st.permutations([(r, c) for r in range(4) for c in range(4)]))[:n]
    steps = st.sampled_from([(0, 0), (0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)])
    paths = []
    for r, c in starts:
        path = [(r, c)]
        for dr, dc in draw(st.lists(steps, max_size=5)):
            r, c = min(max(r + dr, 0), 3), min(max(c + dc, 0), 3)
            path.append((r, c))
        change = draw(st.sampled_from(["none"] * 8 + ["cell", "empty"]))
        if change == "cell":
            path[draw(st.integers(0, len(path) - 1))] = draw(
                st.sampled_from([(3, 3), (0, 0), (0,), (0, 1, 2), (0.5, 1), [1, 1], (True, 0)]))
        paths.append([] if change == "empty" else path)
    return paths


@given(paths=plans())
@PROPERTY
def test_build_adg_refuses_plans_with_plan_errors_and_stays_acyclic(paths):
    try:
        graph = execution.build_adg(paths)
    except execution.PlanError:
        return
    log = execution.simulate_execution(graph, [1.0 + 0.5 * i for i in range(len(paths))])
    for spans in execution.occupancy_intervals(graph, log).values():
        for a, (s0, e0, r0) in enumerate(spans):
            assert all(r0 == r1 or e0 <= s1 or e1 <= s0 for s1, e1, r1 in spans[a + 1:])
