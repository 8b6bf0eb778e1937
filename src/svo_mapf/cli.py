"""Command-line entry points over the library.

Subcommands: gen-map, run, resolve, train, bench, ttest, case-study,
replay-adg. Every command is deterministic for fixed arguments and seed, and
output files serialize canonically so reruns are byte-identical (wall-clock
measurements only appear behind --timings).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import execution, harness, learner, mapgen
from .gridworld import EnvConfig
from .inputs import finite_numbers, is_cell, is_int, parse_json, read_object
from .mapgen import _map_from_ref
from .resolver import resolve as resolver_resolve


def _cmd_gen_map(args) -> int:
    if args.kind in ("recess", "ishape"):
        kind = "recess" if args.kind == "recess" else "i_shape"
        scenario = mapgen.gen_corridor(kind, args.corridor_len, args.seed)
    else:
        try:
            w, h = (int(x) for x in args.size.lower().split("x"))
        except ValueError:
            raise ValueError(f"--size: need WxH, two integers, got {args.size!r}") from None
        scenario = mapgen.family_scenario(args.kind, w, h, args.density, args.agents, args.seed)
    os.makedirs(args.out, exist_ok=True)
    map_path = os.path.join(args.out, f"{args.kind}-{args.seed}.map")
    scn_path = os.path.join(args.out, f"{args.kind}-{args.seed}.scen.json")
    with open(map_path, "w") as f:
        f.write(scenario.grid.to_text())
    with open(scn_path, "w") as f:
        f.write(scenario.to_json(map_ref=os.path.basename(map_path)))
    print(json.dumps({"map": map_path, "scenario": scn_path,
                      "density": scenario.grid.density, "agents": scenario.n_agents},
                     sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    with open(args.scenario) as f:
        scenario = mapgen.scenario_from_json(f.read(), base_dir=os.path.dirname(args.scenario) or ".",
                                             source=args.scenario)
    env_cfg = EnvConfig(max_episode_length=args.max_steps)
    policy = harness.make_policy(args.policy, env_cfg)
    records: list[str] = []
    records.append(json.dumps({
        "t": 0, "positions": [list(p) for p in scenario.starts],
        "actions": None, "svos": None, "rewards": None,
    }, sort_keys=True))

    def writer(record):
        records.append(json.dumps(record, sort_keys=True))

    result = harness.run_episode(scenario, policy, env_cfg, trace_writer=writer,
                                 trace_social=args.social)
    metrics = dataclasses.asdict(result.metrics)
    metrics["total_external_reward"] = round(result.total_external_reward, 10)
    records.append(json.dumps({"metrics": metrics}, sort_keys=True))
    if args.trace:
        with open(args.trace, "w") as f:
            f.write("\n".join(records) + "\n")
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _check_snapshot(grid, state) -> None:
    """Reject a snapshot whose fields have the wrong JSON shape or whose
    intents are outside the five actions; resolve checks the rest."""
    positions, intents, svos = state["positions"], state["intents"], state["svos"]
    if not isinstance(positions, list):
        raise ValueError("positions: need a list of [row, col] cells")
    for name, values in (("intents", intents), ("svos", svos)):
        if not isinstance(values, list) or len(values) != len(positions):
            raise ValueError(f"{name}: need one entry per agent ({len(positions)})")
    for i, p in enumerate(positions):
        if not is_cell(p):
            raise ValueError(f"positions[{i}]: {p} is not a free cell of the "
                             f"{grid.height}x{grid.width} map")
    for i, a in enumerate(intents):
        if not (is_int(a) and 0 <= a <= 4):
            raise ValueError(f"intents[{i}]: {a} is not an action 0-4")


def _cmd_resolve(args) -> int:
    with open(args.state) as f:
        state = read_object(parse_json(f.read(), args.state), args.state,
                            ("map", "positions", "intents", "svos"))
    grid = _map_from_ref(state["map"], os.path.dirname(args.state) or ".")
    _check_snapshot(grid, state)
    positions = [tuple(p) for p in state["positions"]]
    outcome = resolver_resolve(grid, positions, np.array(state["intents"], dtype=np.int64),
                               state["svos"])
    print(json.dumps({
        "actions": [int(a) for a in outcome.actions],
        "penalties": [float(p) for p in outcome.penalties],
        "annotations": outcome.annotations,
        "iterations": outcome.iterations,
    }, sort_keys=True))
    return 0


def _cmd_train(args) -> int:
    if args.config:
        with open(args.config) as f:
            cfg = learner.TrainConfig.from_json(f.read(), args.config)
    else:
        cfg = learner.TrainConfig()
    overrides = {"seed": args.seed, "total_env_steps": args.steps}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    os.makedirs(args.out, exist_ok=True)
    rows = []

    def progress(row):
        rows.append(row)
        if not args.quiet:
            print(json.dumps(row, sort_keys=True), file=sys.stderr)

    result = learner.train(cfg, progress=progress)
    if result.diverged_at is not None:
        kept = (f"the parameters of iteration {result.diverged_at - 1}"
                if result.diverged_at > 1 else "the initial parameters")
        print(f"svo-mapf: training diverged in iteration {result.diverged_at} "
              f"({result.divergence}); saved {kept}", file=sys.stderr)
    ckpt = os.path.join(args.out, "checkpoint.json")
    learner.save_checkpoint(ckpt, result.params, cfg)
    curve_path = os.path.join(args.out, "curve.csv")
    with open(curve_path, "w") as f:
        f.write("iteration,env_steps,mean_reward,goals,ep_len\n")
        for row in result.curve:
            f.write(f"{row['iteration']},{row['env_steps']},{row['mean_reward']!r},"
                    f"{row['goals']!r},{row['ep_len']!r}\n")
    print(json.dumps({"checkpoint": ckpt, "curve": curve_path,
                      "iterations": len(result.curve)}, sort_keys=True))
    return 0


def _cmd_bench(args) -> int:
    report = harness.run_batch(args.family, args.size, args.density, args.agents,
                               args.instances, args.policy, args.seed)
    with open(args.out, "w") as f:
        f.write(report.to_json(include_timings=False))
    if args.timings:
        with open(args.timings, "w") as f:
            f.write(report.to_json(include_timings=True))
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(report.to_csv())
    print(json.dumps({
        "success_rate": report.success_rate,
        "mean_episode_length": report.mean_episode_length,
        "mean_arrival_rate": report.mean_arrival_rate,
        "out": args.out,
    }, sort_keys=True))
    return 0


def _read_samples(path: str) -> np.ndarray:
    """The samples of a file holding a JSON array or whitespace-separated
    numbers; a ValueError names the file and the first entry that is not a
    finite number."""
    with open(path) as f:
        text = f.read().strip()
    if text.startswith("["):
        samples = finite_numbers(parse_json(text, path), path, "sample")
    else:
        samples = finite_numbers(text.split(), path, "sample", parse=float)
    return np.array(samples, dtype=np.float64)


def _cmd_ttest(args) -> int:
    a = _read_samples(args.a)
    b = _read_samples(args.b)
    t, p = harness.paired_t_test(a, b)
    print(json.dumps({"t": t, "p": p, "df": len(a) - 1}, sort_keys=True))
    return 0


def _cmd_case_study(args) -> int:
    result = harness.corridor_case_study(args.p_recess, args.episodes, args.policy, args.seed)
    out = {
        "mean_goals": result.mean_goals,
        "episodes": result.episodes,
        "recess_mean": result.kind_mean("recess"),
        "i_shape_mean": result.kind_mean("i_shape"),
        "recess_episodes": len(result.per_kind_goals["recess"]),
        "i_shape_episodes": len(result.per_kind_goals["i_shape"]),
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_replay_adg(args) -> int:
    paths = None
    with open(args.trace) as f:
        for lineno, line in enumerate(f, 1):
            record = parse_json(line.rstrip(), args.trace, lineno)
            positions = record.get("positions") if isinstance(record, dict) else None
            if positions is None:
                continue
            if not isinstance(positions, list):
                raise ValueError(f"{args.trace} line {lineno}: positions must be a list")
            if paths is None:
                paths = [[] for _ in positions]
            elif len(positions) != len(paths):
                raise ValueError(f"{args.trace} line {lineno}: {len(positions)} positions, "
                                 f"but the t = 0 record has {len(paths)}")
            for path, pos in zip(paths, positions):
                if not is_cell(pos):
                    raise ValueError(f"{args.trace} line {lineno}: position {pos!r} is not a "
                                     "[row, col] pair of integers")
                path.append(tuple(pos))
    with open(args.speeds) as f:
        speeds = parse_json(f.read(), args.speeds)
    if not isinstance(speeds, list):
        raise ValueError(f"{args.speeds}: need a JSON array of speed multipliers, "
                         f"got {type(speeds).__name__}")
    speeds = finite_numbers(speeds, args.speeds, "speed")
    graph = execution.build_adg(paths or [])
    log = execution.simulate_execution(graph, speeds, jitter_seed=args.seed,
                                       jitter_amplitude=args.jitter)
    lines = [json.dumps({"t": round(ev.t, 9), "task_id": ev.task_id,
                         "robot_id": ev.robot_id, "transition": ev.transition},
                        sort_keys=True) for ev in log]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    print(json.dumps({"tasks": len(graph.tasks), "makespan": round(log[-1].t, 9)},
                     sort_keys=True), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svo-mapf",
                                     description="Socially-aware MAPF simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="generate a map and scenario")
    p.add_argument("--kind", required=True,
                   choices=["random", "room", "maze", "recess", "ishape"])
    p.add_argument("--size", default="32x32", help="WxH (grid families)")
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--agents", type=int, default=8)
    p.add_argument("--corridor-len", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_map)

    p = sub.add_parser("run", help="run one episode from a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--policy", default="greedy",
                   help="greedy | scripted | hetero | homo | trained:PATH")
    p.add_argument("--max-steps", type=int, default=256)
    p.add_argument("--trace", help="write a JSON-lines episode trace here")
    p.add_argument("--social", action="store_true",
                   help="include per-step overlap matrix and partner arrays in the trace")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("resolve", help="resolve one joint-intent snapshot")
    p.add_argument("--state", required=True)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("train", help="train the desk-scale policy")
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int, help="override total env steps")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("bench", help="run an instance batch and write a report")
    p.add_argument("--family", required=True, choices=["random", "room", "maze"])
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--density", type=float, default=0.2)
    p.add_argument("--agents", type=int, default=8)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--policy", default="greedy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--timings", help="also write a report with wall-clock fields")
    p.add_argument("--csv", help="also export per-instance metrics as CSV")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("ttest", help="paired t-test over two sample files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("case-study", help="two-agent corridor dilemma study")
    p.add_argument("--p-recess", type=float, default=0.8)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--policy", default="hetero", help="homo | hetero | trained:PATH")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_case_study)

    p = sub.add_parser("replay-adg", help="execute an episode trace through the ADG")
    p.add_argument("--trace", required=True)
    p.add_argument("--speeds", required=True, help="JSON array of per-robot multipliers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_replay_adg)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, mapgen.MapGenError) as exc:
        # bad input (malformed files, bad settings, missing paths, infeasible
        # maps): one line and argparse's usage-error code, not a traceback
        print(f"svo-mapf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
