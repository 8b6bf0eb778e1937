"""Traced run: a span and counts around every public function of each layer.

The wrappers are installed from outside the library, at every module binding
that callers look up (``from .pathing import distance_field`` gives gridworld
and harness their own binding), and removed again on exit. Counts come from
public return values only. ``rng`` gets no spans: it is called per cell and
per task, so a wrapper would swamp it; its cost shows in the self time of its
callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from svo_mapf import gridworld, harness
from svo_mapf.resolver import NORMAL

from stats import self_times

LAYERS = ("mapgen", "pathing", "social", "resolver", "gridworld", "harness", "learner", "execution")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("mapgen.gen_s", "s"),
    ("mapgen.maps", "count"),
    ("pathing.distance_field.calls", "count"),
    ("pathing.distance_field.s", "s"),
    ("pathing.distance_field.miss_ratio", "fraction"),
    ("pathing.field_bytes_peak", "bytes"),
    ("pathing.astar_path.calls", "count"),
    ("pathing.astar_path.s", "s"),
    ("pathing.astar_path.cells", "count"),
    ("social.compute_overlap.calls", "count"),
    ("social.compute_overlap.self_s", "s"),
    ("social.pairs_scanned", "count"),
    ("social.pairs_overlapping", "count"),
    ("social.pair_hit_ratio", "fraction"),
    ("social.redistribute_rewards.s", "s"),
    ("social.stability_target.s", "s"),
    ("resolver.resolve.calls", "count"),
    ("resolver.resolve.s", "s"),
    ("resolver.pops", "count"),
    ("resolver.pops_per_agent_max", "ratio"),
    ("resolver.idled", "count"),
    ("gridworld.detect_blocking.calls", "count"),
    ("gridworld.detect_blocking.s", "s"),
    ("gridworld.pairs_examined", "count"),
    ("gridworld.pairs_blocked", "count"),
    ("gridworld.block_hit_ratio", "fraction"),
    ("gridworld.step.self_s", "s"),
    ("gridworld.observe.calls", "count"),
    ("gridworld.observe.s", "s"),
    ("harness.policy_step.s", "s"),
    ("harness.run_episode.self_s", "s"),
    ("harness.arrival_rate", "fraction"),
    ("learner.collect_rollout.self_s", "s"),
    ("learner.forward.calls", "count"),
    ("learner.forward.s", "s"),
    ("learner.smp3o_loss_and_grad.calls", "count"),
    ("learner.smp3o_loss_and_grad.s", "s"),
    ("learner.clip_gradients.s", "s"),
    ("learner.gae_advantages.s", "s"),
    ("learner.sgd_self_s", "s"),
    ("learner.minibatches", "count"),
    ("execution.validate_plan.s", "s"),
    ("execution.build_adg.s", "s"),
    ("execution.tasks", "count"),
    ("execution.dependency_edges", "count"),
    ("execution.simulate_execution.s", "s"),
    ("execution.events", "count"),
    ("trace.steps_per_s", "steps/s"),
    ("trace.overhead", "fraction"),
    ("trace.spans", "count"),
)


class Tracer:
    """In-memory spans (name, start, end, parent) and return-value counts."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.pops_per_agent_max = 0.0
        self.violations: list[str] = []
        self._last_field: dict = {}
        self.field_bytes = 0
        self.field_bytes_peak = 0

    def span(self, name: str, fn, observe=None):
        """Wrap fn so each call records a span, then lets observe count its result."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(self, result, *args, **kwargs)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind traced wrappers in every loaded svo_mapf module; restore on exit."""
        package = [m for name, m in list(sys.modules.items())
                   if name == "svo_mapf" or name.startswith("svo_mapf.")]
        patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"svo_mapf.{layer}")
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                key = f"{layer}.{name}"
                traced = self.span(key, fn, _OBSERVERS.get(key))
                for owner in package:
                    if vars(owner).get(name) is fn:
                        patches.append((owner, name, fn))
                        setattr(owner, name, traced)
        for cls, key in _traced_methods():
            fn = vars(cls)["step"]
            patches.append((cls, "step", fn))
            setattr(cls, "step", self.span(key, fn))
        try:
            yield self
        finally:
            for owner, name, fn in reversed(patches):
                setattr(owner, name, fn)

    def _release_field(self, nbytes: int) -> None:
        self.field_bytes -= nbytes

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts (trace.* excluded)."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=end - start, minlength=k)
        own = np.bincount(name_id, weights=self_times(parent, start, end), minlength=k)

        def get(table, name):
            i = self._ids.get(name)
            return float(table[i]) if i is not None else 0.0

        c = self.counts
        dfield_calls = get(calls, "pathing.distance_field")
        return {
            "mapgen.gen_s": sum(get(total, n) for n in self.names if n.startswith("mapgen.gen_")),
            "mapgen.maps": c["mapgen.maps"],
            "pathing.distance_field.calls": dfield_calls,
            "pathing.distance_field.s": get(total, "pathing.distance_field"),
            "pathing.distance_field.miss_ratio": _ratio(c["pathing.distance_field.misses"], dfield_calls),
            "pathing.field_bytes_peak": self.field_bytes_peak,
            "pathing.astar_path.calls": get(calls, "pathing.astar_path"),
            "pathing.astar_path.s": get(total, "pathing.astar_path"),
            "pathing.astar_path.cells": c["pathing.astar_path.cells"],
            "social.compute_overlap.calls": get(calls, "social.compute_overlap"),
            "social.compute_overlap.self_s": get(own, "social.compute_overlap"),
            "social.pairs_scanned": c["social.pairs_scanned"],
            "social.pairs_overlapping": c["social.pairs_overlapping"],
            "social.pair_hit_ratio": _ratio(c["social.pairs_overlapping"], c["social.pairs_scanned"]),
            "social.redistribute_rewards.s": get(total, "social.redistribute_rewards"),
            "social.stability_target.s": get(total, "social.stability_target"),
            "resolver.resolve.calls": get(calls, "resolver.resolve"),
            "resolver.resolve.s": get(total, "resolver.resolve"),
            "resolver.pops": c["resolver.pops"],
            "resolver.pops_per_agent_max": self.pops_per_agent_max,
            "resolver.idled": c["resolver.idled"],
            "gridworld.detect_blocking.calls": get(calls, "gridworld.detect_blocking"),
            "gridworld.detect_blocking.s": get(total, "gridworld.detect_blocking"),
            "gridworld.pairs_examined": c["gridworld.pairs_examined"],
            "gridworld.pairs_blocked": c["gridworld.pairs_blocked"],
            "gridworld.block_hit_ratio": _ratio(c["gridworld.pairs_blocked"], c["gridworld.pairs_examined"]),
            "gridworld.step.self_s": get(own, "gridworld.step"),
            "gridworld.observe.calls": get(calls, "gridworld.observe"),
            "gridworld.observe.s": get(total, "gridworld.observe"),
            "harness.policy_step.s": get(total, "harness.policy_step"),
            "harness.run_episode.self_s": get(own, "harness.run_episode"),
            "learner.collect_rollout.self_s": get(own, "learner.collect_rollout"),
            "learner.forward.calls": get(calls, "learner.forward"),
            "learner.forward.s": get(total, "learner.forward"),
            "learner.smp3o_loss_and_grad.calls": get(calls, "learner.smp3o_loss_and_grad"),
            "learner.smp3o_loss_and_grad.s": get(total, "learner.smp3o_loss_and_grad"),
            "learner.clip_gradients.s": get(total, "learner.clip_gradients"),
            "learner.gae_advantages.s": get(total, "learner.gae_advantages"),
            # train's own time: isfinite scans, minibatch copies, shuffles, momentum updates
            "learner.sgd_self_s": get(own, "learner.train"),
            "learner.minibatches": c["learner.minibatches"],
            "execution.validate_plan.s": get(total, "execution.validate_plan"),
            "execution.build_adg.s": get(total, "execution.build_adg"),
            "execution.tasks": c["execution.tasks"],
            "execution.dependency_edges": c["execution.dependency_edges"],
            "execution.simulate_execution.s": get(total, "execution.simulate_execution"),
            "execution.events": c["execution.events"],
        }

    def save(self, path) -> None:
        """Write the spans out (names, name_id, parent, start, end)."""
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start=np.array(self.start), end=np.array(self.end))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _traced_methods():
    yield gridworld.Gridworld, "gridworld.step"
    for cls in vars(harness).values():
        if inspect.isclass(cls) and cls.__module__ == harness.__name__ and "step" in vars(cls):
            yield cls, "harness.policy_step"


# ---- counts from public return values ----

def _count_map(tr, scenario, *args, **kwargs):
    tr.counts["mapgen.maps"] += 1


def _count_field(tr, field, grid, goal):
    # A miss is a call whose field is not the object returned last time for
    # this (map, goal): the first call, or a recomputation after eviction.
    key = (id(grid), tuple(goal))
    last = tr._last_field.get(key)
    if last is not None and last() is field:
        return
    tr.counts["pathing.distance_field.misses"] += 1
    tr._last_field[key] = weakref.ref(field)
    tr.field_bytes += field.nbytes
    tr.field_bytes_peak = max(tr.field_bytes_peak, tr.field_bytes)
    weakref.finalize(field, tr._release_field, field.nbytes)


def _count_path(tr, flow, *args, **kwargs):
    tr.counts["pathing.astar_path.cells"] += len(flow.vertices)


def _count_overlap(tr, overlap, *args, **kwargs):
    n = len(overlap.partners)
    tr.counts["social.pairs_scanned"] += n * (n - 1) // 2
    tr.counts["social.pairs_overlapping"] += int(np.count_nonzero(np.triu(overlap.matrix, 1)))


def _count_resolve(tr, outcome, grid, positions, *args, **kwargs):
    n = len(positions)
    tr.counts["resolver.pops"] += outcome.iterations
    tr.counts["resolver.idled"] += sum(1 for a in outcome.annotations if a != NORMAL)
    tr.pops_per_agent_max = max(tr.pops_per_agent_max, outcome.iterations / n)
    if outcome.iterations > 4 * n:
        tr.violations.append(f"resolve took {outcome.iterations} pops for {n} agents")


def _count_blocking(tr, blocked, env, agent):
    tr.counts["gridworld.pairs_examined"] += env.n - 1
    tr.counts["gridworld.pairs_blocked"] += int(blocked)


def _count_minibatch(tr, result, *args, **kwargs):
    tr.counts["learner.minibatches"] += 1


def _count_adg(tr, graph, *args, **kwargs):
    tr.counts["execution.tasks"] += len(graph.tasks)
    tr.counts["execution.dependency_edges"] += sum(len(t.dependencies) for t in graph.tasks)


def _count_events(tr, log, *args, **kwargs):
    tr.counts["execution.events"] += len(log)


_OBSERVERS = {
    "mapgen.gen_random": _count_map,
    "mapgen.gen_room": _count_map,
    "mapgen.gen_maze": _count_map,
    "mapgen.gen_corridor": _count_map,
    "pathing.distance_field": _count_field,
    "pathing.astar_path": _count_path,
    "social.compute_overlap": _count_overlap,
    "resolver.resolve": _count_resolve,
    "gridworld.detect_blocking": _count_blocking,
    "learner.clip_gradients": _count_minibatch,
    "execution.build_adg": _count_adg,
    "execution.simulate_execution": _count_events,
}
