"""Action dependency graph (ADG) construction and continuous-time execution.

A discrete joint plan is translated into one task per (robot, timestep).
Each task depends on the robot's previous task and, for the cell it enters,
on the task of the previous occupant that vacates that cell. A task becomes
ENQUEUED only once every dependency is DONE, so execution-time delays and
speed differences can never cause two robots to occupy a cell concurrently;
followers queuing through a shared cell simply absorb slight delays.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .inputs import is_position
from .resolver import joint_move_fault
from .rng import derived_uniforms

STAGED = "STAGED"
ENQUEUED = "ENQUEUED"
DONE = "DONE"


class PlanError(ValueError):
    """The input plan shares a vertex, swaps, steps off 4-adjacency or rotates."""


class AdgError(RuntimeError):
    """Internal consistency failure (cycle or broken precedence)."""


@dataclass(slots=True)
class AdgTask:
    task_id: int
    robot_id: int
    time: int
    dependencies: set[int] = field(default_factory=set)
    status: str = STAGED


@dataclass
class AdgGraph:
    tasks: list[AdgTask]
    robot_tasks: list[list[int]]            # per robot, task ids in time order
    cell_visits: dict                        # cell -> [(enter_t, enter_id, vacate_id|None)]


def validate_plan(paths: list[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """Pad to a common horizon and check that the ADG can execute the plan.

    The first failure raises, checked in this order: a cell that is not a
    (row, col) pair of integers, a shared vertex, a swap, a step that is
    neither idle nor 4-adjacent, and a rotation (robots that each enter the
    cell the next one leaves, so each move waits on the next).
    """
    if not paths or any(len(p) == 0 for p in paths):
        raise PlanError("every robot needs a non-empty path")
    horizon = max(len(p) for p in paths)
    padded = [list(p) + [p[-1]] * (horizon - len(p)) for p in paths]
    jump = None     # the first step, robot by robot, that is not idle or 4-adjacent
    for i, path in enumerate(padded):
        for t, cell in enumerate(path):
            if not is_position(cell):
                raise PlanError(f"robot {i} at t={t}: cell {cell!r} is not a (row, col) "
                                "pair of integers")
            if t and jump is None and abs(cell[0] - before[0]) + abs(cell[1] - before[1]) > 1:
                jump = (before, cell)
            before = cell
    columns = list(zip(*padded))    # per t, the robots' cells in robot order
    # found[kind]: the first t whose move into column t faults first by that
    # kind; column 0 is checked as a move in which every robot stays
    found = {}
    for t, move in enumerate(zip(columns[:1] + columns, columns)):
        fault = joint_move_fault(*move)
        if fault is not None:
            found.setdefault(fault[0], (t, fault[1]))
    if "shared" in found:
        t, (j, i) = found["shared"]
        raise PlanError(f"robots {j} and {i} share {columns[t][i]} at t={t}")
    if "swap" in found:
        t, (i, j) = found["swap"]
        raise PlanError(f"robots {i} and {j} swap between t={t - 1} and t={t}")
    if jump is not None:
        raise PlanError(f"plan steps {jump[0]} -> {jump[1]} are not 4-adjacent")
    if "rotation" in found:
        t, cycle = found["rotation"]
        raise PlanError(f"robots {', '.join(map(str, cycle))} rotate between "
                        f"t={t - 1} and t={t}: each enters the cell the next one leaves")
    return padded


def build_adg(paths: list[list[tuple[int, int]]]) -> AdgGraph:
    """Translate a valid plan into dependency-ordered tasks.

    Task (robot, t>=1) depends on task (robot, t-1); a synthetic anchor task
    at t=0 holds each robot's initial cell. For every cell, consecutive
    occupants are chained: the entering task of the later visit depends on the
    vacating task of the earlier one (a transitive reduction of the full
    per-cell precedence order).
    """
    padded = validate_plan(paths)
    horizon = len(padded[0]) - 1
    tasks: list[AdgTask] = []
    robot_tasks: list[list[int]] = []
    # per-cell visit intervals: a visit starts with the task that arrives and
    # ends with the first task that moves out (None if the robot parks).
    cell_visits: dict = {}
    for i, path in enumerate(padded):
        ids = list(range(len(tasks), len(tasks) + horizon + 1))
        robot_tasks.append(ids)
        tasks.append(AdgTask(ids[0], i, 0, set()))
        tasks += [AdgTask(k, i, t, {k - 1}) for t, k in enumerate(ids[1:], 1)]
        enter = 0
        for t in range(1, horizon + 1):
            if path[t] != path[t - 1]:
                cell_visits.setdefault(path[enter], []).append((enter, ids[enter], ids[t]))
                enter = t
        cell_visits.setdefault(path[enter], []).append((enter, ids[enter], None))
    for cell, visits in cell_visits.items():
        visits.sort()
        for (t0, _, vacate0), (t1, enter1, _) in zip(visits, visits[1:]):
            if vacate0 is None:
                raise AdgError(f"cell {cell}: occupant at t={t0} never vacates before t={t1}")
            tasks[enter1].dependencies.add(vacate0)

    # validate_plan refuses shared vertices, swaps and rotations, so the graph
    # is acyclic; simulate_execution still reports a cycle as unfinished tasks
    return AdgGraph(tasks, robot_tasks, cell_visits)


def _dependents(graph: AdgGraph) -> list[list[int]]:
    """Per task id, the ids of the tasks that depend on it, ascending."""
    dependents: list[list[int]] = [[] for _ in graph.tasks]
    for t in graph.tasks:
        for d in t.dependencies:
            dependents[d].append(t.task_id)
    return dependents


@dataclass(slots=True)
class ExecEvent:
    t: float
    task_id: int
    robot_id: int
    transition: str


def simulate_execution(
    graph: AdgGraph,
    speed_profile: list[float],
    jitter_seed: int = 0,
    jitter_amplitude: float = 0.0,
    base_time: float = 1.0,
) -> list[ExecEvent]:
    """Event-driven execution; returns the status-transition log.

    Task k runs for base_time * speed_profile[robot] * (1 + jitter_amplitude * u)
    seconds, u being SplitMix64(derive_seed(jitter_seed, k)).random(). Anchor
    tasks complete instantly at t=0. Statuses move STAGED -> ENQUEUED (all
    dependencies DONE) -> DONE (arrival); the per-robot chain dependency keeps
    at most one task per robot in flight.
    """
    for m in speed_profile:
        if not 0 < m < math.inf:
            raise ValueError(f"speed_profile: speed multipliers must be finite and positive, got {m!r}")
    if len(speed_profile) != len(graph.robot_tasks):
        raise ValueError("speed_profile: need one speed multiplier per robot")
    if not 0 < base_time < math.inf:
        raise ValueError(f"base_time must be finite and positive, got {base_time!r}")
    if not -1 <= jitter_amplitude < math.inf:
        raise ValueError(f"jitter_amplitude must be finite and at least -1, got {jitter_amplitude!r}")
    tasks = graph.tasks
    robot = [task.robot_id for task in tasks]
    duration = [base_time * speed_profile[task.robot_id] * (1.0 + jitter_amplitude * u)
                if task.time else 0.0
                for task, u in zip(tasks, derived_uniforms(jitter_seed, len(tasks)))]
    remaining = [len(task.dependencies) for task in tasks]
    dependents = _dependents(graph)
    status = [STAGED] * len(tasks)

    log: list[ExecEvent] = []
    queue: list[tuple[float, int, int]] = []
    now = 0.0
    ready = [tid for tid, count in enumerate(remaining) if count == 0]
    while True:
        for tid in ready:
            if status[tid] != STAGED:
                raise AdgError(f"task {tid}: illegal transition {status[tid]} -> {ENQUEUED}")
            status[tid] = ENQUEUED
            log.append(ExecEvent(now, tid, robot[tid], ENQUEUED))
            # len(log) grows with every push, so it breaks ties in push order
            heapq.heappush(queue, (now + duration[tid], len(log), tid))
        if not queue:
            break
        # a task is pushed once, after its STAGED -> ENQUEUED check, so ENQUEUED -> DONE is legal
        now, _, tid = heapq.heappop(queue)
        status[tid] = DONE
        log.append(ExecEvent(now, tid, robot[tid], DONE))
        ready = []
        for nxt in dependents[tid]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                ready.append(nxt)
    for task, task_status in zip(tasks, status):
        task.status = task_status
    if status.count(DONE) != len(tasks):
        raise AdgError("simulation ended with unfinished tasks")
    return log


def occupancy_intervals(graph: AdgGraph, log: list[ExecEvent]) -> dict:
    """Per-cell continuous-time occupancy [enqueue-of-entering, done-of-vacating).

    A robot reserves its destination cell from the moment its entering task is
    enqueued and releases its previous cell when the move-out task completes,
    which is the conservative reading used by the safety checks.
    """
    enq = {}
    done = {}
    for ev in log:
        if ev.transition == ENQUEUED:
            enq[ev.task_id] = ev.t
        else:
            done[ev.task_id] = ev.t
    intervals: dict = {}
    horizon_end = max(done.values()) if done else 0.0
    for cell, visits in graph.cell_visits.items():
        for _, enter_id, vacate_id in visits:
            start = enq[enter_id]
            end = done[vacate_id] if vacate_id is not None else horizon_end
            robot = graph.tasks[enter_id].robot_id
            intervals.setdefault(cell, []).append((start, end, robot))
    return intervals
