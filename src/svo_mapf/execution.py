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
from dataclasses import dataclass, field

from .rng import SplitMix64, derive_seed

STAGED = "STAGED"
ENQUEUED = "ENQUEUED"
DONE = "DONE"

_STATUS_NEXT = {STAGED: ENQUEUED, ENQUEUED: DONE}


class PlanError(ValueError):
    """The input plan shares a vertex, swaps, steps off 4-adjacency or rotates."""


class AdgError(RuntimeError):
    """Internal consistency failure (cycle or broken precedence)."""


@dataclass
class AdgTask:
    task_id: int
    robot_id: int
    time: int
    dependencies: set[int] = field(default_factory=set)
    status: str = STAGED

    def advance(self, new_status: str) -> None:
        if _STATUS_NEXT.get(self.status) != new_status:
            raise AdgError(f"task {self.task_id}: illegal transition {self.status} -> {new_status}")
        self.status = new_status


@dataclass
class AdgGraph:
    tasks: list[AdgTask]
    robot_tasks: list[list[int]]            # per robot, task ids in time order
    cell_visits: dict                        # cell -> [(enter_t, enter_id, vacate_id|None)]
    horizon: int


def validate_plan(paths: list[list[tuple[int, int]]]) -> list[list[tuple[int, int]]]:
    """Pad to a common horizon and check that the ADG can execute the plan.

    The first failure raises, checked in this order: a shared vertex, a swap,
    a step that is neither idle nor 4-adjacent, and a rotation (robots that
    each enter the cell the next one leaves, so each move waits on the next).
    """
    if not paths or any(len(p) == 0 for p in paths):
        raise PlanError("every robot needs a non-empty path")
    horizon = max(len(p) for p in paths)
    padded = [list(p) + [p[-1]] * (horizon - len(p)) for p in paths]
    n = len(padded)
    occupant = []   # per t: cell -> robot
    for t in range(horizon):
        seen = {}
        for i in range(n):
            cell = padded[i][t]
            if cell in seen:
                raise PlanError(f"robots {seen[cell]} and {i} share {cell} at t={t}")
            seen[cell] = i
        occupant.append(seen)
    # leaves[t][i]: the robot whose cell robot i enters from t to t+1, in robot
    # order. No two robots enter one cell, so following leaves from i either
    # stops or returns to i: a 2-cycle is a swap, a longer one a rotation.
    leaves = [{i: here[padded[i][t + 1]] for i in range(n)
               if padded[i][t + 1] != padded[i][t] and padded[i][t + 1] in here}
              for t, here in enumerate(occupant[:-1])]
    for t, step in enumerate(leaves):
        for i, j in step.items():
            if j > i and step.get(j) == i:
                raise PlanError(f"robots {i} and {j} swap between t={t} and t={t + 1}")
    for path in padded:
        for a, b in zip(path, path[1:]):
            if (abs(b[0] - a[0]), abs(b[1] - a[1])) not in ((0, 0), (0, 1), (1, 0)):
                raise PlanError(f"plan steps {a} -> {b} are not 4-adjacent")
    for t, step in enumerate(leaves):
        seen = set()
        for i in step:
            cycle = [i]
            while cycle[-1] in step and cycle[-1] not in seen:
                seen.add(cycle[-1])
                cycle.append(step[cycle[-1]])
            if len(cycle) > 1 and cycle[-1] == i:
                raise PlanError(f"robots {', '.join(map(str, cycle[:-1]))} rotate between "
                                f"t={t} and t={t + 1}: each enters the cell the next one leaves")
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
    n = len(padded)
    horizon = len(padded[0]) - 1
    tasks: list[AdgTask] = []
    robot_tasks: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for t in range(horizon + 1):
            deps = {robot_tasks[i][-1]} if t else set()
            robot_tasks[i].append(len(tasks))
            tasks.append(AdgTask(len(tasks), i, t, dependencies=deps))

    # per-cell visit intervals: a visit starts with the task that arrives and
    # ends with the first task that moves out (None if the robot parks).
    cell_visits: dict = {}
    for i in range(n):
        t = 0
        while t <= horizon:
            cell = padded[i][t]
            enter_id = robot_tasks[i][t]
            leave = t
            while leave + 1 <= horizon and padded[i][leave + 1] == cell:
                leave += 1
            vacate_id = robot_tasks[i][leave + 1] if leave < horizon else None
            cell_visits.setdefault(cell, []).append((t, enter_id, vacate_id))
            t = leave + 1
    for cell, visits in cell_visits.items():
        visits.sort()
        for (t0, _, vacate0), (t1, enter1, _) in zip(visits, visits[1:]):
            if vacate0 is None:
                raise AdgError(f"cell {cell}: occupant at t={t0} never vacates before t={t1}")
            tasks[enter1].dependencies.add(vacate0)

    graph = AdgGraph(tasks, robot_tasks, cell_visits, horizon)
    topological_order(graph)  # asserts acyclicity
    return graph


def _dependents(graph: AdgGraph) -> list[list[int]]:
    """Per task id, the ids of the tasks that depend on it, ascending."""
    dependents: list[list[int]] = [[] for _ in graph.tasks]
    for t in graph.tasks:
        for d in t.dependencies:
            dependents[d].append(t.task_id)
    return dependents


def topological_order(graph: AdgGraph) -> list[int]:
    indeg = {t.task_id: len(t.dependencies) for t in graph.tasks}
    dependents = _dependents(graph)
    ready = [tid for tid, deg in indeg.items() if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for nxt in dependents[tid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(graph.tasks):
        raise AdgError("dependency graph is cyclic")
    return order


@dataclass
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

    Each task runs for base_time * speed_profile[robot] * (1 + amplitude * u)
    seconds, u being a per-task uniform draw from the jitter seed. Anchor
    tasks complete instantly at t=0. Statuses move STAGED -> ENQUEUED (all
    dependencies DONE) -> DONE (arrival); the per-robot chain dependency keeps
    at most one task per robot in flight.
    """
    if any(m <= 0 for m in speed_profile):
        raise ValueError("speed multipliers must be positive")
    if len(speed_profile) != len(graph.robot_tasks):
        raise ValueError("need one speed multiplier per robot")
    for task in graph.tasks:
        task.status = STAGED
    remaining = {t.task_id: len(t.dependencies) for t in graph.tasks}
    dependents = _dependents(graph)

    log: list[ExecEvent] = []
    queue: list[tuple[float, int, int]] = []
    seq = 0

    def enqueue(task: AdgTask, now: float) -> None:
        nonlocal seq
        task.advance(ENQUEUED)
        log.append(ExecEvent(now, task.task_id, task.robot_id, ENQUEUED))
        if task.time == 0:
            duration = 0.0
        else:
            u = SplitMix64(derive_seed(jitter_seed, task.task_id)).random()
            duration = base_time * speed_profile[task.robot_id] * (1.0 + jitter_amplitude * u)
        heapq.heappush(queue, (now + duration, seq, task.task_id))
        seq += 1

    for task in graph.tasks:
        if remaining[task.task_id] == 0:
            enqueue(task, 0.0)
    while queue:
        now, _, tid = heapq.heappop(queue)
        task = graph.tasks[tid]
        task.advance(DONE)
        log.append(ExecEvent(now, tid, task.robot_id, DONE))
        for nxt in dependents[tid]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                enqueue(graph.tasks[nxt], now)
    if any(t.status != DONE for t in graph.tasks):
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
