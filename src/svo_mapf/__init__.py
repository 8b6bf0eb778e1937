"""Socially-aware multi-agent pathfinding simulation toolkit.

Subpackages cover map/scenario generation, shortest-path fields, path-overlap
partner selection with SVO reward redistribution, SVO-ordered conflict
resolution, a discrete-time gridworld, a desk-scale two-level policy trainer,
dependency-ordered plan execution, and a benchmark harness.
"""

from .mapgen import GridMap, Scenario, gen_corridor, gen_maze, gen_random, gen_room, read_map
from .pathing import PathFlow, astar_path, distance_field
from .social import compute_overlap, redistribute_rewards, stability_target, svo_bin_angles, update_fixed_partners
from .resolver import ResolutionOutcome, greedy_intents, resolve
from .gridworld import EnvConfig, Gridworld, detect_blocking, observe
from .execution import AdgGraph, AdgTask, build_adg, simulate_execution
from .harness import BenchmarkReport, corridor_case_study, paired_t_test, run_batch, run_episode

__all__ = [
    "GridMap", "Scenario", "gen_random", "gen_room", "gen_maze", "gen_corridor", "read_map",
    "PathFlow", "distance_field", "astar_path",
    "compute_overlap", "update_fixed_partners", "redistribute_rewards",
    "stability_target", "svo_bin_angles",
    "ResolutionOutcome", "resolve", "greedy_intents",
    "EnvConfig", "Gridworld", "observe", "detect_blocking",
    "AdgTask", "AdgGraph", "build_adg", "simulate_execution",
    "BenchmarkReport", "run_batch", "run_episode", "paired_t_test", "corridor_case_study",
]

__version__ = "0.1.0"
