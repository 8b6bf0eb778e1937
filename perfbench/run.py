"""svo-mapf benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload blocking-room --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory. ``--trace 0`` times the workload untraced and prints the
end-to-end metrics; ``--trace 1`` runs the workload's fixed first rounds with a
span around every public library function and prints the per-layer metrics.
Human-readable lines (machine metadata, every metric with its unit, sample
counts, error rate, output digests) come first; the last line is one JSON
object with the keys correct, attempted, failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 0

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "steps/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("adg_tasks_per_s", "tasks/s"),
    ("peak_rss_mb", "MB"),
)


def use_checkout_sources() -> None:
    """Import svo_mapf from this checkout's src/, never from anywhere else."""
    if not (SRC / "svo_mapf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no svo_mapf sources in {SRC}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import svo_mapf

    if Path(svo_mapf.__file__).resolve().parent != SRC / "svo_mapf":
        raise SystemExit(f"perfbench: svo_mapf was imported from {svo_mapf.__file__}, not {SRC}")


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def expected_digests(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED:
        return []
    with open(HERE / "expected_digests.json") as f:
        return json.load(f)[workload]


def measure(spec, seed: int, seconds: float, trace: bool, expected=(), out=print) -> dict:
    """Run one workload, print its report, and return the result object."""
    import workloads

    meta = {"workload": spec.name, "seed": seed, "trace": int(trace), **machine()}
    out("meta " + json.dumps(meta))
    if trace:
        from tracing import PER_LAYER

        values, info, tally, tracer = workloads.run_traced(spec, seed, expected)
        units = PER_LAYER
        spans = HERE / "out" / f"spans-{spec.name}.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
        out(f"info spans_file {spans.relative_to(HERE.parent)}")
    else:
        values, info, tally = workloads.run_untraced(spec, seed, seconds, expected)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    for name, unit in units:
        out(f"metric {name} {values[name]!r} {unit}")
    for key, value in info.items():
        out(f"info {key} {json.dumps(value)}")
    out(f"info error_rate {tally.error_rate!r} fraction ({tally.failed} of {tally.attempted} operations)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    out(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            expected_digests(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
