"""One workload in one fresh process: set-up, a warm-up operation, timed passes.

Started by ``run.py``; prints one JSON object as its last line of output.
With ``--setup-only`` it stops once set-up is done, so the parent can time
set-up several times.  ``--spawned-at`` is the parent's ``time.monotonic()``
just before it started this process, which puts interpreter start and
imports inside the set-up time.
"""

from __future__ import annotations

import os

# must precede the first numpy import, here and in the package
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.special import wofz

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 5
# the calibration below takes about this long on the 2-vCPU x86-64 cloud
# machine the benchmark was defined on; reported times are scaled to it
REFERENCE_S = 0.008


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, numpy and scipy work.

    Shared machines drift in speed by tens of percent over seconds.  The
    calibration is timed before and after every operation, and each time is
    scaled by the median calibration around it (see ``scaled``), which
    cancels most of that drift; the raw times are kept in the record.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    z = np.linspace(0.0, 3.0, 5000) * (1 + 1j)
    for _ in range(3):
        wofz(z)
    big = np.linspace(0.0, 1.0, 20000) * (1 + 1j)
    for _ in range(6):
        big = np.sqrt(big * big + 1.0)
    return time.perf_counter() - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--small", action="store_true")
    return parser.parse_args(argv)


class Outcomes:
    """Operation times and failures of the timed passes."""

    def __init__(self):
        self.durations: list[float] = []
        self.calibrations: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, item_label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{item_label}: {'; '.join(problems[:3])}")


def scaled(durations, calibrations, reach=2):
    """Durations at the reference speed, each scaled by the median of the
    calibrations of the operations within ``reach`` of it."""
    out = []
    for i, duration in enumerate(durations):
        near = calibrations[max(0, i - reach): i + reach + 1]
        out.append(duration * REFERENCE_S / statistics.median(c for pair in near for c in pair))
    return out


def _operate(rt, workload, item, tracer, outcomes):
    """One timed operation and its check; returns (seconds, calibrations around it)."""
    label = item["structure"].name
    before = calibrate()
    start = time.perf_counter()
    try:
        output = workload.run(rt, item, tracer)
        problems = None
    except Exception as exc:  # a failed operation is counted, not fatal
        problems = [f"{type(exc).__name__}: {exc}"]
    duration = time.perf_counter() - start
    after = calibrate()
    if problems is None:
        try:
            problems = workload.check(item, output, tracer)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    outcomes.record(label, problems)
    return duration, (before, after)


def _one_pass(rt, workload, tracer, outcomes):
    """Every operation once; returns its operation time at the reference speed."""
    total = 0.0
    for item in workload.items:
        duration, calibration = _operate(rt, workload, item, tracer, outcomes)
        outcomes.durations.append(duration)
        outcomes.calibrations.append(calibration)
        total += duration * REFERENCE_S / statistics.mean(calibration)
    return total


def _traced_passes(rt, workload, tracer, outcomes, passes):
    """Untraced and traced passes in turn; returns (traced marks, overhead)."""
    plain, traced, marks = [], [], []
    for _ in range(passes):
        tracer.active = False
        plain.append(_one_pass(rt, workload, tracer, outcomes))
        tracer.active = True
        before = tracer.mark()
        traced.append(_one_pass(rt, workload, tracer, outcomes))
        marks.append((before, tracer.mark()))
        tracer.active = False
    return marks, sum(traced) / sum(plain) - 1.0


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import rtbuildup as rt
        import rtbuildup.cli  # noqa: F401  (rt.cli for the CLI workloads)
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import spans
    import workloads

    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(
            args.workload, str(workdir), args.seed, str(ROOT / "configs"), args.small
        )
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
            tracer.active = True
        setup_marks = [tracer.mark()]
        workload.setup(rt, tracer)
        setup_marks.append(tracer.mark())
        tracer.active = False

        outcomes = Outcomes()
        _operate(rt, workload, workload.items[0], tracer, outcomes)
        setup_s = time.monotonic() - args.spawned_at
        speed = REFERENCE_S / statistics.median(calibrate() for _ in range(3))
        result = {"setup_s": setup_s * speed, "setup_s_unscaled": setup_s}
        if not args.setup_only:
            passes = max(1, round(args.seconds / workload.pass_seconds))
            if args.trace:
                marks, overhead = _traced_passes(
                    rt, workload, tracer, outcomes, max(1, passes // 2)
                )
                result["layers"] = spans.layer_metrics(tracer, setup_marks, marks, overhead)
                result["traced_passes"] = len(marks)
            else:
                for _ in range(passes):
                    _one_pass(rt, workload, tracer, outcomes)
                result["durations"] = outcomes.durations
                result["scaled_durations"] = scaled(outcomes.durations, outcomes.calibrations)
            result.update(
                attempted=outcomes.attempted,
                failed=outcomes.failed,
                problems=outcomes.problems,
                ops_per_pass=len(workload.items),
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                env={
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "nproc": len(os.sched_getaffinity(0)),
                    "threads": {v: os.environ[v] for v in THREAD_VARS},
                },
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
