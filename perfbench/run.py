"""Benchmark of the rtbuildup pipeline: pole search, kernel sums and analysis.

    python3 perfbench/run.py --workload poles-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced and traced

With ``--workload`` the last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` untraced (``--trace 0``), the per-layer metrics
from a traced run (``--trace 1``).  The line before it records the run: the
seed, the Python, numpy and scipy versions, ``nproc``, the thread settings,
the tail percentile, every set-up time and the failure fraction.

Each workload runs in fresh processes started from here (``worker.py``),
one client in a closed loop with numerical threads pinned to 1.  Set-up is
timed three times, in three processes, and the median is reported.
Operation times are scaled to a reference machine speed by a calibration
loop timed around each operation (``worker.calibrate``), because a shared
machine drifts in speed; the unscaled figures are in the record line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("poles-wide", "crossover", "pole-sum")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child(args, deadline: float, setup_only: bool) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    if args.small:
        command.append("--small")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        # run() kills the child on timeout and waits for it to end
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{args.workload} worker exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with ten samples beyond it.

    With fewer than 21 samples that percentile would lie below the median,
    so the median is reported instead, with the samples beyond it.
    """
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n // 2
    return ordered[rank], 100.0 * (rank + 1) / n, n - 1 - rank


def run_workload(args) -> tuple[dict, dict]:
    """(record of the run, final result line) for one workload."""
    spec = _spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    repeats = 1 if args.trace else SETUP_REPEATS
    children = [_child(args, deadline, setup_only=True) for _ in range(repeats - 1)]
    main = _child(args, deadline, setup_only=False)
    children.append(main)
    setups = [child["setup_s"] for child in children]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": main["env"], "setup_s_samples": setups,
        "attempted": main["attempted"], "failed": main["failed"],
        "fail_frac": main["failed"] / main["attempted"], "problems": main["problems"],
        "ops_per_pass": main["ops_per_pass"],
    }
    if args.trace:
        record["traced_passes"] = main["traced_passes"]
        metrics = {
            m["name"]: {"value": main["layers"][m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        raw, durations = main["durations"], main["scaled_durations"]
        tail_s, percentile, beyond = tail(durations)
        record.update(
            ops=len(durations), tail_percentile=percentile, tail_beyond=beyond,
            unscaled={"ops_per_s": len(raw) / sum(raw), "op_s.p50": statistics.median(raw),
                      "op_s.tail": tail(raw)[0],
                      "setup_s": statistics.median(c["setup_s_unscaled"] for c in children)},
        )
        values = {
            "ops_per_s": len(durations) / sum(durations),
            "op_s.p50": statistics.median(durations),
            "op_s.tail": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return record, result


def _run_all(args) -> int:
    """Every workload, untraced then traced, as a readable report."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            record, result = run_workload(sub)
            ok = ok and result["correct"]
            title = "per-layer (traced run)" if trace else "end-to-end"
            print(f"== {workload} seed {args.seed}: {title}; attempted {result['attempted']}, "
                  f"failed {result['failed']} (fail_frac {record['fail_frac']:.3g})")
            for name, m in result["metrics"].items():
                print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
            if not trace:
                print(f"   op_s.tail is p{record['tail_percentile']:.1f} with "
                      f"{record['tail_beyond']} of {record['ops']} samples beyond it")
            for problem in record["problems"]:
                print(f"   failure: {problem}")
    print(f"environment: {json.dumps(record['env'])}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="operation time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="short passes on small grids, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rtbuildup").is_dir():
        print(f"perfbench: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.seconds is None:
            args.seconds = float(_spec()["run_seconds"])
        if args.workload is None:
            return _run_all(args)
        record, result = run_workload(args)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
