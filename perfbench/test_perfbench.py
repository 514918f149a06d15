"""Self-test of the benchmark at small sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every metric of ``BENCHMARK.json`` prints with its unit, that the
per-layer counts repeat exactly between two runs on one seed, and that each
output check rejects a corrupted output.
"""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return record, result


@pytest.fixture(scope="module")
def runs():
    return {
        (w["name"], trace, rep): run_bench(w["name"], trace)
        for w in SPEC["workloads"]
        for trace, rep in ((0, 0), (1, 0), (1, 1))
    }


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(runs, trace, kind):
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    for w in SPEC["workloads"]:
        record, result = runs[(w["name"], trace, 0)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
        assert record["seed"] == SEED and record["env"]["threads"]["OMP_NUM_THREADS"] == "1"


def test_counts_repeat_exactly(runs):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for w in SPEC["workloads"]:
        first = runs[(w["name"], 1, 0)][1]["metrics"]
        second = runs[(w["name"], 1, 1)][1]["metrics"]
        assert {c: first[c]["value"] for c in counts} == {c: second[c]["value"] for c in counts}


def cli_output(args, tmp_path):
    from rtbuildup.cli import main

    out = tmp_path / "out.csv"
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_poles_check_rejects_a_moved_pole(tmp_path):
    sym = workloads.load_config(str(ROOT / "configs" / "symmetric.cfg"))
    code, text = cli_output(["poles", "--profile", str(ROOT / "configs" / "symmetric.cfg"),
                             "--e-max-ev", "0.6"], tmp_path)
    assert code == 0
    assert checks.check_poles(text, sym.segments, sym.mass_factor, "symmetric") == []
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    moved = "\n".join(lines[:2] + [",".join(fields)] + lines[3:])
    assert checks.check_poles(moved, sym.segments, sym.mass_factor, None)
    swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:])
    assert checks.check_poles(swapped, sym.segments, sym.mass_factor, None)


def test_crossover_check_rejects_a_wrong_time_constant(tmp_path):
    code, text = cli_output(["crossover", "--profile", str(ROOT / "configs" / "asymmetric.cfg"),
                             "--resonance", "1", "--auto-max", "--points", "4001"], tmp_path)
    assert checks.check_crossover(code, text) == []
    head, _, summary = text.rstrip("\n").rpartition("\n")
    fields = dict(part.strip().split(" = ") for part in summary[len("# summary: "):].split(","))
    for key, bad in (("tau_0", "2.1"), ("tau_onset", "nan")):
        corrupted = "# summary: " + ", ".join(
            f"{k} = {bad if k == key else v}" for k, v in fields.items())
        assert checks.check_crossover(code, head + "\n" + corrupted + "\n")
    assert checks.check_crossover(2, text)


def test_pole_sum_check_rejects_a_perturbed_sample():
    import numpy as np

    import rtbuildup as rt

    profile = rt.build_profile([(30.0, 0.5), (100.0, 0.0), (30.0, 0.5)])
    poles = rt.find_poles(profile, 0.4)
    t_fs = np.geomspace(0.1, 1e4, 200)
    energy, x = 0.09, 63.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", rt.ConvergenceWarning)
        solution = rt.evolve_full(profile, poles, energy, x, t_fs=t_fs)
    samples = [0, 50, 120, 199]
    reference = checks.pole_sum_reference(
        energy, 0.067, solution.phi, [(p.k, p.u0, p.u(x)) for p in poles],
        [float(t_fs[i]) for i in samples],
    )
    psi = [complex(solution.psi[i]) for i in samples]
    assert checks.check_pole_sum(psi, reference) == []
    psi[2] *= 1.0 + 1e-6
    assert checks.check_pole_sum(psi, reference)
