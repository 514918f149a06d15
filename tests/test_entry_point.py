"""Command-line runs as a user makes them, each checked where no other test checks that run.

Most call ``main()`` in this process and write under ``tmp_path``.  A run
starts its own process (``python -m rtbuildup.cli``) only where the process
is the point: a fresh module state to compare against, a warning filter of
its own, or an exit code and a stderr with no traceback.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtbuildup
from rtbuildup import dynamics
from rtbuildup.cli import main
from test_api import refuse_tracer_only_functions

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYMMETRIC, ASYMMETRIC = str(CONFIGS / "symmetric.cfg"), str(CONFIGS / "asymmetric.cfg")


def cli(argv, *options, **run_options):
    """``python [options] -m rtbuildup.cli argv`` in a new process, with this package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(rtbuildup.__file__).parents[1])}
    return subprocess.run([sys.executable, *options, "-m", "rtbuildup.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120, **run_options)


def read_table(path):
    """(header, rows) of a CSV the CLI wrote, its comment lines left out."""
    lines = path.read_text().splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:] if not line.startswith("#")]
    return lines[0].split(","), np.array(rows)


def profile_file(tmp_path, segments, mass_factor=0.067):
    path = tmp_path / "profile.cfg"
    path.write_text(f"mass_factor = {mass_factor}\n" + segments)
    return str(path)


def test_asymmetric_search_to_2_ev_runs_no_seed_scan(tmp_path, monkeypatch):
    refuse_tracer_only_functions(monkeypatch)
    out = tmp_path / "p.csv"
    assert main(["poles", "--profile", ASYMMETRIC, "--e-max-ev", "2.0", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 10


def test_marched_m22_finds_8_poles_under_weak_barriers_to_32_ev(tmp_path):
    weak = profile_file(tmp_path, "segment = 10 0.02\nsegment = 20 0\nsegment = 10 0.02\n")
    out = tmp_path / "marched.csv"
    assert main(["poles", "--profile", weak, "--e-max-ev", "32", "--out", str(out)]) == 0
    assert len(read_table(out)[1]) == 8


FULL_AT_80 = ["evolve", "--profile", SYMMETRIC, "--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full"]


@pytest.mark.parametrize("ceiling, points", [([], "20000"), (["--e-max-ev", "32"], "20000"),
                                             (["--e-max-ev", "64"], "120000")],
                         ids=["5-pairs-20000", "38-pairs-20000", "53-pairs-120000"])
def test_full_mode_pole_sum_exits_zero(tmp_path, ceiling, points):
    """One pass over the grid in the calling thread; moments collapse 38 pairs; the band holds 53 on 120,000 points."""
    assert main(FULL_AT_80 + ceiling + ["--points", points, "--out", str(tmp_path / "evolve.csv")]) == 0


def test_kept_exp_tables_match_four_processes_byte_for_byte(tmp_path):
    """Four positions swept in this process, on one grid, write what four new processes write.

    The sweep's later evolves reuse the reflected rays' exp(y^2) tables; a
    process of its own builds every table afresh.
    """
    argv = ["evolve", "--profile", SYMMETRIC, "--energy-ev", "0.2", "--mode", "full", "--points", "20000"]
    positions = ("40", "60", "80", "100")
    for x in positions:
        assert main(argv + ["--x-angstrom", x, "--out", str(tmp_path / f"one_{x}.csv")]) == 0
    assert dynamics._kept_exp[1]
    for x in positions:
        own = tmp_path / f"own_{x}.csv"
        done = cli(argv + ["--x-angstrom", x, "--out", str(own)])
        assert done.returncode == 0, done.stderr
        assert own.read_bytes() == (tmp_path / f"one_{x}.csv").read_bytes(), x


def test_full_mode_prints_no_last_pair_warning(tmp_path, capsys):
    assert main(FULL_AT_80 + ["--out", str(tmp_path / "full.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_incidence_on_and_beside_the_barrier_top(tmp_path):
    """kappa w is floored inside the march at 0.5 eV and 1e-12 either side of it: abs2_phi agrees to 5e-10."""
    phi = []
    for energy in ("0.5", "0.5000000000005", "0.4999999999995"):
        out = tmp_path / f"barrier_top_{energy}.csv"
        argv = ["evolve", "--profile", SYMMETRIC, "--energy-ev", energy, "--x-angstrom", "80", "--mode", "full"]
        assert main(argv + ["--points", "200", "--out", str(out)]) == 0
        header, rows = read_table(out)
        assert rows.shape == (200, 6) and np.all(np.isfinite(rows)), energy
        phi.append(rows[0, header.index("abs2_phi")])
    assert (max(phi) - min(phi)) / max(phi) <= 5e-10


def test_far_moments_past_the_double_range_raise_no_runtime_warning(tmp_path):
    """At 1e-18 eV out to 1e16 lifetimes the free pair's far moments overflow a double; summed in scaled units."""
    out = tmp_path / "tiny_far.csv"
    argv = ["evolve", "--profile", SYMMETRIC, "--energy-ev", "1e-18", "--x-angstrom", "80", "--mode", "full",
            "--tau-min", "1", "--tau-max", "1e16", "--points", "5", "--out", str(out)]
    done = cli(argv, "-W", "error::RuntimeWarning")
    assert done.returncode == 0, done.stderr
    rows = read_table(out)[1]
    assert len(rows) == 5 and np.all(np.isfinite(rows))


def test_free_term_ray_pair_on_the_single_resonance_path(tmp_path):
    argv = ["buildup", "--profile", ASYMMETRIC, "--resonance", "1", "--auto-max", "--points", "24001"]
    assert main(argv + ["--out", str(tmp_path / "buildup.csv")]) == 0


@pytest.mark.parametrize("config, resonance", [(SYMMETRIC, "1"), (SYMMETRIC, "2"), (SYMMETRIC, "3"),
                                               (ASYMMETRIC, "1")], ids=["sym-1", "sym-2", "sym-3", "asym-1"])
def test_stationary_limit_through_the_entry_point(tmp_path, config, resonance):
    out = tmp_path / "stationary.csv"
    argv = ["buildup", "--profile", config, "--resonance", resonance, "--auto-max", "--tau-min", "0.25",
            "--tau-max", "60", "--points", "2000", "--grid", "linear", "--out", str(out)]
    assert main(argv) == 0
    header, rows = read_table(out)
    late = rows[rows[:, header.index("tau")] >= 40.0, header.index("ratio_abs2")]
    assert late.size and np.max(np.abs(late - 1.0)) <= 1e-3


def test_asymptotic_series_kernel_on_the_default_crossover_grid(tmp_path):
    """The default 24,001-point grid lies mostly beyond |y| = 8."""
    argv = ["crossover", "--profile", SYMMETRIC, "--resonance", "1", "--auto-max"]
    assert main(argv + ["--out", str(tmp_path / "crossover.csv")]) == 0


@pytest.mark.parametrize("config", [SYMMETRIC, ASYMMETRIC], ids=["symmetric", "asymmetric"])
def test_span_local_window_slopes_on_a_log_grid(tmp_path, config):
    out = tmp_path / "crossover_log.csv"
    argv = ["crossover", "--profile", config, "--resonance", "1", "--auto-max", "--grid", "log", "--points", "8001"]
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = read_table(out)
    slopes = rows[:, header.index("local_slope")]
    assert len(rows) == 8001 and not np.isnan(slopes).any()


def cap_address_space_at_2_gib():
    """Run in the child before exec: RLIMIT_AS limits that process alone."""
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("tau_max", ["1e8", "1e12"])
def test_crossover_to_a_far_tau_max_ends_with_no_onset_not_a_traceback(tmp_path, tau_max):
    """The onset windows are formed from the grid's points, so a far --tau-max needs no window grid up to it."""
    out = tmp_path / "far.csv"
    argv = ["crossover", "--profile", SYMMETRIC, "--resonance", "1", "--auto-max", "--tau-max", tau_max,
            "--out", str(out)]
    done = cli(argv, preexec_fn=cap_address_space_at_2_gib)
    assert done.returncode == 2, done.stderr
    assert done.stderr == "crossover analysis incomplete: no onset in range\n"
    assert "Traceback" not in done.stderr
    assert out.read_text().splitlines()[-1].startswith("# summary: tau_0 = nan, tau_onset = nan, R_n = ")


@pytest.mark.parametrize("argv", [
    ["crossover", "--profile", "{below_zero}", "--resonance", "1", "--auto-max"],
    ["poles", "--profile", SYMMETRIC, "--out", "{tmp}"],
    ["evolve", "--profile", SYMMETRIC, "--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full",
     "--e-max-ev", "64", "--points", "120000", "--out", "{tmp}/missing/x.csv"],
    ["buildup", "--profile", SYMMETRIC, "--energy-ev", "0.09", "--x-angstrom", "80"],
    ["poles", "--profile", SYMMETRIC, "--out", ""],
    # tau grids whose neighbours round together in double precision: 1 and the next double,
    # and subnormals that np.geomspace repeats
    ["evolve", "--profile", SYMMETRIC, "--resonance", "1", "--x-angstrom", "80", "--tau-min", "1",
     "--tau-max", "1.0000000000000002", "--points", "3", "--out", "{tmp}/collapsed.csv"],
    ["evolve", "--profile", SYMMETRIC, "--resonance", "1", "--x-angstrom", "80", "--tau-min", "5e-324",
     "--tau-max", "1e-300", "--out", "{tmp}/collapsed.csv"],
    # a grid of 8 GB, past the cap: its allocation fails at once
    ["evolve", "--profile", SYMMETRIC, "--resonance", "1", "--x-angstrom", "80", "--points", "1000000000",
     "--out", "{tmp}/huge.csv"],
], ids=["pole-below-zero", "out-directory", "out-missing-parent", "buildup-without-resonance", "out-empty",
        "tau-grid-next-double", "tau-grid-subnormal", "points-past-memory"])
def test_error_paths_exit_one_with_no_traceback(tmp_path, argv):
    """The process exits 1 with one error line and writes no file: no traceback, no warning."""
    below_zero = profile_file(tmp_path, "segment = 1 0.25\nsegment = 24 0.015\n", mass_factor=0.5)
    done = cli([a.format(below_zero=below_zero, tmp=tmp_path) for a in argv], preexec_fn=cap_address_space_at_2_gib)
    assert done.returncode == 1 and done.stderr.startswith("error: "), done.stderr
    assert "Traceback" not in done.stderr and "warning" not in done.stderr
    assert done.stderr.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_closed_stdout_pipe_exits_one_with_one_error_line():
    """A reader that closes the pipe after one line: exit 1 and one error line, no traceback.

    The default crossover CSV, about 1 MB, exceeds the pipe buffer, so the
    writer always meets the closed end.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(rtbuildup.__file__).parents[1])}
    argv = [sys.executable, "-m", "rtbuildup.cli", "crossover", "--profile", SYMMETRIC, "--resonance", "1",
            "--auto-max"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as child:
        assert child.stdout.readline() == "tau,ln_delta,local_slope\n"
        child.stdout.close()
        _, stderr = child.communicate(timeout=120)
    assert child.returncode == 1
    assert stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"
