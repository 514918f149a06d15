import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtbuildup import ProfileError, cli
from rtbuildup.cli import main, parse_profile_text

SYMMETRIC_CFG = """\
# symmetric double-barrier structure
mass_factor = 0.067
segment = 30 0.5
segment = 100 0.0
segment = 30 0.5
"""

ASYMMETRIC_CFG = """\
mass_factor = 0.067
segment = 30 0.3
segment = 50 0.0
segment = 100 0.3
"""


@pytest.fixture(scope="module")
def cfg_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    sym = root / "symmetric.cfg"
    sym.write_text(SYMMETRIC_CFG)
    asym = root / "asymmetric.cfg"
    asym.write_text(ASYMMETRIC_CFG)
    return {"sym": str(sym), "asym": str(asym)}


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [
        [float(v) for v in line.split(",")]
        for line in lines[1:]
        if not line.startswith("#")
    ]
    return header, rows


# ------------------------------------------------------------------- parsing

def test_parse_profile_round_trip():
    p = parse_profile_text(SYMMETRIC_CFG)
    assert p.total_length == 160.0
    assert p.mass_factor == 0.067


def test_parse_profile_error_carries_line_number():
    with pytest.raises(ProfileError, match="line 2"):
        parse_profile_text("mass_factor = 0.067\nsegment = 30\n")
    with pytest.raises(ProfileError, match="line 1"):
        parse_profile_text("widht = 3\n")
    with pytest.raises(ProfileError, match="line 3"):
        parse_profile_text("segment = 30 0.5\n\nnot a key value line\n")
    with pytest.raises(ProfileError, match="^<string>, line 1: bad mass_factor 'abc'$"):
        parse_profile_text("mass_factor = abc\nsegment = 30 0.5\n")
    with pytest.raises(ProfileError, match="^<string>, line 2: bad segment numbers '30 x'$"):
        parse_profile_text("segment = 30 0.5\nsegment = 30 x\n")


def test_parse_profile_rejects_empty():
    with pytest.raises(ProfileError, match="no segment"):
        parse_profile_text("mass_factor = 0.067\n")


def test_cli_empty_profile_file_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert main(["poles", "--profile", str(empty)]) == 1
    assert "no segment" in capsys.readouterr().err


def test_cli_missing_profile_file_exits_one(tmp_path):
    assert main(["poles", "--profile", str(tmp_path / "nope.cfg")]) == 1


def test_cli_non_utf8_profile_file_exits_one(tmp_path, capsys):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"\xff" + SYMMETRIC_CFG.encode())
    assert main(["poles", "--profile", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read profile {path}") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_one(cfg_paths, tmp_path, capsys, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
    assert main(["poles", "--profile", cfg_paths["sym"], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_on_a_full_device_exits_one(cfg_paths, capsys):
    """--out opens, but the write fails: one error line, no traceback."""
    assert main(["poles", "--profile", cfg_paths["sym"], "--out", "/dev/full"]) == 1
    assert capsys.readouterr().err == "error: cannot write /dev/full: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", ["poles", "evolve"])
@pytest.mark.parametrize("where", ["directory", "missing-parent", "empty"])
def test_unwritable_out_exits_before_any_work(monkeypatch, cfg_paths, tmp_path, capsys, command, where):
    def no_search(*args, **kwargs):
        raise AssertionError("pole search ran before --out was checked")

    monkeypatch.setattr("rtbuildup.cli.find_poles", no_search)
    out = {"directory": tmp_path, "missing-parent": tmp_path / "missing" / "x.csv", "empty": ""}[where]
    argv = [command, "--profile", cfg_paths["sym"], "--out", str(out)]
    if command == "evolve":
        argv += ["--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1


def test_ceiling_near_double_max_exits_one(cfg_paths, capsys):
    """m22 overflows on the search contour long before 1e308 eV; the ceiling is refused, not counted as nan."""
    assert main(["poles", "--profile", cfg_paths["sym"], "--e-max-ev", "1e308"]) == 1
    err = capsys.readouterr().err
    assert err == "error: m22 overflows on the search contour at the ceiling 1e+308 eV\n"


@pytest.mark.parametrize("name, e_max", [("sym", "1e300"), ("sym", "1500"), ("asym", "1000")])
def test_ceiling_whose_contour_overflows_is_refused_before_the_count(cfg_paths, capsys, name, e_max):
    """Past k_hi L of about 709, m22 overflows at Im k = -k_hi; the refusal samples only that contour."""
    assert main(["poles", "--profile", cfg_paths[name], "--e-max-ev", e_max]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: m22 overflows on the search contour at the ceiling") and err.count("\n") == 1


def test_ceiling_with_a_finite_contour_still_fails_its_count(cfg_paths, capsys):
    """At 1000 eV the symmetric contour is finite but its count is wrong: a numerical failure, exit 2."""
    assert main(["poles", "--profile", cfg_paths["sym"], "--e-max-ev", "1000"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: winding count -41 != ")


def test_cli_usage_error_exits_one(cfg_paths):
    # missing required energy selection
    assert main(["evolve", "--profile", cfg_paths["sym"], "--x-angstrom", "80"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["poles", "--e-max-ev", "nan"], "ceiling nan eV"),
    (["poles", "--e-max-ev", "-1"], "ceiling -1.0 eV"),
    (["poles", "--e-max-ev", "1e-4"], "above the 0.001 eV search floor"),
    (["poles", "--e-max-ev", "inf"], "must be finite"),
    (["evolve", "--resonance", "1", "--x-angstrom", "80", "--points", "0"], "--points must be >= 1"),
    (["evolve", "--energy-ev", "nan", "--x-angstrom", "80"], "--energy-ev must be positive and finite"),
    (["evolve", "--resonance", "1", "--x-angstrom", "80", "--tau-max", "inf"], "tau-max < inf"),
    (["evolve", "--energy-ev", "0.09", "--x-angstrom", "80", "--tail-tol", "1e-8"],
     "unrecognized arguments: --tail-tol 1e-8"),
    (["evolve", "--resonance", "1", "--x-angstrom", "80", "--tau-min", "0.5", "--tau-max", "0.5",
      "--points", "3"], "--points > 1 needs tau-min < tau-max"),
])
def test_non_finite_or_out_of_range_numbers_exit_one(cfg_paths, tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--profile", cfg_paths["sym"], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err and "warning" not in err
    assert not out.exists()


def test_tau_grid_whose_times_round_together_exits_one(cfg_paths, tmp_path, capsys):
    """Two subnormal tau points round to one t at the 0.586 fs lifetime of resonance 12: refused after the search."""
    out = tmp_path / "out.csv"
    argv = ["evolve", "--profile", cfg_paths["sym"], "--resonance", "12", "--e-max-ev", "16", "--x-angstrom", "80",
            "--tau-min", "5e-324", "--tau-max", "1e-323", "--points", "2", "--grid", "linear", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the 2-point tau grid from 5e-324 to 1e-323 is not strictly increasing "
                          "and positive in t = tau * 0.586") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "buildup", "crossover"])
def test_time_grid_past_the_phase_precision_exits_one(cfg_paths, tmp_path, capsys, command):
    """From E t/hbar = 2^52 on no digit of the phase is right; such a grid is refused, not written as nan."""
    out = tmp_path / "out.csv"
    argv = [command, "--profile", cfg_paths["sym"], "--resonance", "1", "--auto-max", "--tau-max", "1e300"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tau-max 1e+300 gives a phase E t/hbar of ") and "2^52" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tau_max", [[], ["--tau-max", "1e6"]])
def test_time_grid_within_the_phase_precision_runs(cfg_paths, tmp_path, tau_max):
    out = tmp_path / "out.csv"
    argv = ["evolve", "--profile", cfg_paths["sym"], "--resonance", "1", "--auto-max"] + tau_max
    assert main(argv + ["--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 400 and np.all(np.isfinite(rows))


@pytest.mark.parametrize("mode", [[], ["--mode", "full"]])
def test_buildup_reaches_one_at_the_latest_time_within_the_phase_precision(cfg_paths, tmp_path, mode):
    """At tau = 1e12, E t/hbar still below 2^52, |Psi/phi| = 1 - exp(-tau) is 1 within 1e-11.

    It read 0.98777 while Re(y_k^2), which must be exactly 0, was squared as y * y.
    """
    out = tmp_path / "out.csv"
    argv = ["buildup", "--profile", cfg_paths["sym"], "--resonance", "1", "--auto-max",
            "--tau-max", "1e12", "--points", "5"] + mode
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = read_rows(out)
    tau, ratio_abs = rows[-1][header.index("tau")], rows[-1][header.index("ratio_abs")]
    assert tau == 1e12 and abs(ratio_abs - 1.0) <= 1e-11, ratio_abs


@pytest.mark.parametrize("argv, message", [
    (["--resonance", "1", "--x-angstrom", "80", "--points", "0"], "--points must be >= 1"),
    (["--resonance", "1", "--x-angstrom", "80", "--tau-max", "inf"], "tau-max < inf"),
    (["--energy-ev", "nan", "--x-angstrom", "80"], "--energy-ev must be positive and finite"),
    (["--resonance", "1", "--x-angstrom", "1e9"], "position 1000000000.0 outside [0, 160.0] A"),
    (["--resonance", "1", "--x-angstrom", "80", "--tau-min", "1", "--tau-max", "1.0000000000000002", "--points", "3"],
     "the 3-point tau grid from 1.0 to 1.0000000000000002 repeats a point in tau"),
    (["--resonance", "1", "--x-angstrom", "80", "--tau-min", "1", "--tau-max", "1.0000000000000002", "--points", "3",
      "--grid", "linear"], "the 3-point tau grid from 1.0 to 1.0000000000000002 repeats a point in tau"),
])
def test_usage_errors_that_need_no_pole_exit_before_the_search(monkeypatch, cfg_paths, capsys, argv, message):
    def no_search(*args, **kwargs):
        raise AssertionError("pole search ran before a check that needs no pole")

    monkeypatch.setattr("rtbuildup.cli.find_poles", no_search)
    assert main(["evolve", "--profile", cfg_paths["sym"]] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("line, message", [
    ("mass_factor = 0", "mass_factor must be positive and finite, got 0.0"),
    ("mass_factor = -0.067", "mass_factor must be positive and finite, got -0.067"),
    ("mass_factor = nan", "mass_factor must be positive and finite, got nan"),
    ("mass_factor = inf", "mass_factor must be positive and finite, got inf"),
    ("segment = 100 nan", "segment 1: height must be finite, got nan"),
    ("segment = inf 0.0", "segment 1: width must be positive and finite, got inf"),
    ("segment = 100 inf", "segment 1: height must be finite, got inf"),
])
def test_bad_profile_numbers_exit_one(tmp_path, capsys, line, message):
    lines = ["segment = 30 0.5", "segment = 100 0.0", "segment = 30 0.5"]
    if line.startswith("segment"):
        lines[1] = line
    else:
        lines.insert(0, line)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    assert main(["evolve", "--profile", str(cfg), "--resonance", "1", "--auto-max", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_parser_is_built_once():
    from rtbuildup.cli import build_parser

    assert build_parser() is build_parser()


# --------------------------------------------------------------------- poles

def test_poles_csv_matches_tables(cfg_paths, tmp_path, capsys):
    out = tmp_path / "poles.csv"
    assert main(["poles", "--profile", cfg_paths["sym"], "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["n", "eps_meV", "gamma_meV", "lifetime_fs", "R_n", "re_k", "im_k"]
    assert len(rows) == 3
    for row, (eps, gam) in zip(rows, [(37.8, 0.12), (149.2, 1.40), (325.7, 8.60)]):
        assert row[1] == pytest.approx(eps, abs=0.25)
        assert row[2] == pytest.approx(gam, abs=0.05)

    out2 = tmp_path / "asym.csv"
    assert main(["poles", "--profile", cfg_paths["asym"], "--out", str(out2)]) == 0
    _, rows = read_rows(out2)
    assert rows[0][1] == pytest.approx(89.1, abs=0.15)
    assert rows[0][2] == pytest.approx(2.4, abs=0.05)


@pytest.mark.parametrize("name", ["sym", "asym"])
def test_poles_at_barrier_top_writes_nothing_to_stderr(cfg_paths, tmp_path, capsys, name):
    # the default ceiling is the barrier top, a segment height
    assert main(["poles", "--profile", cfg_paths[name], "--out", str(tmp_path / "p.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_poles_csv_deterministic(cfg_paths, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["poles", "--profile", cfg_paths["sym"], "--out", str(a)]) == 0
    assert main(["poles", "--profile", cfg_paths["sym"], "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------------- evolve

def test_evolve_auto_max_positions(cfg_paths, tmp_path):
    from rtbuildup.cli import _auto_max_position, load_profile
    from rtbuildup import find_poles

    sym = load_profile(cfg_paths["sym"])
    poles = find_poles(sym, 0.5)
    assert _auto_max_position(sym, poles[0].eps_ev) == pytest.approx(80.0, abs=1.0)
    assert _auto_max_position(sym, poles[1].eps_ev) == pytest.approx(48.0, abs=2.0)


LIFTED_CFG = "segment = 30 0.3\nsegment = 100 0.05\nsegment = 30 0.3\n"


def golden_section_auto_max(profile, energy_ev):
    """Reference |phi|^2 maximum in the well: grid local maxima sharpened by golden section.

    Brent's bounded minimizer within one 0.25 A grid step either side of each
    grid maximum (both edges too when they reach the grid maximum); ties
    within 1e-9 relative go to the smallest x.
    """
    from scipy.optimize import minimize_scalar

    from rtbuildup import stationary_state

    interior = range(1, len(profile.segments) - 1)
    floor = min((profile.segments[j][1] for j in interior), default=None)
    wells = [
        (profile.boundaries[j], profile.boundaries[j + 1])
        for j in interior
        if profile.segments[j][1] == floor
    ] or [(profile.boundaries[0], profile.boundaries[-1])]
    state = stationary_state(profile, energy_ev)
    candidates = []
    for a, b in wells:
        xs = np.linspace(a, b, max(32, int((b - a) / 0.25) + 1))
        vals = np.abs(state.phi(xs)) ** 2
        peak_idx = list(np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1)
        peak_idx += [i for i in (0, len(xs) - 1) if vals[i] >= vals.max() * (1.0 - 1e-12)]
        for i in peak_idx:
            res = minimize_scalar(
                lambda x: -abs(state.phi(float(np.clip(x, a, b)))) ** 2,
                bounds=(xs[max(0, i - 1)], xs[min(len(xs) - 1, i + 1)]), method="bounded",
                options={"xatol": 1e-10},
            )
            candidates.append((float(np.clip(res.x, a, b)), float(-res.fun)))
    best = max(v for _, v in candidates)
    return min(x for x, v in candidates if v >= best * (1.0 - 1e-9))


def auto_max_cases():
    from rtbuildup import find_poles

    sym, asym = parse_profile_text(SYMMETRIC_CFG), parse_profile_text(ASYMMETRIC_CFG)
    cases = []
    for name, profile, top in (("sym", sym, 0.5), ("asym", asym, 0.3)):
        cases += [(f"{name}-res{n}", profile, s.eps_ev) for n, s in enumerate(find_poles(profile, top), 1)]
        cases += [(f"{name}-{e}", profile, e) for e in (0.03, 0.2, 0.31)]
    lifted = parse_profile_text(LIFTED_CFG)
    cases += [(f"lifted-{e}", lifted, e) for e in (0.02, 0.06, 0.12, 0.1295)]
    return cases


def test_closed_form_auto_max_matches_golden_section():
    from rtbuildup.cli import _auto_max_position

    cases = auto_max_cases()
    assert len(cases) == 14  # 3 + 1 resonances below the barrier tops, 6 energies, 4 lifted
    for label, profile, energy in cases:
        x = _auto_max_position(profile, energy)
        assert x == pytest.approx(golden_section_auto_max(profile, energy), abs=1e-6), label


@pytest.mark.parametrize("label, energy, edge", [
    ("lifted", 0.02, 30.0),  # evanescent in the well: |phi|^2 is convex there
    ("lifted", 0.06, 30.0),
    ("asym", 0.03, 30.0),
])
def test_auto_max_on_a_well_edge_is_the_edge_exactly(label, energy, edge):
    from rtbuildup.cli import _auto_max_position

    profile = parse_profile_text(LIFTED_CFG if label == "lifted" else ASYMMETRIC_CFG)
    assert _auto_max_position(profile, energy) == edge


@pytest.mark.parametrize("energy, segment", [(0.05, 0), (0.3, 1)])
def test_auto_max_without_interior_segments_searches_the_whole_profile(energy, segment):
    from rtbuildup import stationary_state
    from rtbuildup.cli import _auto_max_position

    profile = parse_profile_text("segment = 60 0.0\nsegment = 40 0.2\n")
    x = _auto_max_position(profile, energy)
    assert x == pytest.approx(golden_section_auto_max(profile, energy), abs=1e-6)
    assert profile.boundaries[segment] < x < profile.boundaries[segment + 1]
    phi = stationary_state(profile, energy).phi
    grid = np.abs(phi(np.linspace(0.0, profile.total_length, 20001))) ** 2
    assert abs(phi(x)) ** 2 >= np.max(grid) * (1.0 - 1e-12)


def test_cli_runs_leave_scipy_optimize_unimported(tmp_path):
    """Importing the CLI and running each subcommand never loads scipy.optimize."""
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rtbuildup

    configs = Path(__file__).resolve().parents[1] / "configs"
    negative = tmp_path / "negative_well.cfg"
    negative.write_text("segment = 30 0.3\nsegment = 100 -0.1\nsegment = 30 0.3\n")
    out = str(tmp_path / "out.csv")
    runs = [["poles", "--profile", str(negative)]]
    for cfg in ("symmetric.cfg", "asymmetric.cfg"):
        profile = ["--profile", str(configs / cfg), "--resonance", "1", "--auto-max", "--out", out]
        runs += [["poles", "--profile", str(configs / cfg), "--out", out], ["evolve"] + profile,
                 ["buildup"] + profile, ["crossover"] + profile + ["--points", "4001"]]
    script = (
        "import sys\n"
        "from rtbuildup.cli import main\n"
        "loaded = ['scipy.optimize' in sys.modules]\n"
        f"for argv in {runs!r}:\n"
        "    loaded.append((main(argv), 'scipy.optimize' in sys.modules))\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rtbuildup.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout)
    assert loaded[0] is False
    assert loaded[1] == (1, False)  # the negative well binds a state
    assert loaded[2:] == [(0, False)] * 8


def test_poles_leaves_scipy_unimported(tmp_path):
    """No subcommand imports scipy: ``poles`` evaluates no kernel, and ``evolve``, ``buildup`` and
    ``crossover`` take w from the package's own evaluator.  scipy is blocked, so an import raises."""
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    import rtbuildup

    configs = Path(__file__).resolve().parents[1] / "configs"
    out = str(tmp_path / "out.csv")
    sym, asym = str(configs / "symmetric.cfg"), str(configs / "asymmetric.cfg")
    poles = [["poles", "--profile", sym, "--out", out], ["poles", "--profile", asym, "--e-max-ev", "16", "--out", out]]
    kernels = [
        ["evolve", "--profile", sym, "--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full", "--out", out],
        ["buildup", "--profile", sym, "--resonance", "1", "--auto-max", "--out", out],
        ["crossover", "--profile", asym, "--resonance", "1", "--auto-max", "--points", "4001", "--out", out],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from rtbuildup.cli import main\n"
        "loaded = [sys.modules['scipy'] is not None]\n"
        f"for argv in {poles + kernels!r}:\n"
        "    loaded.append((main(argv), sys.modules['scipy'] is not None))\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rtbuildup.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout)
    assert loaded == [False] + [(0, False)] * 5


@pytest.mark.parametrize("energy", [0.06, 0.12, 0.1295])
def test_auto_max_on_lifted_well_stays_in_the_well(energy):
    from rtbuildup.cli import _auto_max_position

    lifted = parse_profile_text(LIFTED_CFG)
    assert 30.0 <= _auto_max_position(lifted, energy) <= 130.0


def test_poles_with_bound_state_exits_one(tmp_path, capsys):
    cfg = tmp_path / "negative_well.cfg"
    cfg.write_text("mass_factor = 0.067\nsegment = 30 0.3\nsegment = 100 -0.1\nsegment = 30 0.3\n")
    out = tmp_path / "poles.csv"
    assert main(["poles", "--profile", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bound state" in err and "-0.0637" in err
    assert "Traceback" not in err
    assert not out.exists()


BELOW_ZERO_POLE_CFG = "mass_factor = 0.5\nsegment = 1 0.25\nsegment = 24 0.015\n"


def test_pole_below_zero_energy_is_listed(tmp_path):
    """A legitimate fourth-quadrant pole with eps_n < 0: the full expansion needs it, so poles lists it."""
    cfg = tmp_path / "below_zero.cfg"
    cfg.write_text(BELOW_ZERO_POLE_CFG)
    out = tmp_path / "poles.csv"
    assert main(["poles", "--profile", str(cfg), "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert rows[0][header.index("eps_meV")] == pytest.approx(-18.877, abs=1e-3)


@pytest.mark.parametrize("command, position", [
    ("evolve", ["--x-angstrom", "5"]),
    ("buildup", ["--x-angstrom", "5"]),
    ("crossover", ["--auto-max"]),
])
def test_incidence_on_a_pole_below_zero_energy_exits_one(tmp_path, capsys, command, position):
    cfg = tmp_path / "below_zero.cfg"
    cfg.write_text(BELOW_ZERO_POLE_CFG)
    out = tmp_path / "out.csv"
    assert main([command, "--profile", str(cfg), "--resonance", "1", "--out", str(out)] + position) == 1
    err = capsys.readouterr().err
    assert err == "error: resonance 1 has eps = -18.8773 meV <= 0; incidence on it needs a positive energy\n"
    assert not out.exists()


@pytest.mark.parametrize("command, argv", [
    ("poles", []),
    ("evolve", ["--resonance", "1", "--x-angstrom", "40"]),
])
def test_gamow_normalization_that_is_not_finite_exits_two(tmp_path, capsys, command, argv):
    """Not NaN rows and exit 0: numpy's warnings were the only sign of the overflow."""
    cfg = tmp_path / "sub_ulp.cfg"
    cfg.write_text("mass_factor = 0.067\nsegment = 1e-200 0.3\nsegment = 50 0\nsegment = 30 0.3\n")
    out = tmp_path / "out.csv"
    assert main([command, "--profile", str(cfg), "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: normalization of the state at k = ") and err.count("\n") == 1
    assert not out.exists()


LONG_ZERO_SEGMENT_CFG = """\
mass_factor = 0.067
segment = 94.33 0
segment = 65.09 0.3
segment = 94.33 0.3
segment = 81.60 0.0177
"""


@pytest.mark.parametrize("command, mode", [("evolve", "full"), ("buildup", "single")])
def test_full_mode_on_a_long_zero_height_segment_exits_zero(tmp_path, command, mode):
    """Full mode searches its poles again to max(4E, E + 10 Gamma): 2.4 eV here, with 15 poles.

    A (psi, psi') march of m22 was rounding noise on that search's deep
    edge, so the full-mode evolve exited 2 where buildup exited 0.
    """
    cfg = tmp_path / "long_zero.cfg"
    cfg.write_text(LONG_ZERO_SEGMENT_CFG)
    out = tmp_path / "out.csv"
    assert main([command, "--profile", str(cfg), "--resonance", "1", "--auto-max", "--mode", mode,
                 "--points", "50", "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 50 and np.all(np.isfinite(rows))


@pytest.mark.parametrize(
    "cfg, energy, ceilings",
    [("sym", "0.1", [0.5]), ("asym", "0.05", [0.3]), ("sym", "0.2", [0.5, 0.8])],
    ids=["symmetric-0.1", "asymmetric-0.05", "symmetric-0.2"],
)
def test_full_mode_searches_again_only_above_the_ceiling_searched(monkeypatch, cfg_paths, tmp_path, cfg, energy, ceilings):
    """The pole set covers the higher of the barrier top and max(4E, E + 10 Gamma_widest).

    Below the barrier top, at 0.4 and 0.2 eV here, the first search's poles
    already cover the rule's ceiling; 4 x 0.2 eV lies above it.
    """
    searched = []
    search = cli.find_poles

    def recording(profile, e_max):
        searched.append(e_max)
        return search(profile, e_max)

    monkeypatch.setattr(cli, "find_poles", recording)
    argv = ["evolve", "--profile", cfg_paths[cfg], "--energy-ev", energy, "--x-angstrom", "80", "--mode", "full",
            "--points", "5", "--out", str(tmp_path / "evolve.csv")]
    assert main(argv) == 0
    assert searched == ceilings


@pytest.mark.parametrize("energy, code, message", [
    ("1e3", 1, "error: full mode searches poles to max(4E, E + 10 Gamma_widest) = 4000 eV: "
               "m22 overflows on the search contour at the ceiling 4000 eV\n"),
    ("200", 2, "numerical failure: full mode searches poles to max(4E, E + 10 Gamma_widest) = 800 eV: "
               "winding count "),
])
def test_full_mode_search_that_fails_names_its_rule_and_ceiling(cfg_paths, capsys, energy, code, message):
    """The refused or miscounted search is full mode's own, above the barrier-top ceiling the run was given."""
    argv = ["evolve", "--profile", cfg_paths["sym"], "--energy-ev", energy, "--x-angstrom", "80", "--mode", "full",
            "--points", "5"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_evolve_csv_structure(cfg_paths, tmp_path):
    out = tmp_path / "evolve.csv"
    code = main([
        "evolve", "--profile", cfg_paths["sym"], "--resonance", "1", "--auto-max",
        "--tau-min", "0.5", "--tau-max", "4", "--points", "16", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    assert header == ["t_fs", "tau", "re_psi", "im_psi", "abs2_psi", "abs2_phi"]
    assert len(rows) == 16
    taus = [r[1] for r in rows]
    assert taus[0] == pytest.approx(0.5) and taus[-1] == pytest.approx(4.0)
    for row in rows:
        assert row[4] == pytest.approx(row[2] ** 2 + row[3] ** 2, rel=1e-9)
    assert all(a[4] < b[4] for a, b in zip(rows, rows[1:]))  # buildup grows


def test_evolve_off_resonance_forces_full_mode(cfg_paths, tmp_path, capsys):
    out = tmp_path / "offres.csv"
    code = main([
        "evolve", "--profile", cfg_paths["sym"], "--energy-ev", "0.09",
        "--x-angstrom", "80", "--tau-min", "0.5", "--tau-max", "2",
        "--points", "4", "--out", str(out),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "single-resonance mode is invalid" in err
    assert err.count("\n") == 1  # the full pole sum adds no line of its own
    _, rows = read_rows(out)
    assert len(rows) == 4


def test_single_mode_warning_far_off_resonance_is_one_short_line(cfg_paths, capsys):
    """|E - eps_n| / Gamma_n near 1e304 prints in three digits, on one line, before the phase refusal."""
    code = main(["evolve", "--profile", cfg_paths["sym"], "--energy-ev", "1e300", "--x-angstrom", "80"])
    assert code == 1
    warning = capsys.readouterr().err.splitlines()[0]
    assert "single-resonance mode is invalid" in warning
    assert len(warning) < 200, warning


def test_evolve_energy_on_segment_height_finishes(cfg_paths, tmp_path):
    # E equals the barrier height, where a local wavevector is exactly zero;
    # the march floors |kappa w| there, k is not nudged, and the run completes
    out = tmp_path / "zero_k.csv"
    code = main([
        "evolve", "--profile", cfg_paths["sym"], "--energy-ev", "0.5",
        "--x-angstrom", "80", "--mode", "full", "--points", "4", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_rows(out)
    psi = np.asarray([[row[header.index("re_psi")], row[header.index("im_psi")]] for row in rows])
    assert psi.shape == (4, 2) and np.all(np.isfinite(psi))


def test_evolve_at_a_tiny_energy_prints_no_warning(cfg_paths):
    """At 1e-30 eV, with Python's default warning filters, five finite rows and an empty stderr."""
    import subprocess
    import sys
    from pathlib import Path

    import rtbuildup

    argv = ["evolve", "--profile", cfg_paths["sym"], "--energy-ev", "1e-30", "--x-angstrom", "80",
            "--mode", "full", "--points", "5"]
    env = {**os.environ, "PYTHONPATH": str(Path(rtbuildup.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "rtbuildup.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    rows = [[float(v) for v in line.split(",")] for line in done.stdout.splitlines()[1:] if not line.startswith("#")]
    assert len(rows) == 5 and np.all(np.isfinite(rows))


def test_evolve_unknown_resonance_index(cfg_paths):
    assert main([
        "evolve", "--profile", cfg_paths["sym"], "--resonance", "9", "--auto-max",
    ]) == 1


def test_missing_resonance_states_the_ceiling_rule(cfg_paths, capsys):
    """Up to 1.0 eV the search keeps 5 poles: the sixth, eps = 0.99468 eV, has Re k above k(1.0 eV).

    Both refusals state the rule the count follows, hbar^2 (Re k_n)^2/2m* <= e_max,
    so that pole is not read as one below the ceiling that went missing.
    """
    argv = ["buildup", "--profile", cfg_paths["sym"], "--resonance", "6", "--auto-max", "--e-max-ev", "1.0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: resonance 6 not found (5 pole(s) with hbar^2 (Re k_n)^2/2m* <= 1.0 eV)\n"
    argv[-1] = "0.002"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: no poles with hbar^2 (Re k_n)^2/2m* <= 0.002 eV in {cfg_paths['sym']}\n"


def test_every_subcommand_gives_the_ceiling_the_same_help():
    """poles, evolve, buildup and crossover all state which poles the ceiling keeps."""
    subcommands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    helps = {
        name: next(a.help for a in sub._actions if "--e-max-ev" in a.option_strings)
        for name, sub in subcommands.items()
    }
    assert sorted(helps) == ["buildup", "crossover", "evolve", "poles"]
    assert set(helps.values()) == {
        "pole search ceiling in eV (default: the barrier top); the search keeps the poles with hbar^2 (Re k_n)^2/2m* <= it"
    }


# ------------------------------------------------------------------- buildup

def test_buildup_csv_collapses_to_law(cfg_paths, tmp_path):
    files = {}
    for key, res, x in (("s1", "1", "80"), ("s2", "2", "48"), ("s3", "3", "80")):
        out = tmp_path / f"buildup_{key}.csv"
        code = main([
            "buildup", "--profile", cfg_paths["sym"], "--resonance", res,
            "--x-angstrom", x, "--tau-min", "0.5", "--tau-max", "8",
            "--points", "200", "--grid", "linear", "--out", str(out),
        ])
        assert code == 0
        files[key] = out
    out = tmp_path / "buildup_a1.csv"
    assert main([
        "buildup", "--profile", cfg_paths["asym"], "--resonance", "1",
        "--x-angstrom", "55", "--tau-min", "0.5", "--tau-max", "8",
        "--points", "200", "--grid", "linear", "--out", str(out),
    ]) == 0
    files["a1"] = out

    reference = None
    for key, path in files.items():
        header, rows = read_rows(path)
        assert header == ["tau", "ratio_abs", "ratio_abs2", "law_abs2"]
        arr = np.asarray(rows)
        law = (1.0 - np.exp(-0.5 * arr[:, 0])) ** 2
        np.testing.assert_allclose(arr[:, 3], law, rtol=1e-10)  # law column exactness
        assert np.max(np.abs(arr[:, 2] - law)) < 2e-2  # collapse at density level
        if reference is None:
            reference = arr
        else:
            assert np.max(np.abs(arr[:, 2] - reference[:, 2])) < 1e-2


def test_buildup_requires_resonance_selection(monkeypatch, cfg_paths, capsys):
    """Refused before the pole search, so no off-resonance warning comes first."""
    def no_search(*args, **kwargs):
        raise AssertionError("pole search ran before --resonance was checked")

    monkeypatch.setattr("rtbuildup.cli.find_poles", no_search)
    for command in ("buildup", "crossover"):
        argv = [command, "--profile", cfg_paths["sym"], "--energy-ev", "0.09", "--x-angstrom", "80"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {command} requires --resonance (on-resonance normalization)\n"


def test_buildup_single_point_grid(cfg_paths, tmp_path):
    out = tmp_path / "single.csv"
    code = main([
        "buildup", "--profile", cfg_paths["sym"], "--resonance", "1",
        "--x-angstrom", "80", "--tau-min", "2", "--tau-max", "2",
        "--points", "1", "--out", str(out),
    ])
    assert code == 0
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0][0] == 2.0
    assert rows[0][1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-2)


# ----------------------------------------------------------------- crossover

def test_crossover_summaries_and_ordering(cfg_paths, tmp_path):
    onsets = {}
    for res in ("1", "3"):
        out = tmp_path / f"cross_{res}.csv"
        code = main([
            "crossover", "--profile", cfg_paths["sym"], "--resonance", res,
            "--x-angstrom", "80", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,ln_delta,local_slope"
        summary = lines[-1]
        assert summary.startswith("# summary: tau_0 = ")
        fields = dict(
            part.strip().split(" = ")
            for part in summary.removeprefix("# summary: ").split(",")
        )
        assert float(fields["tau_0"]) == pytest.approx(2.0, abs=0.05)
        onsets[res] = float(fields["tau_onset"])
    assert onsets["1"] > onsets["3"]


def test_crossover_no_onset_in_short_range_exits_two(cfg_paths, tmp_path, capsys):
    out = tmp_path / "short.csv"
    code = main([
        "crossover", "--profile", cfg_paths["sym"], "--resonance", "1",
        "--x-angstrom", "80", "--tau-min", "0.5", "--tau-max", "6",
        "--points", "2001", "--out", str(out),
    ])
    assert code == 2
    assert "no onset" in capsys.readouterr().err
    lines = out.read_text().strip().splitlines()
    assert lines[-1].startswith("# summary: ")
    assert "nan" in lines[-1]


def test_csv_format_twelve_significant_digits(cfg_paths, tmp_path):
    out = tmp_path / "fmt.csv"
    main(["poles", "--profile", cfg_paths["sym"], "--out", str(out)])
    value = out.read_text().splitlines()[1].split(",")[1]
    mantissa = value.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 12
    assert "." in value


def test_csv_rows_format_like_fmt(tmp_path):
    from rtbuildup.cli import _fmt, _write_csv

    columns = [
        np.asarray([1, 12345678901234, 0], dtype=np.int64),
        [-0.0, 2.0 / 3.0, 1e-300],
        [float("nan"), float("-inf"), np.float64(-1.23456789012345e10)],
    ]
    out = tmp_path / "rows.csv"
    _write_csv(str(out), ["a", "b", "c"], columns, footer="# end")
    rows = zip(*columns)
    expected = ["a,b,c"] + [",".join(_fmt(v) for v in row) for row in rows] + ["# end"]
    assert out.read_text() == "\n".join(expected) + "\n"


def _every_keep_row(rng):
    """One value per keep row of the writer: each sign, exponent -11 ... 33 and last nonzero digit 0 ... 11.

    Every other value has internal zeros.
    """
    pos = np.arange(12)
    last = np.tile(pos, 90)[:, None]
    digits = rng.integers(1, 10, (1080, 12))
    digits[:, 0] += digits[:, 0] == 1  # no leading 1: alone it is a power of ten, which log10 can round across
    internal = (0 < pos) & (pos < last) & (rng.random((1080, 12)) < 0.5) & (np.arange(1080) % 2 == 1)[:, None]
    digits[(pos > last) | internal] = 0
    exponents = np.tile(np.repeat(np.arange(-11, 34), 12), 2)
    signs = np.repeat(["", "-"], 540)
    values = [float(f"{s}{m}e{e - 11}") for s, m, e in zip(signs, digits @ 10 ** (11 - pos), exponents)]
    return np.array(values).reshape(-1, 4)


def _csv_cases():
    """Seeded tables for the "%.12g" parity of _write_csv, by name."""
    rng = np.random.default_rng(20261018)
    powers = np.array([float(f"1e{p}") for p in range(-320, 309)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # 13 to 16 digits whose 13th is a final 5: exact ties in float64 up to 2**53
    twelve = rng.integers(10**11, 10**12, 2000)
    ties = ((twelve * 10 + 5) * 10 ** np.repeat(np.arange(4), 500)).astype(float)
    # the same decimal ties scaled by 10**p: the nearest double lies just off the tie
    near_ties = [float(f"{m}5e{p}") for m, p in zip(twelve.tolist(), rng.integers(-25, 25, 2000).tolist())]
    switches = np.array([9.9999999999995e-5, 1e-4, 1e12, 999999999999.5, 99999999999.95, 0.1, 1.0])
    switches = np.concatenate([switches, np.nextafter(switches, 0.0), np.nextafter(switches, np.inf)])
    big_exponents = np.ldexp(rng.uniform(1.0, 2.0, 600), rng.integers(330, 1020, 600)) * rng.choice([-1, 1], 600)
    big_exponents[300:] = 1.0 / big_exponents[300:]
    block = 4096

    def spread(rows, cols):
        return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-12, 35, (rows, cols))

    def several_blocks(cols, tail_rows):
        return spread(3 * (cli._CSV_BLOCK_CELLS // cols) + tail_rows, cols)

    def nan_column():
        """A slope column as a crossover with one-point windows writes it: mostly nan, of either sign bit."""
        table = several_blocks(3, 101)
        rows = rng.random(table.shape[0]) < 0.9
        table[rows, 2] = np.copysign(np.nan, rng.choice([-1.0, 1.0], rows.sum()))
        return table

    return {
        "random-64-bit-patterns": rng.integers(0, 2**64, (350_000, 3), dtype=np.uint64, endpoint=False).view(float),
        "powers-of-ten-and-neighbours": np.concatenate([neighbours, -neighbours]).reshape(-1, 2),
        "ties": np.concatenate([ties, near_ties, [999999999999.5, -999999999999.5]]).reshape(-1, 1),
        "fixed-scientific-switches": np.concatenate([switches, -switches]).reshape(-1, 6),
        "exponents-of-100-and-more": big_exponents.reshape(-1, 4),
        "int64-above-2**53": [
            rng.integers(2**53, 2**63, 1000, dtype=np.int64),
            rng.integers(-(2**63), -(2**53), 1000, dtype=np.int64),
            rng.standard_normal(1000),
        ],
        "zero-rows": np.empty((0, 3)),
        "one-row": np.array([[-0.0, 1.5, float("nan"), float("-inf"), 0.0, 2.0 / 3.0, 1e-5]]),
        "block-and-a-bit": rng.standard_normal((2 * block + 17, 2)) * 10.0 ** rng.integers(-12, 35, (2 * block + 17, 2)),
        **{f"{n}-columns": rng.standard_normal((300, n)) * 10.0 ** rng.integers(-6, 14, (300, n)) for n in range(1, 8)},
        "every-keep-row": _every_keep_row(rng),
        # three full blocks and a partial one, short enough for "%" or not
        "blocks-1-column": several_blocks(1, 17),
        "blocks-3-columns": several_blocks(3, 333),
        "blocks-7-columns": several_blocks(7, 5),
        "percent-only": rng.integers(0, 2**64, (cli._PERCENT_CELLS // 7, 7), dtype=np.uint64, endpoint=False).view(float),
        "nan-column": nan_column(),
    }


_CSV_CASES = _csv_cases()
# the cases that span several blocks also go through stdout; the rest, the
# 1.05 M cells of the random patterns among them, through the file alone
_CSV_STDOUT_CASES = {name for name in _CSV_CASES if name.startswith("block")} | {"nan-column"}


@pytest.mark.parametrize("name", list(_CSV_CASES))
def test_csv_writer_matches_percent_format_cell_by_cell(tmp_path, capsysbinary, name):
    table = _CSV_CASES[name]
    columns = list(table) if isinstance(table, list) else [table[:, j] for j in range(table.shape[1])]
    header = [f"c{j}" for j in range(len(columns))]
    out = tmp_path / "cells.csv"
    cli._write_csv(str(out), header, columns)
    written = out.read_bytes()
    if name in _CSV_STDOUT_CASES:
        cli._write_csv(None, header, columns)
        assert capsysbinary.readouterr().out == written
    cells = [v for row in zip(*(column.tolist() for column in columns)) for v in row]  # ints stay int
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    if written == (",".join(header) + "\n" + row * (len(cells) // len(columns)) % tuple(cells)).encode():
        return
    # the text differs: name the first cells that do
    lines = written.split(b"\n")
    assert lines[0] == ",".join(header).encode() and lines[-1] == b""
    got = [cell for line in lines[1:-1] for cell in line.split(b",")]
    expected = [("%.12g" % v).encode() for v in cells]
    assert len(got) == len(expected)
    mismatched = [(v, g, e) for v, g, e in zip(cells, got, expected) if g != e]
    assert not mismatched, mismatched[:5]
    pytest.fail("the cells match but the text does not")


def test_out_and_stdout_give_the_same_bytes(cfg_paths, tmp_path, capsysbinary):
    out = tmp_path / "crossover.csv"
    argv = ["crossover", "--profile", cfg_paths["sym"], "--resonance", "1", "--auto-max", "--points", "4001"]
    code_out = main(argv + ["--out", str(out)])
    assert capsysbinary.readouterr().out == b""
    code_stdout = main(argv)
    printed = capsysbinary.readouterr().out
    assert code_out == code_stdout
    assert printed == out.read_bytes()
    assert printed.startswith(b"tau,ln_delta,local_slope\n") and b"# summary: " in printed


@pytest.mark.parametrize("argv", [
    ["poles"],
    ["evolve", "--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full"],
    ["buildup", "--resonance", "1", "--auto-max"],
    ["crossover", "--resonance", "1", "--auto-max", "--points", "4001"],
], ids=["poles", "evolve", "buildup", "crossover"])
def test_text_only_stdout_gets_the_out_file_text(cfg_paths, tmp_path, argv):
    """stdout is written through its text layer, so one with no binary buffer, such as a StringIO, takes the CSV."""
    argv = argv + ["--profile", cfg_paths["sym"]]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0
    assert text.getvalue().encode() == out.read_bytes()


@pytest.mark.parametrize("command", ["poles", "evolve"])
@pytest.mark.parametrize("where", ["read-only-file", "read-only-directory"])
def test_read_only_out_exits_before_any_work(monkeypatch, cfg_paths, tmp_path, capsys, command, where):
    def no_search(*args, **kwargs):
        raise AssertionError("pole search ran before --out was checked")

    out = tmp_path / "locked" / "x.csv"
    out.parent.mkdir()
    if where == "read-only-file":
        out.write_text("kept\n")
    locked = str(out if where == "read-only-file" else out.parent)
    real_access = os.access

    def access(path, mode, **kwargs):  # file modes do not bind a superuser, so the refusal is simulated
        return False if str(path) == locked and mode & os.W_OK else real_access(path, mode, **kwargs)

    monkeypatch.setattr(os, "access", access)
    monkeypatch.setattr("rtbuildup.cli.find_poles", no_search)
    argv = [command, "--profile", cfg_paths["sym"], "--out", str(out)]
    if command == "evolve":
        argv += ["--energy-ev", "0.2", "--x-angstrom", "80", "--mode", "full"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}") and "not writable" in err and err.count("\n") == 1
    assert not out.exists() or out.read_text() == "kept\n"


# ------------------------------------------------------------ random profiles

_HEIGHTS = st.one_of(st.floats(-0.2, 0.8), st.sampled_from([0.0, 0.015, 0.3, 0.5]))
_SEGMENTS = st.lists(st.tuples(st.floats(1.0, 120.0), _HEIGHTS), min_size=1, max_size=6)


_RANDOM_RUNS = (
    ["poles"],
    ["crossover", "--resonance", "1", "--auto-max", "--points", "2001"],
    ["evolve", "--resonance", "1", "--auto-max", "--mode", "full", "--points", "50"],
    ["buildup", "--resonance", "1", "--auto-max", "--points", "50"],
)


# a fixed draw, about 10 s; a contour of rounding noise exits 2 at once (see test_resonances)
@settings(max_examples=400, deadline=None, derandomize=True)
@given(segments=_SEGMENTS, mass_factor=st.sampled_from([0.067, 0.5]))
@example(segments=[(1.0, 0.25), (24.0, 0.015)], mass_factor=0.5)  # a pole with eps_n < 0
def test_random_profiles_exit_with_a_documented_code(tmp_path_factory, segments, mass_factor):
    """Lifted and negative wells, single barriers, heights on 0: every run exits 0, 1 or 2, never raises.

    Each example's config goes to a file of its own and each CSV to stdout,
    held in memory.  Rewriting one config and one CSV file in place cost most
    of a minute on a slow disk: ext4 flushes a file truncated and written
    again when it is closed.
    """
    fd, cfg = tempfile.mkstemp(suffix=".cfg", dir=tmp_path_factory.getbasetemp())
    with os.fdopen(fd, "w") as fh:
        fh.write(f"mass_factor = {mass_factor!r}\n" + "".join(f"segment = {w!r} {h!r}\n" for w, h in segments))
    for argv in _RANDOM_RUNS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--profile", cfg])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue() and "last pole pair" not in err.getvalue(), argv
