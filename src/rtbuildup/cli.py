"""Command-line interface: figure-ready CSV datasets from profile configs.

Subcommands:
    poles      resonance table (n, eps, Gamma, lifetime, R_n, k)
    evolve     Psi(x, k; t) time series at fixed position
    buildup    normalized buildup |Psi/phi| vs tau with the charging-law column
    crossover  ln delta(tau) with local slopes and a tau_0/tau_onset summary

Profiles are plain-text files with one ``mass_factor = <float>`` line and
repeated ``segment = <width_angstrom> <height_eV>`` lines; ``#`` starts a
comment.  Exit codes: 0 success, 1 usage/parse error or a profile with a
bound state (which the resonance expansion omits), 2 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import (
    FitWindowError,
    NodePositionError,
    NoOnsetError,
    delta_curve,
    detect_onset,
    exponential_law,
    local_slopes,
    normalize_buildup,
)
from .dynamics import evolve_full, evolve_single_resonance
from .profile import PotentialProfile, ProfileError, build_profile
from .resonances import (
    BoundStateError,
    GamowResidualError,
    PoleConvergenceError,
    ResonantState,
    SCAN_FLOOR_EV,
    WindingMismatchError,
    find_poles,
)
from .scattering import ZeroWavevectorError, stationary_state

USAGE_ERROR = 1
NUMERICAL_ERROR = 2


class CliUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise CliUsageError(message)


def parse_profile_text(text: str, source: str = "<string>") -> PotentialProfile:
    """Profile from the key/value config format; errors carry line numbers."""
    segments: list[tuple[float, float]] = []
    mass_factor = 0.067
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProfileError(f"{source}, line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "mass_factor":
            try:
                mass_factor = float(value)
            except ValueError:
                raise ProfileError(f"{source}, line {lineno}: bad mass_factor {value!r}") from None
        elif key == "segment":
            parts = value.split()
            if len(parts) != 2:
                raise ProfileError(
                    f"{source}, line {lineno}: segment needs '<width_A> <height_eV>', got {value!r}"
                )
            try:
                segments.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ProfileError(f"{source}, line {lineno}: bad segment numbers {value!r}") from None
        else:
            raise ProfileError(f"{source}, line {lineno}: unknown key {key!r}")
    if not segments:
        raise ProfileError(f"{source}: no segment lines found")
    return build_profile(segments, mass_factor=mass_factor)


def load_profile(path: str) -> PotentialProfile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsageError(f"cannot read profile {path}: {exc}") from None
    return parse_profile_text(text, source=path)


def _fmt(value) -> str:
    return f"{value:.12g}"


def _write_csv(path: str | None, header: list[str], columns, footer: str | None = None) -> None:
    """One 1-D column per header name; "%.12g" formats exactly as _fmt does, nan and -0 included."""
    table = np.column_stack(columns)
    template = (",".join(["%.12g"] * len(header)) + "\n") * table.shape[0]
    text = ",".join(header) + "\n" + template % tuple(table.ravel().tolist())
    if footer is not None:
        text += footer + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliUsageError(f"cannot write {path}: {exc}") from None


def _check_out(path: str | None) -> None:
    """Refuse an --out that no file can be opened at, before any work is done."""
    if path is None:
        return
    if not path:
        raise CliUsageError("cannot write '': empty path")
    if os.path.isdir(path):
        raise CliUsageError(f"cannot write {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise CliUsageError(f"cannot write {path}: no directory {parent}")


@dataclass
class _Selection:
    profile: PotentialProfile
    poles: list[ResonantState]
    state: ResonantState
    index: int
    energy_ev: float
    x: float
    mode: str


def _add_common(parser, grid_defaults=(0.01, 50.0, 400, "log")):
    parser.add_argument("--profile", required=True, help="profile config file")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--resonance", type=int, metavar="N", help="incide at resonance N (1-based)")
    group.add_argument("--energy-ev", type=float, help="explicit incidence energy in eV")
    pos = parser.add_mutually_exclusive_group(required=True)
    pos.add_argument("--x-angstrom", type=float, help="fixed position in angstrom")
    pos.add_argument(
        "--auto-max",
        action="store_true",
        help="position at the closed-form |phi|^2 maximum inside the well",
    )
    tmin, tmax, pts, spacing = grid_defaults
    parser.add_argument("--tau-min", type=float, default=tmin)
    parser.add_argument("--tau-max", type=float, default=tmax)
    parser.add_argument("--points", type=int, default=pts)
    parser.add_argument("--grid", choices=("log", "linear"), default=spacing)
    parser.add_argument("--mode", choices=("single", "full"), default="single")
    parser.add_argument("--e-max-ev", type=float, default=None, help="pole search ceiling")
    parser.add_argument("--tail-tol", type=float, default=1e-8)
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _tau_grid(args) -> np.ndarray:
    if args.points < 1:
        raise CliUsageError("--points must be >= 1")
    if not (0.0 < args.tau_min <= args.tau_max < math.inf):
        raise CliUsageError("need 0 < tau-min <= tau-max < inf")
    if args.points > 1 and args.tau_min == args.tau_max:
        raise CliUsageError("--points > 1 needs tau-min < tau-max")
    if args.points == 1:
        return np.asarray([args.tau_min])
    if args.grid == "log":
        return np.geomspace(args.tau_min, args.tau_max, args.points)
    return np.linspace(args.tau_min, args.tau_max, args.points)


def _e_max(args, profile: PotentialProfile) -> float:
    """The pole search ceiling: --e-max-ev, or else the barrier top."""
    if args.e_max_ev is None:
        e_max = float(np.max(profile.heights))
        if e_max <= 0.0:
            raise CliUsageError("profile has no barrier; no resonances to search for")
    else:
        e_max = args.e_max_ev
    if not SCAN_FLOOR_EV < e_max < math.inf:
        raise CliUsageError(
            f"pole search ceiling {e_max} eV must be finite and above the {SCAN_FLOOR_EV} eV scan floor"
        )
    return e_max


def _auto_max_position(profile: PotentialProfile, energy_ev: float) -> float:
    """Position of the |phi|^2 maximum inside the lowest interior segments (the well).

    In a segment [a, b] of height V, phi(a + s) = A e^{i kappa s} + B e^{-i kappa s}
    with kappa^2 = k^2 - V / c2 and A, B = (phi(a) +- phi'(a) / (i kappa)) / 2.
    For real kappa, |phi|^2 = |A|^2 + |B|^2 + 2 Re(A B* e^{2i kappa s}) peaks
    at s = (2 pi m - arg(A B*)) / (2 kappa); for imaginary kappa it is convex,
    so only the edges can be the maximum.  Both edges are always candidates.
    A symmetric structure at resonance has exactly degenerate lobes, so ties
    (within 1e-9 relative) are resolved toward the smallest x.
    """
    heights = profile.heights
    interior = heights[1:-1]
    chosen = 1 + np.flatnonzero(interior == interior.min()) if interior.size else np.arange(heights.size)
    state = stationary_state(profile, energy_ev)
    a, b = profile.boundaries[chosen], profile.boundaries[chosen + 1]
    kappa2 = state.k**2 - heights[chosen] / profile.constants.hbar2_over_2m
    phi_a = state.phi(a)
    ratio = state.phi_derivative(a) / (1j * np.sqrt(kappa2.astype(complex)))
    phase = np.angle((phi_a + ratio) * np.conj(phi_a - ratio))
    turn = 2.0 * math.pi
    candidates = [a, b]
    for lo, hi, k2, ph in zip(a, b, kappa2, phase):
        if k2 > 0.0:  # one maximum per half wavelength
            two_kappa = 2.0 * math.sqrt(k2)
            m = np.arange(math.ceil(ph / turn), math.floor((two_kappa * (hi - lo) + ph) / turn) + 1)
            candidates.append(np.clip(lo + (turn * m - ph) / two_kappa, lo, hi))
    xs = np.concatenate(candidates)
    vals = np.abs(state.phi(xs)) ** 2
    return float(np.min(xs[vals >= vals.max() * (1.0 - 1e-9)]))


def _select(args) -> _Selection:
    if not args.tail_tol > 0.0:  # also refuses NaN, which would switch the warning off
        raise CliUsageError("--tail-tol must be positive")
    profile = load_profile(args.profile)
    e_max = _e_max(args, profile)
    if args.energy_ev is not None and not 0.0 < args.energy_ev < math.inf:
        raise CliUsageError("--energy-ev must be positive and finite")
    if args.x_angstrom is not None and not 0.0 <= args.x_angstrom <= profile.total_length:
        raise CliUsageError(f"position {args.x_angstrom} outside [0, {profile.total_length}] A")
    poles = find_poles(profile, e_max)
    if not poles:
        raise CliUsageError(f"no resonances below {e_max} eV in {args.profile}")

    if args.resonance is not None:
        if not 1 <= args.resonance <= len(poles):
            raise CliUsageError(
                f"resonance {args.resonance} not found ({len(poles)} pole(s) below {e_max} eV)"
            )
        index = args.resonance
        state = poles[index - 1]
        energy = state.eps_ev
        mode = args.mode
    else:
        energy = args.energy_ev
        state = min(poles, key=lambda s: abs(s.eps_ev - energy))
        index = poles.index(state) + 1
        mode = args.mode
        if abs(energy - state.eps_ev) > 3.0 * state.gamma_ev and mode == "single":
            print(
                f"warning: E = {energy} eV is {abs(energy - state.eps_ev) / state.gamma_ev:.1f} "
                "widths from the nearest resonance; single-resonance mode is invalid, "
                "running the full expansion",
                file=sys.stderr,
            )
            mode = "full"

    x = args.x_angstrom if args.x_angstrom is not None else _auto_max_position(profile, energy)
    return _Selection(profile, poles, state, index, energy, x, mode)


def _evolve_selection(sel: _Selection, tau: np.ndarray, args):
    if sel.mode == "single":
        return evolve_single_resonance(sel.profile, sel.state, sel.energy_ev, sel.x, tau=tau)
    gamma_widest = max(s.gamma_ev for s in sel.poles)
    e_pole_max = max(4.0 * sel.energy_ev, sel.energy_ev + 10.0 * gamma_widest)
    poles = sel.poles
    if e_pole_max > max(s.eps_ev for s in poles):
        poles = find_poles(sel.profile, e_pole_max)
    return evolve_full(
        sel.profile, poles, sel.energy_ev, sel.x,
        tau=tau, reference=sel.state, tail_tol=args.tail_tol,
    )


def cmd_poles(args) -> int:
    profile = load_profile(args.profile)
    poles = find_poles(profile, _e_max(args, profile))
    columns = [
        np.arange(1, len(poles) + 1),
        [s.eps_mev for s in poles],
        [s.gamma_mev for s in poles],
        [s.lifetime_fs for s in poles],
        [s.r_ratio for s in poles],
        [s.k.real for s in poles],
        [s.k.imag for s in poles],
    ]
    _write_csv(args.out, ["n", "eps_meV", "gamma_meV", "lifetime_fs", "R_n", "re_k", "im_k"], columns)
    return 0


def cmd_evolve(args) -> int:
    tau_ref = _tau_grid(args)
    sel = _select(args)
    sol = _evolve_selection(sel, tau_ref, args)
    tau = sol.tau if sol.tau is not None else tau_ref
    psi = sol.psi
    phi_abs2 = np.full(psi.size, abs(sol.phi) ** 2)
    columns = [sol.t_fs, tau, psi.real, psi.imag, np.abs(psi) ** 2, phi_abs2]
    _write_csv(args.out, ["t_fs", "tau", "re_psi", "im_psi", "abs2_psi", "abs2_phi"], columns)
    return 0


def cmd_buildup(args) -> int:
    if args.resonance is None:
        raise CliUsageError("buildup requires --resonance (on-resonance normalization)")
    tau = _tau_grid(args)
    sel = _select(args)
    sol = _evolve_selection(sel, tau, args)
    series = normalize_buildup(sol, sel.state, resonance_index=sel.index)
    law = exponential_law(series.tau) ** 2
    columns = [series.tau, series.ratio_abs, series.ratio_abs2, law]
    _write_csv(args.out, ["tau", "ratio_abs", "ratio_abs2", "law_abs2"], columns)
    return 0


def cmd_crossover(args) -> int:
    if args.resonance is None:
        raise CliUsageError("crossover requires --resonance (on-resonance normalization)")
    tau = _tau_grid(args)
    sel = _select(args)
    sol = _evolve_selection(sel, tau, args)
    series = normalize_buildup(sol, sel.state, resonance_index=sel.index)
    tau_d, ln_delta, _dropped = delta_curve(series)
    slopes = local_slopes(tau_d, ln_delta)
    exit_code = 0
    try:
        report = detect_onset(series)
        tau0, tau_onset = report.tau0, report.tau_onset
    except (NoOnsetError, FitWindowError) as exc:
        print(f"crossover analysis incomplete: {exc}", file=sys.stderr)
        tau0, tau_onset = math.nan, math.nan
        exit_code = NUMERICAL_ERROR
    footer = (
        f"# summary: tau_0 = {_fmt(tau0)}, tau_onset = {_fmt(tau_onset)}, "
        f"R_n = {_fmt(sel.state.r_ratio)}"
    )
    _write_csv(args.out, ["tau", "ln_delta", "local_slope"], [tau_d, ln_delta, slopes], footer=footer)
    return exit_code


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="rtbuildup", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poles", help="resonance table CSV")
    p.add_argument("--profile", required=True)
    p.add_argument("--e-max-ev", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("evolve", help="Psi(x,k;t) time series CSV")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("buildup", help="normalized buildup CSV")
    _add_common(p)
    p.set_defaults(func=cmd_buildup)

    p = sub.add_parser("crossover", help="ln delta(tau) + onset summary CSV")
    _add_common(p, grid_defaults=(0.25, 60.0, 24001, "linear"))
    p.set_defaults(func=cmd_crossover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_out(args.out)
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always")
            code = args.func(args)
        for w in captured:
            print(f"warning: {w.message}", file=sys.stderr)
        return code
    except (CliUsageError, ProfileError, BoundStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PoleConvergenceError, WindingMismatchError, GamowResidualError,
            NodePositionError, FitWindowError, NoOnsetError, ZeroWavevectorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
