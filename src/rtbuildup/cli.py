"""Command-line interface: figure-ready CSV datasets from profile configs.

Subcommands:
    poles      resonance table (n, eps, Gamma, lifetime, R_n, k)
    evolve     Psi(x, k; t) time series at fixed position
    buildup    normalized buildup |Psi/phi| vs tau with the charging-law column
    crossover  ln delta(tau) with local slopes and a tau_0/tau_onset summary

Profiles are plain-text files with one ``mass_factor = <float>`` line and
repeated ``segment = <width_angstrom> <height_eV>`` lines; ``#`` starts a
comment.  A CSV goes to --out, or else as text to stdout.  Exit codes:
0 success; 1 usage/parse error, a profile with a bound state (which the
resonance expansion omits), a search ceiling at which m22 overflows, a CSV
that cannot be written (a full device, a closed stdout) or a run that
memory cannot hold; 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

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
from .profile import HBAR_EV_FS, PotentialProfile, ProfileError, build_profile
from .resonances import (
    GamowResidualError,
    ResonantState,
    SCAN_FLOOR_EV,
    WindingMismatchError,
    find_poles,
)
from .scattering import stationary_state

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


# A CSV cell is laid out in 40 bytes, five 8-byte words, with every byte "%" may print:
#   word 0     two pads, "-" and "0.000" (the lead of -0.000ddd)
#   words 1-3  digit j at 8 + 2j and a "." slot after it at 9 + 2j
#   word 4     "e", the exponent's sign and two digits, the separator, three pads
# A keep row zeroes the bytes that "%.12g," does not print, and they are then deleted.
# A block of 3,072 cells (1,024 rows of 3 columns, 123 KB of cells) is small enough for
# malloc to reuse its temporaries from block to block and call to call: a crossover CSV
# takes no minor page fault, against ~740 with 4,096-row blocks (491 KB of cells).
_CSV_BLOCK_CELLS = 3072
# Up to this many cells "%" is faster than the ~40 numpy calls of a block when caches
# are cold, as in one CLI run: right after perfbench's calibration loop a 10 x 7 table
# takes ~120 us by "%" and ~360 us by numpy, and the two meet near 450 cells (warm,
# near 150).
_PERCENT_CELLS = 256
_POW10 = np.array([10**j for j in range(23)], dtype=float)  # exact in float64
# 10**(i - 22) as one exact multiply or one exact divide: _UP[i] / _DOWN[i]
_UP = np.concatenate([np.ones(22), _POW10])
_DOWN = np.concatenate([_POW10[:0:-1], np.ones(23)])
_GROUP_BASE = np.array([[1e8], [1e4], [1.0]])  # a 12-digit mantissa as three groups of four
_DIGIT = ord("0") + np.arange(10, dtype=np.uint8)
_DIGIT_PAIRS = np.full((10, 10, 10, 10, 8), ord("."), dtype=np.uint8)  # group abcd at [a, b, c, d]
_DIGIT_PAIRS[..., 0] = _DIGIT[:, None, None, None]
_DIGIT_PAIRS[..., 2] = _DIGIT[:, None, None]
_DIGIT_PAIRS[..., 4] = _DIGIT[:, None]
_DIGIT_PAIRS[..., 6] = _DIGIT
_DIGIT_PAIRS = _DIGIT_PAIRS.view(np.uint64).ravel()  # a group's four digits, each with its slot
# where the last nonzero digit of each group 0000-9999 is, -9 for 0000
_LAST = np.where(np.indices((10, 10, 10, 10)).reshape(4, -1), np.arange(4)[:, None], -9).max(axis=0).astype(np.int8)
_ALL_BYTES = np.uint64(2**64 - 1)
_NAN = np.frombuffer(b"nan".ljust(36, b"\0"), dtype=np.uint8)  # "%.12g" of a nan of either sign


def _keep_rows() -> np.ndarray:
    """Keep row of each sign, exponent index i = 33 - e and position 0-11 of the mantissa's last nonzero digit.

    Row 12 (i + 45 negative) + last, five words.  A row is read off "%": a
    probe with nonzero digits up to the last one, laid out in a full cell,
    keeps each byte that "%.12g," prints at its first match past the one
    before.  Words 0 and 4 hold no digit, so the row holds their kept bytes;
    words 1-3 hold the mask.
    """
    rows = bytearray(2 * 45 * 12 * 40)
    for row, (negative, i, last) in enumerate(np.ndindex(2, 45, 12)):
        m = int("123456789123"[: last + 1].ljust(12, "0"))
        groups = [m // 10**8, m // 10**4 % 10**4, m % 10**4]
        cell = b"\0\0-0.000" + _DIGIT_PAIRS[groups].tobytes() + b"e%+03d,\0\0\0" % (33 - i)
        pos = -1
        for byte in b"%.12g," % ((-1) ** negative * m * 10.0 ** (22 - i)):
            pos = cell.index(byte, pos + 1)
            rows[40 * row + pos] = 0xFF if 8 <= pos < 32 else byte
    return np.frombuffer(rows, dtype=np.uint64).reshape(-1, 5)


_KEEP = _keep_rows()


def _csv_rows(table: np.ndarray) -> bytes:
    """The rows of a float table, each cell as "%.12g" % v, comma-separated."""
    rows, cols = table.shape
    if table.size <= _PERCENT_CELLS:
        row = ",".join(["%.12g"] * cols) + "\n"
        return "".join([row % tuple(cells) for cells in table.tolist()]).encode()
    v = table.ravel()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero, inf and nan: rendered by "%"
        # i = 33 - e, clipped to the tables (nan to 44); zero, inf and nan fail below
        i = np.fmax(np.fmin(33.0 - np.floor(np.log10(a)), 44.0), 0.0).astype(np.intp)
        s = a * _UP[i] / _DOWN[i]
        m = np.rint(s)
        # spacing(s) <= 2**-13 for s < 1e12, so s and the exact product round alike
        fast = (np.abs(s - m) < 0.5 - 2.0**-13) & (1e11 <= s) & (m < 1e12)
    # m < 2**53, and m / 10**j is an integer or at least 1e-12 of itself below the next one,
    # so floor takes each group exactly
    groups = np.where(fast, m, 1e11) / _GROUP_BASE
    np.floor(groups, out=groups)
    groups[1:] -= 1e4 * groups[:-1]
    groups = groups.astype(np.intp)
    last = _LAST[groups]  # a fast cell's first group is never 0000
    last = np.maximum(np.maximum(last[0], last[1] + 4), last[2] + 8)
    cells = np.empty((v.size, 5), dtype=np.uint64)
    cells[:, ::4] = _ALL_BYTES  # the keep row holds the lead and exponent words
    cells[:, 1:4] = _DIGIT_PAIRS[groups].T
    cells &= np.take(_KEEP, 12 * (i + 45 * (v < 0)) + last, axis=0)
    text = cells.view(np.uint8).reshape(-1, 40)
    nan = np.isnan(v)
    text[nan, :36] = _NAN
    slow = (~(fast | nan)).nonzero()[0]
    if slow.size:
        cell_text = ["%.12g" % x for x in v[slow].tolist()]
        text[slow, :36] = np.array(cell_text, dtype="S36").view(np.uint8).reshape(-1, 36)
    text.reshape(rows, cols * 40)[:, -4] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def _csv_parts(header: list[str], columns, footer: str | None):
    """The header line, the rows in blocks of about _CSV_BLOCK_CELLS cells, and the footer line, as bytes."""
    columns = [np.asarray(column, dtype=float) for column in columns]
    step = _CSV_BLOCK_CELLS // len(columns)
    yield (",".join(header) + "\n").encode()
    for i in range(0, columns[0].size, step):
        yield _csv_rows(np.column_stack([column[i : i + step] for column in columns]))
    if footer is not None:
        yield (footer + "\n").encode()


def _write_csv(path: str | None, header: list[str], columns, footer: str | None = None) -> None:
    """One 1-D column per header name; every cell is rendered exactly as "%.12g" % v.

    A finite nonzero v is rendered from e = floor(log10|v|) and
    s = |v| * 10**(11 - e).  For |11 - e| <= 22 the power of ten is exact and
    either multiplies or divides, so s is the exact product rounded once, at
    most spacing(s) / 2 <= 2**-14 off it.  When s lies more than 2**-13 from
    the nearest half-integer, the exact product rounds to the same integer
    m = rint(s) as s does; with 1e11 <= s and m < 1e12, m is the correctly
    rounded 12-digit mantissa that "%" prints with exponent e.  A nan of
    either sign is written as the "nan" that "%" prints.  Every other cell is
    rendered by "%.12g" % v itself, one at a time: +-inf, +-0,
    |11 - e| > 22, near-ties, a mantissa that rounds up to 1e12, and a log10
    that rounded across a power of ten (s outside [1e11, 1e12)).  A block of
    at most _PERCENT_CELLS cells is rendered by "%" alone.  Each block is
    stacked from slices of the columns and written as it is rendered, to the
    file opened in binary mode or as text to sys.stdout, so neither the whole
    table nor the whole output is held at once.  A failed write (a full
    device, a closed pipe) is a usage error.
    """
    parts = _csv_parts(header, columns, footer)
    try:
        if path is None:
            sys.stdout.writelines(part.decode() for part in parts)
            sys.stdout.flush()
        else:
            with open(path, "wb") as fh:
                fh.writelines(parts)
    except OSError as exc:
        if path is None:  # what stdout still holds goes to devnull, so the flush at exit raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CliUsageError(f"cannot write {path or 'stdout'}: {exc}") from None


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
    if os.path.exists(path):
        if not os.access(path, os.W_OK):
            raise CliUsageError(f"cannot write {path}: file is not writable")
    elif not os.access(parent, os.W_OK):
        raise CliUsageError(f"cannot write {path}: directory {parent} is not writable")


_E_MAX_RULE = "hbar^2 (Re k_n)^2/2m* <="  # the poles find_poles keeps at a ceiling
_E_MAX_HELP = f"pole search ceiling in eV (default: the barrier top); the search keeps the poles with {_E_MAX_RULE} it"


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
    parser.add_argument("--e-max-ev", type=float, default=None, help=_E_MAX_HELP)
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")


def _tau_grid(args) -> np.ndarray:
    if args.points < 1:
        raise CliUsageError("--points must be >= 1")
    if not (0.0 < args.tau_min <= args.tau_max < math.inf):
        raise CliUsageError("need 0 < tau-min <= tau-max < inf")
    if args.points > 1 and args.tau_min == args.tau_max:
        raise CliUsageError("--points > 1 needs tau-min < tau-max")
    tau = (np.geomspace if args.grid == "log" else np.linspace)(args.tau_min, args.tau_max, args.points)
    if not np.all(np.diff(tau) > 0.0):
        raise CliUsageError(
            f"the {args.points}-point tau grid from {args.tau_min!r} to {args.tau_max!r} repeats a point in tau"
        )
    return tau


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


def _find_poles(profile: PotentialProfile, e_max: float) -> list[ResonantState]:
    """find_poles, whose refusals (a bound state, an overflowing ceiling) are usage errors."""
    try:
        return find_poles(profile, e_max)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None


def _auto_max_position(profile: PotentialProfile, energy_ev: float) -> float:
    """Position of the |phi|^2 maximum inside the lowest interior segments (the well).

    In a segment [a, b], phi(a + s) = A e^{i kappa s} + B e^{-i kappa s} with
    the kappa and amplitudes A, B of the stationary state's march.  For real
    kappa > 0, |phi|^2 = |A|^2 + |B|^2 + 2 Re(A B* e^{2i kappa s}) peaks at
    s = (2 pi m - arg(A B*)) / (2 kappa); for imaginary kappa it is convex,
    so only the edges can be the maximum.  Both edges are always candidates,
    and of the interior maxima, all equally high, the first.  A symmetric
    structure at resonance has exactly degenerate lobes, so ties (within 1e-9
    relative) are resolved toward the smallest x.
    """
    heights = profile.heights
    interior = heights[1:-1]
    chosen = 1 + np.flatnonzero(interior == interior.min()) if interior.size else np.arange(heights.size)
    state = stationary_state(profile, energy_ev)
    wave = state._wave
    a, b = profile.boundaries[chosen], profile.boundaries[chosen + 1]
    phase = np.angle(wave.a[chosen] * np.conj(wave.b[chosen]))
    turn = 2.0 * math.pi
    candidates = [a, b]
    for lo, hi, kappa, ph in zip(a, b, wave.kappa[chosen], phase):
        if kappa.imag == 0.0 < kappa.real:  # one maximum per half wavelength
            two_kappa = 2.0 * kappa.real
            m = math.ceil(ph / turn)
            if m <= (two_kappa * (hi - lo) + ph) / turn:
                candidates.append(np.clip([lo + (turn * m - ph) / two_kappa], lo, hi))
    xs = np.concatenate(candidates)
    vals = np.abs(state.phi(xs)) ** 2
    return float(np.min(xs[vals >= vals.max() * (1.0 - 1e-9)]))


def cmd_poles(args) -> int:
    profile = load_profile(args.profile)
    poles = _find_poles(profile, _e_max(args, profile))
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


def _solve(args, on_resonance: bool = False):
    """The resonance a run is on, its tau grid and Psi on it; ``on_resonance`` first refuses a run without --resonance.

    Every check that needs no pole comes before the pole search.
    """
    if on_resonance and args.resonance is None:
        raise CliUsageError(f"{args.command} requires --resonance (on-resonance normalization)")
    tau = _tau_grid(args)
    profile = load_profile(args.profile)
    e_max = _e_max(args, profile)
    energy = args.energy_ev
    if energy is not None and not 0.0 < energy < math.inf:
        raise CliUsageError("--energy-ev must be positive and finite")
    if args.x_angstrom is not None and not 0.0 <= args.x_angstrom <= profile.total_length:
        raise CliUsageError(f"position {args.x_angstrom} outside [0, {profile.total_length}] A")
    poles = _find_poles(profile, e_max)
    if not poles:
        raise CliUsageError(f"no poles with {_E_MAX_RULE} {e_max} eV in {args.profile}")

    mode = args.mode
    if args.resonance is not None:
        if not 1 <= args.resonance <= len(poles):
            raise CliUsageError(
                f"resonance {args.resonance} not found ({len(poles)} pole(s) with {_E_MAX_RULE} {e_max} eV)"
            )
        state = poles[args.resonance - 1]
        energy = state.eps_ev
        if not energy > 0.0:
            raise CliUsageError(
                f"resonance {args.resonance} has eps = {state.eps_mev:.6g} meV <= 0; "
                "incidence on it needs a positive energy"
            )
    else:
        state = min(poles, key=lambda s: abs(s.eps_ev - energy))
        if abs(energy - state.eps_ev) > 3.0 * state.gamma_ev and mode == "single":
            print(
                f"warning: E = {energy} eV is {abs(energy - state.eps_ev) / state.gamma_ev:.3g} "
                "widths from the nearest resonance; single-resonance mode is invalid, "
                "running the full expansion",
                file=sys.stderr,
            )
            mode = "full"
    x = args.x_angstrom if args.x_angstrom is not None else _auto_max_position(profile, energy)

    # tau is in lifetimes of the resonance the run is on; points that round
    # together in fs, or a subnormal that rounds to 0, leave no time grid
    t_fs = tau * state.lifetime_fs
    if not np.all(np.diff(t_fs, prepend=0.0) > 0.0):
        raise CliUsageError(
            f"the {args.points}-point tau grid from {args.tau_min!r} to {args.tau_max!r} is not "
            f"strictly increasing and positive in t = tau * {state.lifetime_fs:.6g} fs"
        )
    # from 2^52 rad on, neighbouring doubles of the phase E t / hbar are >= 1 rad
    # apart, so exp(-iEt/hbar) carries no correct digit
    phase = energy * float(t_fs[-1]) / HBAR_EV_FS
    if not phase < 2.0**52:
        raise CliUsageError(
            f"--tau-max {args.tau_max:g} gives a phase E t/hbar of {phase:.3g} rad, at least 2^52: "
            "no digit of exp(-iEt/hbar) is correct there"
        )
    if mode == "single":
        return state, tau, evolve_single_resonance(profile, state, energy, x, t_fs=t_fs)
    e_pole_max = max(4.0 * energy, energy + 10.0 * max(s.gamma_ev for s in poles))
    if e_pole_max > e_max:
        poles = _find_poles(profile, e_pole_max)
    return state, tau, evolve_full(profile, poles, energy, x, t_fs=t_fs)


def cmd_evolve(args) -> int:
    _state, tau, sol = _solve(args)
    psi = sol.psi
    phi_abs2 = np.full(psi.size, abs(sol.phi) ** 2)
    columns = [sol.t_fs, tau, psi.real, psi.imag, sol.abs2, phi_abs2]
    _write_csv(args.out, ["t_fs", "tau", "re_psi", "im_psi", "abs2_psi", "abs2_phi"], columns)
    return 0


def cmd_buildup(args) -> int:
    state, _tau, sol = _solve(args, on_resonance=True)
    series = normalize_buildup(sol, state)
    law = exponential_law(series.tau) ** 2
    columns = [series.tau, series.ratio_abs, series.ratio_abs2, law]
    _write_csv(args.out, ["tau", "ratio_abs", "ratio_abs2", "law_abs2"], columns)
    return 0


def cmd_crossover(args) -> int:
    state, _tau, sol = _solve(args, on_resonance=True)
    series = normalize_buildup(sol, state)
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
        f"R_n = {_fmt(state.r_ratio)}"
    )
    _write_csv(args.out, ["tau", "ln_delta", "local_slope"], [tau_d, ln_delta, slopes], footer=footer)
    return exit_code


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="rtbuildup", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poles", help="resonance table CSV")
    p.add_argument("--profile", required=True)
    p.add_argument("--e-max-ev", type=float, help=_E_MAX_HELP)
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
        return args.func(args)
    except (CliUsageError, ProfileError, MemoryError) as exc:  # numpy names the allocation that failed
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (WindingMismatchError, GamowResidualError, NodePositionError, FitWindowError,
            NoOnsetError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
