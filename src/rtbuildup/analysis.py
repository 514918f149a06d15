"""Quantitative buildup analysis: charging law, crossover, and envelopes.

On resonance the normalized modulus follows |Psi(tau)/phi| = 1 - e^{-tau/2}
(time constant: two lifetimes) until the exponential term dips below the
algebraic remainder; ln delta(tau) with delta = |1 - |Psi/phi|| then leaves
the slope -1/2 line and turns into a tau^{-1/2}-modulated oscillation.  The
on-resonance |Psi|^2 decomposes likewise into the exponential charging
term |phi|^2 (1 - e^{-tau/2})^2 plus an algebraically decaying remainder
(``buildup_decomposition``).  The evolutions work in fs; tau = t Gamma_n / hbar
is formed here, from the solution's t_fs and the resonance's lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .dynamics import TransientSolution
from .resonances import ResonantState
# not used here: the benchmark's tracer patches this name
# (perfbench/spans.BINDINGS), and keeps it until those bindings are retired
from .scattering import stationary_wave  # noqa: F401


SLOPE_WINDOW = 0.5  # tau width of the moving and of the consecutive slope windows
ONSET_DEVIATION = 0.2  # relative departure of a window slope from -1/2 that counts
ONSET_PERSISTENCE = 3  # consecutive departing windows that make the onset
FIT_TAU_MIN = 0.5  # start of the charging-law fit window
FIT_TAU_MAX = 6.0  # end of the charging-law fit window, unless the onset comes first
ENVELOPE_BLOCKS = 12  # log-spaced tau blocks of the envelope fit
MIN_PER_BLOCK = 24  # samples a block needs to count
FIT_RESIDUAL_TOL = 0.05  # largest RMS residual of the charging-law fit


class NodePositionError(ValueError):
    """|phi(x)| is numerically zero: normalization is meaningless at a node."""


class FitWindowError(RuntimeError):
    """The requested fit window is not covered or not in the linear regime."""


class NoOnsetError(RuntimeError):
    """The series ends before the slope leaves the exponential regime."""


def exponential_law(tau):
    """Charging law 1 - e^{-tau/2} for tau >= 0."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be non-negative")
    out = 1.0 - np.exp(-0.5 * tau)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BuildupSeries:
    """Normalized buildup |Psi/phi| on a lifetime-unit grid."""

    tau: np.ndarray = field(repr=False)
    ratio_abs: np.ndarray = field(repr=False)

    @cached_property
    def ratio_abs2(self) -> np.ndarray:
        """|Psi/phi|^2."""
        return self.ratio_abs**2

    @cached_property
    def delta(self) -> np.ndarray:
        """delta = |1 - |Psi/phi||."""
        return np.abs(1.0 - self.ratio_abs)

    @cached_property
    def _delta_curve(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``delta_curve``, computed once and read-only."""
        keep = self.delta > 0.0
        tau, ln_delta = self.tau[keep], np.log(self.delta[keep])
        tau.flags.writeable = ln_delta.flags.writeable = False
        return tau, ln_delta, int(np.count_nonzero(~keep))


@dataclass(frozen=True)
class OnsetReport:
    """Exponential-window fit and crossover location."""

    fit_window: tuple[float, float]
    fit_slope: float
    fit_residual: float
    tau_onset: float | None = None

    @property
    def tau0(self) -> float:
        """Time constant of the charging law in lifetimes: -1 / ``fit_slope``."""
        return -1.0 / self.fit_slope


def _lifetimes(solution: TransientSolution, state: ResonantState) -> np.ndarray:
    """The solution's time grid in lifetimes of ``state``: tau = t Gamma_n / hbar."""
    return solution.t_fs / state.lifetime_fs


def normalize_buildup(solution: TransientSolution, state: ResonantState) -> BuildupSeries:
    """|Psi/phi| series with time converted to lifetime units.

    phi is the stationary wave the solution holds for its energy and
    position, and tau = t Gamma_n / hbar.
    """
    phi = solution.phi
    if abs(phi) < 1e-12:
        raise NodePositionError(f"|phi({solution.x})| = {abs(phi):.2e}; position sits on a node")
    return BuildupSeries(_lifetimes(solution, state), np.abs(solution.psi / phi))


@dataclass(frozen=True)
class BuildupDecomposition:
    """|Psi|^2 split into the exponential charging term and the remainder."""

    tau: np.ndarray
    exponential_part: np.ndarray
    remainder: np.ndarray
    phi_abs2: float


def buildup_decomposition(
    solution: TransientSolution, state: ResonantState
) -> BuildupDecomposition:
    """Remainder Delta(tau) = |Psi|^2 - |phi|^2 (1 - e^{-tau/2})^2.

    Requires a solution on resonance n, single-resonance or full, with tau
    in lifetimes of ``state``; the identity exponential_part + remainder ==
    |Psi|^2 holds by construction.
    """
    if abs(solution.energy_ev - state.eps_ev) > 1e-9 * state.eps_ev:
        raise ValueError(
            f"solution energy {solution.energy_ev} is not on resonance ({state.eps_ev})"
        )
    tau = _lifetimes(solution, state)
    phi_abs2 = abs(solution.phi) ** 2
    exponential = phi_abs2 * exponential_law(tau) ** 2
    # small difference of O(|phi|^2) quantities; the accuracy floor is set by
    # the ~1e-14 relative error of the kernel evaluations, not this subtraction
    remainder = solution.abs2 - exponential
    return BuildupDecomposition(tau, exponential, remainder, phi_abs2)


def fit_time_constant(series: BuildupSeries, *, tau_max: float = FIT_TAU_MAX) -> OnsetReport:
    """Least-squares fit of ln(1 - |Psi/phi|) over [FIT_TAU_MIN, tau_max].

    tau0 = -1/slope; an RMS residual above ``FIT_RESIDUAL_TOL`` means the window
    reaches into the crossover and is rejected.
    """
    tau, ratio = series.tau, series.ratio_abs
    if tau[0] > FIT_TAU_MIN + 1e-12 or tau[-1] < tau_max - 1e-12:
        raise FitWindowError(
            f"series [{tau[0]:.3g}, {tau[-1]:.3g}] does not cover [{FIT_TAU_MIN}, {tau_max}]"
        )
    mask = (tau >= FIT_TAU_MIN) & (tau <= tau_max) & (ratio < 1.0)
    if np.count_nonzero(mask) < 8:
        raise FitWindowError("too few usable points in the fit window")
    x = tau[mask]
    y = np.log(1.0 - ratio[mask])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - slope * x - intercept) ** 2)))
    if residual > FIT_RESIDUAL_TOL:
        raise FitWindowError(
            f"fit residual {residual:.3g} exceeds {FIT_RESIDUAL_TOL}; window overlaps the onset"
        )
    return OnsetReport(fit_window=(FIT_TAU_MIN, tau_max), fit_slope=float(slope), fit_residual=residual)


def delta_curve(series: BuildupSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """(tau, ln delta) with exact zeros dropped; returns the dropped count.

    The arrays are the series' own, computed once and read-only.
    """
    return series._delta_curve


_SLOPE_BLOCK = 256  # fewest outputs whose windows share one span of prefix sums


def _window_slopes(
    tau: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Least-squares slope of ``values`` vs tau over each index window [lo, hi).

    ``lo`` and ``hi`` must be non-decreasing.  The outputs go in blocks,
    and the windows of one block cover one span of the grid.  A block
    starting at output a takes max(``_SLOPE_BLOCK``, 2 w) outputs, w =
    hi[a] - lo[a] the point count of its first window, so that a wide
    window is not summed again for every ``_SLOPE_BLOCK`` outputs.  Over
    the span t and v are tau and ``values`` less their values at the
    span's middle point, one np.cumsum gives the prefix sums of t, v, t^2
    and t v, and each window sum is a difference of two of them.  The
    slope is (n S_tv - S_t S_v) / (n S_tt - S_t^2); windows with fewer
    than 3 points give NaN, and a NaN in ``values`` spoils its block.

    No sum is compensated, because none runs beyond its span: with H the
    span's half-width and w a window's width, both in points, the prefix
    sums reach about (H / w)^3 times a window's centred sums, so a slope
    loses that many more ulps than a fit of its window alone (Chan, Golub
    & LeVeque, Am. Stat. 37, 242 (1983)), most where windows are narrow
    against the span.  The 2 w rule keeps H / w near 1.5 for the first
    window of an enlarged block.  Against exact rational least squares,
    over every window, the worst error was 1.9e-12 relative to
    max(1, |slope|) on an 8,001-point log grid (a 13-point window of its
    tail), 6.9e-13 on a 24,001-point one and 2.3e-13 on linear grids, far
    below the 6-9 significant digits that ln delta itself carries late in
    tau.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.subtract(hi, lo, dtype=float)  # each block's n, then its slopes
    a = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # windows of 1 point give 0/0
        while a < lo.size:
            b = min(a + max(_SLOPE_BLOCK, 2 * int(hi[a] - lo[a])), lo.size)
            first, last = lo[a], hi[b - 1]
            mid = (first + last) // 2
            sums = np.zeros((last - first + 1, 4))  # row j: sums over [first, first + j)
            t, v = sums[1:, 0], sums[1:, 1]
            np.subtract(tau[first:last], tau[mid], out=t)
            np.subtract(values[first:last], values[mid], out=v)
            np.multiply(t, t, out=sums[1:, 2])
            np.multiply(t, v, out=sums[1:, 3])
            np.cumsum(sums, axis=0, out=sums)
            window = np.take(sums, hi[a:b] - first, axis=0)
            window -= np.take(sums, lo[a:b] - first, axis=0)
            s_t, s_v, s_tt, s_tv = window.T
            n = slopes[a:b]
            few = n < 3.0
            np.divide(n * s_tv - s_t * s_v, n * s_tt - s_t * s_t, out=n)
            n[few] = np.nan
            a = b
    return slopes


def local_slopes(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Moving linear-fit slope of ``values`` vs tau with +-SLOPE_WINDOW/2 support."""
    half = 0.5 * SLOPE_WINDOW
    lo = np.searchsorted(tau, tau - half, side="left")
    hi = np.searchsorted(tau, tau + half, side="right")
    return _window_slopes(tau, values, lo, hi)


def _onset_windows(tau: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices, left edges, point counts and slopes of ``detect_onset``'s windows.

    Window j spans [start + j d, start + (j + 1) d), start = max(FIT_TAU_MIN, tau[0])
    and d = fl(start + SLOPE_WINDOW) - start as np.arange spaces edges; only those
    that hold a point are listed.  Each slope comes from plain sums over the window's
    own points, centred on its means of tau and ``values``, which leaves no
    cancellation to compensate; windows with fewer than 3 points give NaN.
    """
    start = max(FIT_TAU_MIN, float(tau[0]))
    step = (start + SLOPE_WINDOW) - start
    first = np.searchsorted(tau, start, side="left")
    tau, values = tau[first:], values[first:]
    index = np.subtract(tau, start)
    np.floor(np.multiply(index, 1.0 / step, out=index), out=index)
    edge = np.multiply(index, step)  # the guess may round a point across an edge
    index[tau < np.add(edge, start, out=edge)] -= 1.0
    np.multiply(np.add(index, 1.0, out=edge), step, out=edge)
    index[tau >= np.add(edge, start, out=edge)] += 1.0
    new = np.ones(tau.size, dtype=bool)
    np.not_equal(index[1:], index[:-1], out=new[1:])
    lo = np.flatnonzero(new)
    counts = np.diff(lo, append=tau.size)
    j = index[lo]
    # the centred tau and values, then their products, reuse the two point-sized arrays
    t = np.subtract(tau, np.repeat(np.add.reduceat(tau, lo) / counts, counts), out=index)
    v = np.subtract(values, np.repeat(np.add.reduceat(values, lo) / counts, counts), out=edge)
    s_tv = np.add.reduceat(np.multiply(t, v, out=v), lo)
    s_tt = np.add.reduceat(np.multiply(t, t, out=t), lo)
    slopes = np.full(counts.shape, np.nan)
    fit = counts >= 3
    slopes[fit] = s_tv[fit] / s_tt[fit]
    return j, start + j * step, counts, slopes


def detect_onset(series: BuildupSeries) -> OnsetReport:
    """Crossover time out of the exponential regime, plus the charging-law fit before it.

    The tau axis is cut into consecutive windows of width ``SLOPE_WINDOW``; the
    onset is the left edge of the first ``ONSET_PERSISTENCE`` consecutive windows
    (an empty one breaks the run) whose ln-delta slopes deviate from -1/2 by more
    than ``ONSET_DEVIATION`` (relative).  Requiring a persistent run keeps the
    oscillatory structure right at the crossover from triggering early.
    """
    tau_d, ln_delta, _ = series._delta_curve
    if tau_d.size < 16:
        raise NoOnsetError("series too short for onset detection")
    index, lefts, counts, slopes = _onset_windows(tau_d, ln_delta)
    flagged = (counts >= 4) & (np.abs(slopes + 0.5) > ONSET_DEVIATION * 0.5)
    index, lefts = index[flagged], lefts[flagged]
    span = ONSET_PERSISTENCE - 1
    runs = np.flatnonzero(index[span:] - index[:index.size - span] == span)
    if runs.size == 0:
        raise NoOnsetError("no onset in range")
    tau_onset = float(lefts[runs[0]])

    base = fit_time_constant(series, tau_max=min(FIT_TAU_MAX, tau_onset - 1.0))
    return replace(base, tau_onset=tau_onset)


def fit_envelope_exponent(tau: np.ndarray, values: np.ndarray) -> float:
    """Power-law exponent of the envelope of an oscillatory series.

    Block maxima over those of the ``ENVELOPE_BLOCKS`` log-spaced tau blocks
    that hold at least ``MIN_PER_BLOCK`` samples stand in for the envelope;
    the fit is ln(max |values|) vs ln(tau) at the block centers.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    if tau.size < ENVELOPE_BLOCKS * MIN_PER_BLOCK:
        raise FitWindowError("too few samples for an envelope fit")
    edges = np.geomspace(tau[0], tau[-1], ENVELOPE_BLOCKS + 1)
    centers, maxima = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (tau >= a) & (tau <= b)
        if np.count_nonzero(mask) < MIN_PER_BLOCK:
            continue
        m = values[mask].max()
        if m > 0.0:
            centers.append(math.sqrt(a * b))
            maxima.append(m)
    if len(centers) < 4:
        raise FitWindowError("too few populated blocks for an envelope fit")
    return float(np.polyfit(np.log(centers), np.log(maxima), 1)[0])
