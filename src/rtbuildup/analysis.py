"""Quantitative buildup analysis: charging law, crossover, and envelopes.

On resonance the normalized modulus follows |Psi(tau)/phi| = 1 - e^{-tau/2}
(time constant: two lifetimes) until the exponential term dips below the
algebraic remainder; ln delta(tau) with delta = |1 - |Psi/phi|| then leaves
the slope -1/2 line and turns into a tau^{-1/2}-modulated oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
ENVELOPE_MARGIN = 4.0  # tau after the onset where the envelope fit starts
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
    """Normalized buildup on a lifetime-unit grid."""

    tau: np.ndarray = field(repr=False)
    ratio_abs: np.ndarray = field(repr=False)
    ratio_abs2: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)

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

    tau0: float
    fit_window: tuple[float, float]
    fit_slope: float
    fit_residual: float
    tau_onset: float | None = None
    envelope_exponent: float | None = None


def normalize_buildup(solution: TransientSolution, state: ResonantState) -> BuildupSeries:
    """|Psi/phi| series with time converted to lifetime units.

    phi is the stationary wave the solution holds for its energy and
    position, and tau = t Gamma_n / hbar.
    """
    phi = solution.phi
    if abs(phi) < 1e-12:
        raise NodePositionError(f"|phi({solution.x})| = {abs(phi):.2e}; position sits on a node")
    tau = solution.t_fs / state.lifetime_fs
    ratio = np.abs(solution.psi / phi)
    return BuildupSeries(
        tau=tau,
        ratio_abs=ratio,
        ratio_abs2=ratio**2,
        delta=np.abs(1.0 - ratio),
    )


def fit_time_constant(
    series: BuildupSeries, *, tau_min: float = 0.5, tau_max: float = 6.0
) -> OnsetReport:
    """Least-squares fit of ln(1 - |Psi/phi|) over the pre-onset window.

    tau0 = -1/slope; an RMS residual above ``FIT_RESIDUAL_TOL`` means the window
    reaches into the crossover and is rejected.
    """
    tau, ratio = series.tau, series.ratio_abs
    if tau[0] > tau_min + 1e-12 or tau[-1] < tau_max - 1e-12:
        raise FitWindowError(
            f"series [{tau[0]:.3g}, {tau[-1]:.3g}] does not cover [{tau_min}, {tau_max}]"
        )
    mask = (tau >= tau_min) & (tau <= tau_max) & (ratio < 1.0)
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
    return OnsetReport(
        tau0=-1.0 / slope,
        fit_window=(tau_min, tau_max),
        fit_slope=float(slope),
        fit_residual=residual,
    )


def delta_curve(series: BuildupSeries) -> tuple[np.ndarray, np.ndarray, int]:
    """(tau, ln delta) with exact zeros dropped; returns the dropped count.

    The arrays are the series' own, computed once and read-only.
    """
    return series._delta_curve


_SLOPE_BLOCK = 256  # outputs whose windows share one span of prefix sums


def _window_slopes(
    tau: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Least-squares slope of ``values`` vs tau over each index window [lo, hi).

    ``lo`` and ``hi`` must be non-decreasing.  The outputs go in blocks of
    ``_SLOPE_BLOCK``, and the windows of one block cover one span of the
    grid.  Over that span t and v are tau and ``values`` less their values
    at the span's middle point, one np.cumsum gives the prefix sums of t,
    v, t^2 and t v, and each window sum is a difference of two of them.
    The slope is (n S_tv - S_t S_v) / (n S_tt - S_t^2); windows with fewer
    than 3 points give NaN, and a NaN in ``values`` spoils its block.

    No sum is compensated, because none runs beyond its span: with H the
    span's half-width and w a window's width, both in points, the prefix
    sums reach about (H / w)^3 times a window's centred sums, so a slope
    loses that many more ulps than a fit of its window alone, most where
    windows are narrow against the span, as on the tail of a log grid.
    Against exact rational least squares the worst error was 1.8e-12
    relative to max(1, |slope|) on a log grid (a 15-point window) and
    1.3e-13 on linear grids, far below the 6-9 significant digits that
    ln delta itself carries late in tau.
    """
    values = np.asarray(values, dtype=float)
    slopes = np.subtract(hi, lo, dtype=float)  # each block's n, then its slopes
    with np.errstate(divide="ignore", invalid="ignore"):  # windows of 1 point give 0/0
        for a in range(0, lo.size, _SLOPE_BLOCK):
            b = min(a + _SLOPE_BLOCK, lo.size)
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
    return slopes


def local_slopes(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Moving linear-fit slope of ``values`` vs tau with +-SLOPE_WINDOW/2 support."""
    half = 0.5 * SLOPE_WINDOW
    lo = np.searchsorted(tau, tau - half, side="left")
    hi = np.searchsorted(tau, tau + half, side="right")
    return _window_slopes(tau, values, lo, hi)


def _onset_windows(tau: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left edges, point counts and slopes of ``detect_onset``'s consecutive windows.

    The windows are disjoint, so each slope comes from plain sums over its
    own points, centred on the window's means of tau and ``values``, which
    leaves no cancellation to compensate.  Windows with fewer than 3 points
    give NaN.
    """
    start = max(FIT_TAU_MIN, float(tau[0]))
    edges = np.arange(start, float(tau[-1]) + SLOPE_WINDOW, SLOPE_WINDOW)
    bounds = np.searchsorted(tau, edges, side="left")
    counts = np.diff(bounds)
    slopes = np.full(counts.shape, np.nan)
    if np.any(counts >= 3):
        # np.add.reduceat cannot start a window at the end of its array, so
        # the empty windows past the last point are left out; an empty
        # window within gets x[lo] for its sums, which no point reads
        first, last = bounds[0], bounds[-1]
        lo = bounds[:-1][bounds[:-1] < last] - first
        n = counts[:lo.size]

        def window_sums(x):
            return np.add.reduceat(x, lo)

        def centred(x):
            return x - np.repeat(window_sums(x) / np.maximum(n, 1), n)

        t, v = centred(tau[first:last]), centred(values[first:last])
        fit = n >= 3
        slopes[np.flatnonzero(fit)] = window_sums(t * v)[fit] / window_sums(t * t)[fit]
    return edges[:-1], counts, slopes


def detect_onset(series: BuildupSeries) -> OnsetReport:
    """Crossover time out of the exponential regime, plus the window fits.

    The tau axis is cut into consecutive windows of width ``SLOPE_WINDOW``;
    the onset is the left edge of the first of ``ONSET_PERSISTENCE``
    consecutive windows whose ln-delta slope deviates from -1/2 by more than
    ``ONSET_DEVIATION`` (relative).  Requiring a persistent run keeps the
    oscillatory structure right at the crossover from triggering early.
    """
    tau_d, ln_delta, _ = series._delta_curve
    if tau_d.size < 16:
        raise NoOnsetError("series too short for onset detection")
    edges, counts, slopes = _onset_windows(tau_d, ln_delta)
    flagged = (counts >= 4) & (np.abs(slopes + 0.5) > ONSET_DEVIATION * 0.5)

    tau_onset = None
    run = 0
    for i, bad in enumerate(flagged):
        run = run + 1 if bad else 0
        if run >= ONSET_PERSISTENCE:
            tau_onset = float(edges[i - ONSET_PERSISTENCE + 1])
            break
    if tau_onset is None:
        raise NoOnsetError("no onset in range")

    fit_tau_max = min(6.0, tau_onset - 1.0)
    base = fit_time_constant(series, tau_min=FIT_TAU_MIN, tau_max=fit_tau_max)

    exponent = None
    env_start = tau_onset + ENVELOPE_MARGIN
    if series.tau[-1] >= 1.5 * env_start:
        mask = series.tau >= env_start
        # subtract the known exponential so the fit sees the power-law part
        # alone even where e^{-tau/2} has not fully died out yet
        residual = np.abs(1.0 - series.ratio_abs[mask] - np.exp(-0.5 * series.tau[mask]))
        try:
            exponent = fit_envelope_exponent(series.tau[mask], residual)
        except FitWindowError:
            exponent = None
    return OnsetReport(
        tau0=base.tau0,
        fit_window=base.fit_window,
        fit_slope=base.fit_slope,
        fit_residual=base.fit_residual,
        tau_onset=tau_onset,
        envelope_exponent=exponent,
    )


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
