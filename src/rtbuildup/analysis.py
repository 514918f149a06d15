"""Quantitative buildup analysis: charging law, crossover, and envelopes.

On resonance the normalized modulus follows |Psi(tau)/phi| = 1 - e^{-tau/2}
(time constant: two lifetimes) until the exponential term dips below the
algebraic remainder; ln delta(tau) with delta = |1 - |Psi/phi|| then leaves
the slope -1/2 line and turns into a tau^{-1/2}-modulated oscillation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import TransientSolution
from .resonances import ResonantState
from .scattering import stationary_wave


SLOPE_WINDOW = 0.5  # tau width of the moving and of the consecutive slope windows
ONSET_DEVIATION = 0.2  # relative departure of a window slope from -1/2 that counts
ONSET_PERSISTENCE = 3  # consecutive departing windows that make the onset
FIT_TAU_MIN = 0.5  # start of the charging-law fit window
ENVELOPE_MARGIN = 4.0  # tau after the onset where the envelope fit starts
ENVELOPE_BLOCKS = 12  # log-spaced tau blocks of the envelope fit
MIN_PER_BLOCK = 24  # samples a block needs to count


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
    resonance_index: int | None
    r_ratio: float

    @cached_property
    def _delta_curve(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``delta_curve``, computed once and read-only, so slopes taken over it stay valid."""
        keep = self.delta > 0.0
        tau, ln_delta = self.tau[keep], np.log(self.delta[keep])
        tau.flags.writeable = ln_delta.flags.writeable = False
        return tau, ln_delta, int(np.count_nonzero(~keep))

    @cached_property
    def _slopes(self) -> tuple[np.ndarray, np.ndarray]:
        """``local_slopes`` over the delta curve and the slopes of ``detect_onset``'s
        windows, from one set of prefix sums."""
        tau, ln_delta, _ = self._delta_curve
        lo, hi = _moving_windows(tau)
        _edges, onset_lo, onset_hi = _onset_windows(tau)
        slopes = _window_slopes(
            tau, ln_delta, np.concatenate([lo, onset_lo]), np.concatenate([hi, onset_hi])
        )
        return slopes[:tau.size], slopes[tau.size:]


@dataclass(frozen=True)
class OnsetReport:
    """Exponential-window fit and crossover location."""

    tau0: float
    fit_window: tuple[float, float]
    fit_slope: float
    fit_residual: float
    tau_onset: float | None = None
    envelope_exponent: float | None = None


def normalize_buildup(
    solution: TransientSolution, state: ResonantState, *, resonance_index: int | None = None
) -> BuildupSeries:
    """|Psi/phi| series with time converted to lifetime units.

    phi is recomputed from the stationary solver at the solution's energy
    and position, and tau = t Gamma_n / hbar.
    """
    phi = stationary_wave(solution.profile, solution.energy_ev, solution.x)
    if abs(phi) < 1e-12:
        raise NodePositionError(f"|phi({solution.x})| = {abs(phi):.2e}; position sits on a node")
    tau = solution.t_fs / state.lifetime_fs
    ratio = np.abs(solution.psi / phi)
    return BuildupSeries(
        tau=tau,
        ratio_abs=ratio,
        ratio_abs2=ratio**2,
        delta=np.abs(1.0 - ratio),
        resonance_index=resonance_index,
        r_ratio=state.r_ratio,
    )


def fit_time_constant(
    series: BuildupSeries,
    *,
    tau_min: float = 0.5,
    tau_max: float = 6.0,
    residual_tol: float = 0.05,
) -> OnsetReport:
    """Least-squares fit of ln(1 - |Psi/phi|) over the pre-onset window.

    tau0 = -1/slope; an RMS residual above ``residual_tol`` means the window
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
    if residual > residual_tol:
        raise FitWindowError(
            f"fit residual {residual:.3g} exceeds {residual_tol}; window overlaps the onset"
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
    ``local_slopes`` over the two arrays returned last also takes the
    slopes ``detect_onset`` needs for the same series, from the same
    prefix sums.
    """
    global _latest_curve
    _latest_curve = weakref.ref(series)
    return series._delta_curve


_latest_curve = None
"""Weak reference to the series ``delta_curve`` was last called on."""


_SPLITTER = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves


def _two_sum(a, b):
    """a + b as (rounded sum, exact rounding error): Knuth's TwoSum."""
    s = a + b
    b_part = s - a
    return s, (a - (s - b_part)) + (b - b_part)


def _two_product(a, b):
    """a * b as (rounded product, exact rounding error): Dekker's TwoProduct."""
    p = a * b
    a_hi = _SPLITTER * a
    a_hi = a_hi - (a_hi - a)
    b_hi = _SPLITTER * b
    b_hi = b_hi - (b_hi - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _window_slopes(
    tau: np.ndarray, values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Least-squares slope of ``values`` vs tau over each index window [lo, hi).

    O(n) from prefix sums of 1, t, t^2, v and t v, with t = tau centred on
    its mean; windows with fewer than 3 points give NaN.  ``values`` must be
    finite, since one NaN would spoil every later prefix sum.  The slope is
    (n S_tv - S_t S_v) / (n S_tt - S_t^2), and both differences cancel by
    about (window mean / window spread)^2, so every sum and product is
    carried as an unevaluated (value, rounding error) pair, as in
    Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 1955 (2005).
    """
    slopes = np.full(lo.shape, np.nan)
    ok = hi - lo >= 3
    if not np.any(ok):
        return slopes
    lo, hi = lo[ok], hi[ok]
    t = tau - tau.mean()
    values = np.asarray(values, dtype=float)

    def window_sum(x, x_error=0.0):
        # np.cumsum adds left to right, so TwoSum on consecutive running
        # sums recovers the exact error of every step
        total = np.concatenate(([0.0], np.cumsum(x)))
        _, step_error = _two_sum(total[:-1], x)
        error = np.concatenate(([0.0], np.cumsum(step_error + x_error)))
        s, e = _two_sum(total[hi], -total[lo])
        return s, e + (error[hi] - error[lo])

    def cross(n, s_ab, s_a, s_b):
        # n S_ab - S_a S_b; the two leading products are exact, so their
        # cancellation loses nothing
        p, p_error = _two_product(n, s_ab[0])
        q, q_error = _two_product(s_a[0], s_b[0])
        tail = p_error - q_error + n * s_ab[1] - s_a[0] * s_b[1] - s_a[1] * s_b[0]
        return (p - q) + tail

    n = (hi - lo).astype(float)
    s_t, s_v = window_sum(t), window_sum(values)
    s_tt, s_tv = window_sum(*_two_product(t, t)), window_sum(*_two_product(t, values))
    slopes[ok] = cross(n, s_tv, s_t, s_v) / cross(n, s_tt, s_t, s_t)
    return slopes


def _moving_windows(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    half = 0.5 * SLOPE_WINDOW
    return np.searchsorted(tau, tau - half, side="left"), np.searchsorted(tau, tau + half, side="right")


def local_slopes(tau: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Moving linear-fit slope of ``values`` vs tau with +-SLOPE_WINDOW/2 support."""
    series = _latest_curve() if _latest_curve is not None else None
    if series is not None and series._delta_curve[0] is tau and series._delta_curve[1] is values:
        return series._slopes[0].copy()
    return _window_slopes(tau, values, *_moving_windows(tau))


def _onset_windows(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges and index bounds of ``detect_onset``'s consecutive windows; none below 16 points."""
    if tau.size < 16:
        return np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    start = max(FIT_TAU_MIN, float(tau[0]))
    edges = np.arange(start, float(tau[-1]) + SLOPE_WINDOW, SLOPE_WINDOW)
    lo = np.searchsorted(tau, edges[:-1], side="left")
    hi = np.searchsorted(tau, edges[1:], side="left")
    return edges, lo, hi


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
    edges, lo, hi = _onset_windows(tau_d)
    if "_slopes" in vars(series):  # local_slopes took them over this curve
        slopes = series._slopes[1]
    else:
        slopes = _window_slopes(tau_d, ln_delta, lo, hi)
    flagged = (hi - lo >= 4) & (np.abs(slopes + 0.5) > ONSET_DEVIATION * 0.5)

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
