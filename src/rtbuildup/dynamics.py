"""Time evolution of the internal-region wavefunction after shutter opening.

The internal solution is the stationary wave modulated by Moshinsky kernels
plus resonance transients,

    Psi(x,k;t) = phi M(0,k;t) - phi* M(0,-k;t) - i sum_n T_n M(0,k_n;t),

with T_n = 2k u_n(0) u_n(x) / (k^2 - k_n^2) and the sum running over the
fourth-quadrant poles k_n together with their third-quadrant partners
k_{-n} = -k_n*.  The single-resonance form keeps one pole pair; on resonance
it decomposes into the exponential charging term |phi|^2 (1 - e^{-tau/2})^2
plus an algebraically decaying remainder.

Since y_k = -y_{-k}, the reflection identity writes the free term as
phi exp(y_{-k}^2) - 2 Re(phi) M(y_{-k}), so the sum is

    Psi = phi exp(y_{-k}^2) + sum_i w_i M(c_i r),    r = sqrt(hbar t / 2m),

over 2P + 1 rays y_i = c_i r for P pole pairs.  Each ray crosses
|y| = ``Y_NEAR`` = 1 and ``Y_FAR`` = 8 once on an ascending grid.  Below
Y_NEAR every ray takes the Taylor series of M, beyond Y_FAR the asymptotic
one (a reflected ray adds exp(y^2)), so at each r the rays in either band
collapse into one series in r whose coefficients are their weighted
moments: one Horner sum per point and band, whatever the number of rays
(``_Rays``).  In the band between, a reflected ray adds exp(y^2) as well,
which leaves every ray there a smooth direct-branch term; cut at the
rays' band edges into pieces no wider than ``BAND_RATIO`` in r, the rays
on each piece sum to one entire function of r, interpolated from its
values at ``BAND_NODES`` Chebyshev nodes.  ``wofz`` runs only at the
nodes, in one call per evolution, so an added pole pair costs a few
multiply-adds per grid point rather than a Faddeeva evaluation at each of
its band points.  The sum is evaluated
over fixed slices of ``BLOCK`` grid points, one slice per task on a thread
pool; each slice holds every ray and reads the same node values, so the
values do not depend on how many workers run them.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .moshinsky import (
    BAND_NODES,
    BAND_RATIO,
    EXP_MINUS_IPI4,
    SERIES_TERMS,
    TAYLOR_TERMS,
    Y_FAR,
    Y_NEAR,
    _horner,
    _moshinsky_m_grid,
    _series_coefficients,
    _series_terms,
    _taylor_coefficients,
)
from .profile import PotentialProfile
from .resonances import ResonantState
from .scattering import stationary_state


class ConvergenceWarning(UserWarning):
    """Pole-sum truncation diagnostic exceeded the requested tolerance."""


@dataclass(frozen=True)
class TransientSolution:
    """Psi(x, k; t) sampled on a time grid at fixed position."""

    profile: PotentialProfile = field(repr=False)
    energy_ev: float
    x: float
    t_fs: np.ndarray = field(repr=False)
    tau: np.ndarray | None = field(repr=False)
    psi: np.ndarray = field(repr=False)
    phi: complex
    mode: str
    reference: ResonantState | None = field(repr=False)
    convergence_diag: float | None = None

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


def _resolve_grid(reference: ResonantState | None, tau, t_fs):
    if (tau is None) == (t_fs is None):
        raise ValueError("provide exactly one of tau or t_fs")
    if tau is not None:
        if reference is None:
            raise ValueError("a reference resonance is required for a tau grid")
        tau = np.asarray(tau, dtype=float)
        t_fs = tau * reference.lifetime_fs
    else:
        t_fs = np.asarray(t_fs, dtype=float)
        tau = t_fs / reference.lifetime_fs if reference is not None else None
    if t_fs.ndim != 1 or t_fs.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(t_fs)):
        raise ValueError("time grid must be finite")
    if np.any(t_fs <= 0.0) or np.any(np.diff(t_fs) <= 0.0):
        raise ValueError("time grid must be strictly increasing and positive")
    return tau, t_fs


BLOCK = 4096
"""Grid points per slice of the pole sum; slices depend on the grid length only."""

_pool: tuple[int, ThreadPoolExecutor] | None = None


def _executor() -> ThreadPoolExecutor:
    """This process's worker pool.

    A forked child inherits the pool object but none of its threads, so
    tasks queued on it would never run; a new pool is made per process id.
    """
    global _pool
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        _pool = (pid, ThreadPoolExecutor(os.cpu_count() or 1, thread_name_prefix="rtbuildup"))
    return _pool[1]


_TAYLOR = np.asarray(_taylor_coefficients(TAYLOR_TERMS))
_SERIES = np.asarray(_series_coefficients(SERIES_TERMS))

_EXP_CUT = 60.0
"""Beyond Y_FAR a reflected ray drops its exp(y^2) once Re(y^2) < -60, below 1e-26 of its weight."""

_NODE_ANGLE = (2 * np.arange(BAND_NODES) + 1) * np.pi / (2 * BAND_NODES)
_NODES = np.cos(_NODE_ANGLE)
"""First-kind Chebyshev nodes on [-1, 1]; none is an end point, so none lies on a band edge."""
_NODE_WEIGHTS = (-1.0) ** np.arange(BAND_NODES) * np.sin(_NODE_ANGLE)
"""Their barycentric weights (Berrut & Trefethen, SIAM Rev. 46, 501 (2004), sec. 5)."""

_EDGE_RTOL = 8 * np.finfo(float).eps
"""Band edges closer than this, relative, are one edge: both rays of a pair share |c| up to rounding."""


class _Rays:
    """sum_i w_i M(c_i r) over an ascending grid of r >= 0, every ray on one branch.

    A ray is direct (Re c > 0) or reflected with Re(c^2) <= 0, as every ray
    of the pole sum is.  Ray i is below ``Y_NEAR`` for r < Y_NEAR/|c_i| and
    beyond ``Y_FAR`` for r >= Y_FAR/|c_i|.  In both bands M is a series in
    y = c_i r, so at each r the rays there sum to one series in r whose
    coefficients are the weighted moments of their c_i: a Taylor series
    with moments w c^n, and an asymptotic one with moments w c^-(2j+1).
    Rays leave the near band in order of rising |c| and join the far band
    in order of falling |c|, so the moments of every set that occurs are
    the running sums of a table in that order, added and never subtracted.

    A reflected ray adds its w exp(y^2) from its near edge on, so that what
    is left of it in the band between is -w M(-y), on the direct branch;
    beyond Y_FAR, where M(y) = exp(y^2) - M(-y), the series is odd in y.
    Cut at every ray's band edges and again until no piece spans more than
    ``BAND_RATIO`` in r, the band holds a fixed set of rays on each piece,
    whose direct-branch terms sum to one entire function of r.  It is
    interpolated from its values at ``BAND_NODES`` Chebyshev nodes, all
    taken in one ``_moshinsky_m_grid`` call over the pieces that hold a
    point of the grid ``r`` given here; the values depend on the rays alone.
    """

    def __init__(self, c: np.ndarray, w: np.ndarray, r: np.ndarray):
        order = np.argsort(np.abs(c), kind="stable")
        self.c, self.w = c[order], w[order]
        mag = np.abs(self.c)
        # each edge moves down to the first of the edges it differs from only by rounding
        edges = np.sort(np.concatenate([Y_NEAR / mag, Y_FAR / mag]))
        edges = edges[np.concatenate(([True], edges[1:] > edges[:-1] * (1.0 + _EDGE_RTOL)))]
        self.near_edge = edges[np.searchsorted(edges, Y_NEAR / mag, "right") - 1]
        self.far_edge = edges[np.searchsorted(edges, Y_FAR / mag, "right") - 1]
        self.far_mag = mag[::-1].tolist()
        moments = self.w[:, None] * self.c[:, None] ** np.arange(TAYLOR_TERMS)
        self.near = np.cumsum(moments, axis=0) * _TAYLOR
        moments = self.w[::-1, None] * self.c[::-1, None] ** -(2 * np.arange(SERIES_TERMS) + 1)
        self.far = np.cumsum(moments, axis=0) * _SERIES
        reflected = self.c.real < 0.0
        decay = np.maximum(-(self.c * self.c).real, 0.0)
        with np.errstate(divide="ignore"):
            exp_end = np.maximum(self.far_edge, np.sqrt(_EXP_CUT / decay))
        self.exp_c, self.exp_w = self.c[reflected].tolist(), self.w[reflected].tolist()
        self.exp_from, self.exp_to = self.near_edge[reflected], exp_end[reflected]

        # pieces [bounds[p], bounds[p + 1]); a piece holds the rays whose band covers it
        cuts = np.ceil(np.log(edges[1:] / edges[:-1]) / math.log(BAND_RATIO)).astype(int)
        step = (edges[1:] / edges[:-1]) ** (1.0 / cuts)
        self.bounds = np.concatenate(
            [e * s ** np.arange(n) for e, s, n in zip(edges[:-1].tolist(), step.tolist(), cuts.tolist())]
            + [edges[-1:]]
        )
        lo, hi = self.bounds[:-1], self.bounds[1:]
        rays = (self.near_edge <= lo[:, None]) & (hi[:, None] <= self.far_edge)
        held = np.searchsorted(r, lo) < np.searchsorted(r, hi)
        pieces = np.flatnonzero(held & rays.any(axis=1))
        # slot[j] is the piece number of the points j pieces up from bounds[0], -1 for none
        self.slot = np.full(self.bounds.size + 1, -1)
        self.slot[pieces + 1] = np.arange(pieces.size)
        self.mid = 0.5 * (hi + lo)[pieces]
        self.half = 0.5 * (hi - lo)[pieces]
        piece, ray = np.nonzero(rays[pieces])
        sign = np.where(reflected, -1.0, 1.0)[ray, None]
        node_r = self.mid[piece, None] + self.half[piece, None] * _NODES
        # values[j, p]: the sum at node j of piece p
        self.values = np.zeros((BAND_NODES, pieces.size), dtype=complex)
        if piece.size:
            m = _moshinsky_m_grid(sign * self.c[ray, None] * node_r)
            firsts = np.flatnonzero(np.diff(piece, prepend=-1))
            self.values = np.add.reduceat(sign * self.w[ray, None] * m, firsts, axis=0).T.copy()

    def add_to(self, out: np.ndarray, r: np.ndarray) -> None:
        """out += sum_i w_i M(c_i r) for r a run of the grid the rays were made for."""
        # ray i is near on [0, lo[i]) and far on [hi[i], r.size); both fall with i
        lo = np.searchsorted(r, self.near_edge).tolist()
        hi = np.searchsorted(r, self.far_edge).tolist()
        # points [lo[m + 1], lo[m]) are near for rays 0..m
        for m, (a, b) in enumerate(zip(lo[1:] + [0], lo)):
            if a < b:
                out[a:b] += _horner(self.near[m].tolist(), r[a:b].astype(complex))
        # a reflected ray adds its exp(y^2) from its near edge to past Y_FAR
        start, stop = np.searchsorted(r, self.exp_from).tolist(), np.searchsorted(r, self.exp_to).tolist()
        for c, w, a, b in zip(self.exp_c, self.exp_w, start, stop):
            if a < b:
                y = c * r[a:b]
                y *= y
                out[a:b] += w * np.exp(y, out=y)
        # in order of falling |c|, points [hi[m], hi[m + 1]) are far for rays 0..m
        far = hi[::-1]
        for m, (a, b) in enumerate(zip(far, far[1:] + [r.size])):
            if a < b:
                n = _series_terms(self.far_mag[m] * r[a])
                inv = 1.0 / r[a:b]
                out[a:b] += inv * _horner(self.far[m, :n].tolist(), (inv * inv).astype(complex))
        # the band, by the barycentric formula on each point's piece, one node at a time
        slot = self.slot[np.searchsorted(self.bounds, r, "right")]
        points = np.flatnonzero(slot >= 0)
        if points.size:
            slot = slot[points]
            x = (r[points] - self.mid[slot]) / self.half[slot]
            num, den = np.zeros(x.size, dtype=complex), np.zeros(x.size)
            with np.errstate(divide="ignore", invalid="ignore"):
                for node, weight, values in zip(_NODES.tolist(), _NODE_WEIGHTS.tolist(), self.values):
                    q = weight / (x - node)
                    den += q
                    num += q * values[slot]
                band = num / den
            on = np.flatnonzero(~np.isfinite(band))  # a point on a node: inf / inf
            band[on] = self.values[np.argmin(np.abs(x[on, None] - _NODES), axis=1), slot[on]]
            out[points] += band


def _evolve(profile, poles, energy_ev, x, tau, t_fs, mode, reference, tail_tol):
    if not 0.0 < energy_ev < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_ev}")
    if not 0.0 <= x <= profile.total_length:
        raise ValueError(f"position {x} outside [0, {profile.total_length}] A")
    tau, t_fs = _resolve_grid(reference, tau, t_fs)
    constants = profile.constants
    state = stationary_state(profile, energy_ev)
    k, phi = state.k, state.phi(x)
    # y_k = -y_{-k}, so M(y_k) = exp(y_{-k}^2) - M(y_{-k}) by the reflection:
    # the free term is phi exp(y_{-k}^2) - 2 Re(phi) M(y_{-k})
    c_free = EXP_MINUS_IPI4 * k
    c, w = [c_free], [-2.0 * phi.real]
    for s in poles:
        # -i [T_n M(y_{k_n}) + T_{-n} M(y_{-k_n*})], with T_{-n} = conj(T_n)
        # for real k because u_{-n} = u_n* and k_{-n}^2 = conj(k_n^2)
        t_n = 2.0 * k * s.u0 * s.u(x) / (k * k - s.k * s.k)
        c += [-EXP_MINUS_IPI4 * s.k, EXP_MINUS_IPI4 * s.k.conjugate()]
        w += [-1j * t_n, -1j * t_n.conjugate()]
    c, w = np.asarray(c, dtype=complex), np.asarray(w, dtype=complex)
    root_t = np.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
    rays = _Rays(c, w, root_t)
    psi = np.empty(t_fs.size, dtype=complex)

    def block(start: int) -> None:
        r = root_t[start:start + BLOCK]
        out = psi[start:start + BLOCK]
        # the free term, the largest, goes in last so that the rays' partial
        # sums round at their own scale rather than at |phi|
        out[:] = 0.0
        rays.add_to(out, r)
        y_free = c_free * r
        out += phi * np.exp(y_free * y_free)

    starts = range(0, t_fs.size, BLOCK)
    if len(starts) > 1:
        list(_executor().map(block, starts))
    else:
        block(0)

    last = np.zeros(1, dtype=complex)  # the last pair's term at the last grid point
    _Rays(c[-2:], w[-2:], root_t[-1:]).add_to(last, root_t[-1:])
    scale = abs(psi[-1])
    diag = abs(last[0]) / scale if scale > 0.0 else math.inf
    if mode == "full" and diag > tail_tol:
        warnings.warn(
            f"last pole pair contributes {diag:.2e} of |Psi| at the final grid point "
            f"(tolerance {tail_tol:.1e}); add poles to the expansion",
            ConvergenceWarning,
            stacklevel=3,
        )
    return TransientSolution(
        profile, float(energy_ev), float(x), t_fs, tau, psi, phi, mode, reference, diag
    )


def evolve_single_resonance(
    profile: PotentialProfile,
    state: ResonantState,
    energy_ev: float,
    x: float,
    *,
    tau=None,
    t_fs=None,
) -> TransientSolution:
    """One-level transient solution for incidence near resonance n.

    The incidence energy must lie within a few widths of eps_n for the
    single-resonance form to make sense.
    """
    if abs(energy_ev - state.eps_ev) > 10.0 * state.gamma_ev:
        raise ValueError(
            f"E = {energy_ev} eV is {abs(energy_ev - state.eps_ev) / state.gamma_ev:.1f} "
            "widths away from the resonance; use the full expansion"
        )
    return _evolve(
        profile, [state], energy_ev, x, tau, t_fs, "single_resonance", state, math.inf
    )


def evolve_full(
    profile: PotentialProfile,
    poles: Sequence[ResonantState],
    energy_ev: float,
    x: float,
    *,
    tau=None,
    t_fs=None,
    reference: ResonantState | None = None,
    tail_tol: float = 1e-8,
) -> TransientSolution:
    """Truncated pole-sum solution.

    Poles are sorted by resonance energy; the relative contribution of the
    last included pair at the final grid point is reported as the
    convergence diagnostic and triggers a ``ConvergenceWarning`` above
    ``tail_tol``, which must be positive.
    """
    if not poles:
        raise ValueError("pole list must be non-empty")
    if not tail_tol > 0.0:
        raise ValueError(f"tail_tol must be positive, got {tail_tol}")
    ordered = sorted(poles, key=lambda s: s.eps_ev)
    if reference is None and tau is not None:
        reference = min(ordered, key=lambda s: abs(s.eps_ev - energy_ev))
    return _evolve(profile, ordered, energy_ev, x, tau, t_fs, "full", reference, tail_tol)


@dataclass(frozen=True)
class BuildupDecomposition:
    """|Psi|^2 split into the exponential charging term and the remainder."""

    tau: np.ndarray
    exponential_part: np.ndarray
    remainder: np.ndarray
    phi_abs2: float

    @property
    def abs2(self) -> np.ndarray:
        return self.exponential_part + self.remainder


def buildup_decomposition(
    solution: TransientSolution, state: ResonantState
) -> BuildupDecomposition:
    """Remainder Delta(tau) = |Psi|^2 - |phi|^2 (1 - e^{-tau/2})^2.

    Requires an on-resonance single-resonance solution; the identity
    exponential_part + remainder == |Psi|^2 holds by construction.
    """
    if solution.mode != "single_resonance":
        raise ValueError("decomposition is defined for single-resonance solutions")
    if solution.reference is None or abs(solution.reference.k - state.k) > 1e-12 * abs(state.k):
        raise ValueError("solution was not produced with this resonance")
    if abs(solution.energy_ev - state.eps_ev) > 1e-9 * state.eps_ev:
        raise ValueError(
            f"solution energy {solution.energy_ev} is not on resonance ({state.eps_ev})"
        )
    tau = solution.tau
    phi_abs2 = abs(solution.phi) ** 2
    exponential = phi_abs2 * (1.0 - np.exp(-0.5 * tau)) ** 2
    # small difference of O(|phi|^2) quantities; the accuracy floor is set by
    # the ~1e-14 relative error of the kernel evaluations, not this subtraction
    remainder = solution.abs2 - exponential
    return BuildupDecomposition(tau, exponential, remainder, phi_abs2)
