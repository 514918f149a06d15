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
phi (exp(y_{-k}^2) - M(y_{-k})) - phi* M(y_{-k}), one kernel per ray; with
one per ray of each pole pair, P pairs take 2P + 1 kernel evaluations per
grid point.  Every ray is y = c sqrt(hbar t / 2m) over an ascending grid, so
it crosses |y| = ``Y_FAR`` = 8 once: the points below go through the
``wofz`` kernel, those beyond through the asymptotic series (directly, or
as exp(y^2) - series(-y) on a reflected ray with Re(c^2) <= 0), split point
by point.  The sum is evaluated over fixed slices of ``BLOCK`` grid points,
one slice per task on a thread pool; each slice holds the free term and
every pole pair, so the values do not depend on how many workers run them.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .moshinsky import EXP_MINUS_IPI4, Y_FAR, _moshinsky_m_far, _moshinsky_m_grid
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


def _kernel_ray(c: complex, r: np.ndarray) -> np.ndarray:
    """M(c r) over an ascending r: ``_moshinsky_m_grid`` below |y| = ``Y_FAR``, the series beyond.

    A direct ray (Re c > 0) takes the series as it is; a reflected one takes
    exp(y^2) - series(-y), which needs Re(c^2) <= 0 to stay on the kernel's
    one-branch path.  Any other ray goes whole to the kernel.
    """
    y = c * r
    direct = c.real > 0.0
    split = r.size
    if direct or (c.real < 0.0 and (c * c).real <= 0.0):
        split = int(np.searchsorted(r, Y_FAR / abs(c)))
    if split == r.size:
        return _moshinsky_m_grid(y)
    out = np.empty_like(y)
    if split:
        out[:split] = _moshinsky_m_grid(y[:split])
    far = y[split:]
    y_min = abs(far[0])
    if direct:
        out[split:] = _moshinsky_m_far(far, y_min)
    else:
        out[split:] = np.exp(far * far) - _moshinsky_m_far(-far, y_min)
    return out


def _pole_pair_term(t_n: complex, k_n: complex, root_t: np.ndarray) -> np.ndarray:
    """-i [T_n M(y_{k_n}) + T_{-n} M(y_{-k_n*})] for one pole pair.

    For real incidence momentum T_{-n} = conj(T_n) because u_{-n} = u_n* and
    k_{-n}^2 = conj(k_n^2).
    """
    m_kn = _kernel_ray(-EXP_MINUS_IPI4 * k_n, root_t)
    m_mknc = _kernel_ray(EXP_MINUS_IPI4 * k_n.conjugate(), root_t)
    return -1j * (t_n * m_kn + t_n.conjugate() * m_mknc)


def _evolve(profile, poles, energy_ev, x, tau, t_fs, mode, reference, tail_tol):
    if not 0.0 < energy_ev < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_ev}")
    if not 0.0 <= x <= profile.total_length:
        raise ValueError(f"position {x} outside [0, {profile.total_length}] A")
    tau, t_fs = _resolve_grid(reference, tau, t_fs)
    constants = profile.constants
    k = constants.wavevector(energy_ev)
    phi = stationary_state(profile, energy_ev).phi(x)
    pairs = [(2.0 * k * s.u0 * s.u(x) / (k * k - s.k * s.k), s.k) for s in poles]

    root_t = np.sqrt(constants.hbar2_over_2m * t_fs / constants.hbar)
    psi = np.empty(t_fs.size, dtype=complex)

    def block(start: int):
        """Fill psi[start:start + BLOCK]; return the last pair's term at its last point."""
        r = root_t[start:start + BLOCK]
        out = psi[start:start + BLOCK]
        # y_k = -y_{-k}, so M(y_k) = exp(y_{-k}^2) - M(y_{-k}) by the reflection
        y_mk = EXP_MINUS_IPI4 * k * r
        m = _kernel_ray(EXP_MINUS_IPI4 * k, r)
        out[:] = phi * (np.exp(y_mk * y_mk) - m) - np.conj(phi) * m
        for t_n, k_n in pairs:
            term = _pole_pair_term(t_n, k_n, r)
            out += term
        return term[-1]

    starts = range(0, t_fs.size, BLOCK)
    lasts = list(_executor().map(block, starts)) if len(starts) > 1 else [block(0)]

    scale = abs(psi[-1])
    diag = abs(lasts[-1]) / scale if scale > 0.0 else math.inf
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
