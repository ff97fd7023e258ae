"""Decay traces, power-law fits, transfer-matrix growth, spreading moments.

The dispersive measurement: record sup_{n,m} |psi(t)| along a trajectory on
a grid sized so no wrapped or reflected amplitude re-enters the picture
(group speed is 2, so the light cone at time t spans 2t sites plus a kernel
tail), then fit log sup against log <t> with <t> = sqrt(1 + t^2).

A decay trace starts from a product state chi (x) phi, such as a delta, and
takes its two 1D factors; no N x M array is ever formed.  The propagator
keeps the product form, e^{iHt}(chi (x) phi) = (e^{iA1 t} chi) (x)
(e^{i(-Delta)t} phi), so every norm and the energy of psi(t) follow from the
two evolved factors: a sample costs O(N^2 + M log M) under every m-sweep
instead of a full O(N^2 M) step.  On a product state the two mixed norms
coincide, ||u||_2 ||w||_inf, so the trace's l2n_supm and supm_l2n columns
hold the same value.

n_fiber_isometry_defect and spreading_moments take a full state, a plain
N x M array; spreading_moments works in index coordinates (row i, column j).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import DEFAULT_TAIL_TOL, PropagatorPlan, check_wrap_free, light_cone_reach
from .operators import PotentialSpec, _freeze, build_operator_1d, sample_potential
from .spectral import eigh_tridiagonal

RENORM_BLOCK = 32
MIN_TRANSFER_LENGTH = 1000
MIN_FIT_SAMPLES = 8
TRUNCATION_SITES = 512  # sites of the dirichlet truncation whose eigenvalues the lyapunov scan samples


def time_bracket(t):
    """Japanese bracket <t> = sqrt(1 + t^2)."""
    t = np.asarray(t, dtype=float)
    return np.sqrt(1.0 + t * t)


@dataclass(frozen=True)
class DecayTrace:
    """Norms of a trajectory, one row per requested time."""

    times: np.ndarray
    sup_norms: np.ndarray
    l2n_supm: np.ndarray  # sup over m of the l2 norm along n
    supm_l2n: np.ndarray  # l2 norm along n of the sup along m
    l2_norms: np.ndarray
    energies: np.ndarray
    psi0_l1: float
    psi0_l2: float

    def __post_init__(self):
        for name in ("times", "sup_norms", "l2n_supm", "supm_l2n", "l2_norms", "energies"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.shape != (np.asarray(self.times).size,):
                raise ValueError("trace columns must share one length")
            object.__setattr__(self, name, _freeze(arr))


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    prefactor: float
    residual: float  # rms of log-log fit residuals
    t_lo: float
    t_hi: float
    n_samples: int


@dataclass(frozen=True)
class SpreadingMoments:
    m_second_moment: float
    n_second_moment: float
    participation_ratio: float


def minimal_wrap_free_m(t_max: float, support_width: int, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Smallest m-extent on which evolution up to t_max is faithful to the infinite lattice."""
    return support_width + 2 * light_cone_reach(t_max, tail_tol)


def record_decay(plan: PropagatorPlan, chi, phi, times) -> DecayTrace:
    """Evolve psi0 = chi (x) phi under the plan and record norms at each time.

    chi lives on the plan's N sites and phi on its M sites; only these two
    factors are evolved.  Times must be finite, nonnegative and ascending.
    The m-grid must be wrap-free for phi up to the last time per the
    light-cone rule; the error names the minimal grid otherwise.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("need a nonempty 1D array of times")
    if not np.all(np.isfinite(times)) or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be finite, nonnegative and ascending")
    chi, phi = np.asarray(chi, dtype=complex), np.asarray(phi, dtype=complex)
    if chi.shape != (plan.n_size,) or phi.shape != (plan.m_size,):
        raise ValueError(
            f"factor shapes {chi.shape} and {phi.shape} do not match plan ({plan.n_size},) and ({plan.m_size},)"
        )
    check_wrap_free(phi, float(times[-1]), plan.tail_tol, ring=plan.m_method == "dft_multiplier")

    a1 = plan.a1_operator()
    a2 = plan.a2_operator()
    cols = {name: [] for name in ("sup", "mixed", "l2", "energy")}
    for t in map(float, times):
        u = plan.n_sweep(chi, t)
        w = plan.m_sweep(phi, t)
        u_l2, w_l2 = np.linalg.norm(u), np.linalg.norm(w)
        w_sup = np.abs(w).max()
        energy = u_l2**2 * np.vdot(w, a2.apply(w)).real + np.vdot(u, a1.apply(u)).real * w_l2**2
        cols["sup"].append(np.abs(u).max() * w_sup)
        cols["mixed"].append(u_l2 * w_sup)
        cols["l2"].append(u_l2 * w_l2)
        cols["energy"].append(energy)
    return DecayTrace(
        times=times,
        sup_norms=cols["sup"],
        l2n_supm=cols["mixed"],
        supm_l2n=cols["mixed"],
        l2_norms=cols["l2"],
        energies=cols["energy"],
        psi0_l1=float(np.abs(chi).sum() * np.abs(phi).sum()),
        psi0_l2=float(np.linalg.norm(chi) * np.linalg.norm(phi)),
    )


def n_fiber_isometry_defect(plan: PropagatorPlan, psi0: np.ndarray, t: float) -> float:
    """max_m | ||psi(t)[:, m]||_2 - ||(m-sweep only)[:, m]||_2 | for an N x M state psi0.

    The n-sweep is an isometry on every column, so the two column-norm
    profiles must coincide.
    """
    half = plan.m_sweep(psi0, t)
    full = plan.n_sweep(half, t)
    return float(np.abs(np.linalg.norm(full, axis=0) - np.linalg.norm(half, axis=0)).max())


def conservation_defects(l2_norms: np.ndarray, energies: np.ndarray) -> tuple[float, float]:
    """Relative l2-norm and energy drift of a series against its first sample."""
    n0 = l2_norms[0]
    e0 = energies[0]
    norm_drift = float(np.abs(l2_norms - n0).max() / n0)
    energy_drift = float(np.abs(energies - e0).max() / max(1.0, abs(e0)))
    return norm_drift, energy_drift


def fit_samples(times: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """Indices of the sample times in the fit window [t_lo, t_hi]; a fit needs MIN_FIT_SAMPLES of them."""
    return np.flatnonzero((times >= t_lo) & (times <= t_hi))


def fit_decay_exponent(trace: DecayTrace, t_lo: float = 20.0, t_hi: float = 200.0) -> DecayFit:
    """Least-squares slope of log sup_norms against log <t> on [t_lo, t_hi]."""
    if not (0.0 <= t_lo < t_hi):
        raise ValueError("need 0 <= t_lo < t_hi")
    window = fit_samples(trace.times, t_lo, t_hi)
    if window.size < MIN_FIT_SAMPLES:
        raise ValueError(f"only {window.size} samples in [{t_lo}, {t_hi}], need at least {MIN_FIT_SAMPLES}")
    sups = trace.sup_norms[window]
    if np.any(sups <= 0):
        raise ValueError("sup norms must be positive on the fit window")
    x = np.log(time_bracket(trace.times[window]))
    if x.max() - x.min() < 1e-9:
        raise ValueError("fit window is degenerate in log <t>")
    y = np.log(sups)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return DecayFit(float(slope), float(np.exp(intercept)), resid, t_lo, t_hi, int(window.size))


# -- transfer-matrix growth ---------------------------------------------------
#
# T_n(E) = [[E - V_n, -1], [1, 0]] is the one-step map of the difference
# equation (E - A1) chi = 0 written in the (chi_{n+1}, chi_n) frame; the
# growth rate of the matrix product recovers the inverse localization length.


def _growth_numpy(V: np.ndarray, energies: np.ndarray) -> np.ndarray:
    E = np.asarray(energies, dtype=float)
    a = np.ones_like(E)
    b = np.zeros_like(E)
    c = np.zeros_like(E)
    d = np.ones_like(E)
    logsum = np.zeros_like(E)
    L = V.size
    for start in range(0, L, RENORM_BLOCK):
        for v in V[start : start + RENORM_BLOCK]:
            e = E - v
            a, c = e * a - c, a
            b, d = e * b - d, b
        s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        logsum += np.log(s)
        a /= s
        b /= s
        c /= s
        d /= s
    s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
    return (logsum + np.log(s)) / L


def lyapunov_scan(spec: PotentialSpec, energies, L: int = 10**6) -> np.ndarray:
    """Transfer-matrix growth rate (1/L) log ||prod T_n(E)|| at each energy.

    The product is renormalized by its sup-norm every RENORM_BLOCK steps with
    log accumulation, so products at L = 1e6 never overflow.
    """
    if L < MIN_TRANSFER_LENGTH:
        raise ValueError(f"transfer length {L} is below the minimum {MIN_TRANSFER_LENGTH}")
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.all(np.isfinite(energies)):
        raise ValueError("energies must be finite")
    V = sample_potential(spec, (0, int(L))).values
    return _growth_numpy(V, energies)


def truncation_energies(spec: PotentialSpec, N: int = TRUNCATION_SITES, count: int = 8) -> np.ndarray:
    """count distinct mid-spectrum eigenvalues of the N-site dirichlet truncation, for on-spectrum sampling.

    The middle N - 2 (N // 12) eigenvalues are eligible; a count below 1 or
    above that raises ValueError rather than return none or repeat one.
    """
    limit = N - 2 * (N // 12)
    if count < 1:
        raise ValueError(f"count = {count} must be positive")
    if count > limit:
        raise ValueError(f"count = {count} exceeds the {limit} mid-spectrum eigenvalues of the {N}-site truncation")
    es = eigh_tridiagonal(build_operator_1d(sample_potential(spec, (0, N))))
    idx = np.linspace(N // 12, N - 1 - N // 12, count).astype(int)
    return es.eigenvalues[idx]


def spreading_moments(state: np.ndarray, origin: tuple[float, float] | None = None) -> SpreadingMoments:
    """Second moments of |psi|^2 of an N x M state about ``origin`` (its centroid when omitted).

    Coordinates are array indices: row i is n = i and column j is m = j, so
    a physical origin goes in as its index, origin_index's value.
    """
    p = np.abs(state) ** 2
    total = p.sum()
    if total <= 0:
        raise ValueError("state is identically zero")
    n = np.arange(p.shape[0], dtype=float)
    m = np.arange(p.shape[1], dtype=float)
    pn = p.sum(axis=1) / total
    pm = p.sum(axis=0) / total
    if origin is None:
        origin = (float(n @ pn), float(m @ pm))
    n_bar, m_bar = float(origin[0]), float(origin[1])
    return SpreadingMoments(
        m_second_moment=float(((m - m_bar) ** 2) @ pm),
        n_second_moment=float(((n - n_bar) ** 2) @ pn),
        participation_ratio=float(total**2 / (p**2).sum()),
    )
