"""Decay traces, power-law fits, transfer-matrix growth.

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
coincide, ||u||_2 ||w||_inf, so a trace holds it once, as mixed_norms, and
trace.csv writes it under both of its headers, l2n_supm and supm_l2n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import PropagatorPlan, check_wrap_free, light_cone_reach
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
    """Norms of a trajectory, one row per requested time; their drift from psi0's is evolution.conservation_defects."""

    times: np.ndarray
    sup_norms: np.ndarray
    mixed_norms: np.ndarray  # sup over m of the l2 norm along n, and l2 norm along n of the sup along m
    l2_norms: np.ndarray
    energies: np.ndarray
    psi0_l2: float
    psi0_energy: float

    def __post_init__(self):
        for name in ("times", "sup_norms", "mixed_norms", "l2_norms", "energies"):
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


def minimal_wrap_free_m(t_max: float) -> int:
    """Smallest m-extent on which a delta's evolution up to t_max is faithful to the infinite lattice."""
    return 1 + 2 * light_cone_reach(t_max)


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
    a1, a2 = plan.a1, plan.a2
    check_wrap_free(phi, float(times[-1]), ring=a2.boundary == "periodic")

    def energy(u, w):  # <psi, H psi> of psi = u (x) w, by the product formula
        u_l2, w_l2 = np.linalg.norm(u), np.linalg.norm(w)
        return u_l2**2 * np.vdot(w, a2.apply(w)).real + np.vdot(u, a1.apply(u)).real * w_l2**2

    cols = {name: [] for name in ("sup", "mixed", "l2", "energy")}
    for t in map(float, times):
        u = plan.n_sweep(chi, t)
        w = plan.m_sweep(phi, t)
        u_l2, w_l2 = np.linalg.norm(u), np.linalg.norm(w)
        w_sup = np.abs(w).max()
        cols["sup"].append(np.abs(u).max() * w_sup)
        cols["mixed"].append(u_l2 * w_sup)
        cols["l2"].append(u_l2 * w_l2)
        cols["energy"].append(energy(u, w))
    return DecayTrace(
        times=times,
        sup_norms=cols["sup"],
        mixed_norms=cols["mixed"],
        l2_norms=cols["l2"],
        energies=cols["energy"],
        psi0_l2=float(np.linalg.norm(chi) * np.linalg.norm(phi)),
        psi0_energy=float(energy(chi, phi)),
    )


def fit_samples(times: np.ndarray, t_lo: float, t_hi: float) -> tuple[np.ndarray, int]:
    """Indices of the sample times in the fit window [t_lo, t_hi], and how many distinct times they hold.

    A fit needs MIN_FIT_SAMPLES distinct times: a repeated time adds no sample.
    """
    window = np.flatnonzero((times >= t_lo) & (times <= t_hi))
    return window, len(set(times[window].tolist()))  # not np.unique, which loads numpy.ma (2 MB)


def fit_decay_exponent(trace: DecayTrace, t_lo: float, t_hi: float) -> DecayFit:
    """Least-squares slope of log sup_norms against log <t> on [t_lo, t_hi]."""
    if not (0.0 <= t_lo < t_hi):
        raise ValueError("need 0 <= t_lo < t_hi")
    window, distinct = fit_samples(trace.times, t_lo, t_hi)
    if distinct < MIN_FIT_SAMPLES:
        raise ValueError(f"only {distinct} distinct times in [{t_lo}, {t_hi}], need at least {MIN_FIT_SAMPLES}")
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
    # a step grows the largest entry by at most 1 + max|E - V_n| (|E - V| is largest at V's min or max),
    # so a block of steps from entries at most 1 stays below the float64 maximum
    with np.errstate(over="ignore"):
        step = 1.0 + np.abs(np.subtract.outer(E, (V.min(), V.max()))).max(initial=0.0)
    if not np.isfinite(step):  # no step fits: there is no finite growth rate to give
        return np.full_like(E, np.nan)
    block = int(min(RENORM_BLOCK, max(1.0, math.log(np.finfo(float).max) // math.log(step))))
    for start in range(0, L, block):
        for v in V[start : start + block]:
            e = E - v
            a, c = e * a - c, a
            b, d = e * b - d, b
        s = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        logsum += np.log(s)
        a /= s
        b /= s
        c /= s
        d /= s
    return logsum / L  # the last block ends renormalized: the product's largest entry is s / s = 1


def lyapunov_scan(spec: PotentialSpec, energies, L: int) -> np.ndarray:
    """Transfer-matrix growth rate (1/L) log ||prod T_n(E)|| at each energy.

    The product is renormalized by its sup-norm, with log accumulation, every
    RENORM_BLOCK steps, or fewer where 1 + max|E - V_n| raised to the block
    would pass the float64 maximum, so no product overflows.  Where |E - V_n|
    itself passes that maximum every rate is NaN.
    """
    if L < MIN_TRANSFER_LENGTH:
        raise ValueError(f"transfer length {L} is below the minimum {MIN_TRANSFER_LENGTH}")
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if not np.all(np.isfinite(energies)):
        raise ValueError("energies must be finite")
    V = sample_potential(spec, (0, int(L)))
    return _growth_numpy(V, energies)


def truncation_energies(spec: PotentialSpec, count: int) -> np.ndarray:
    """count distinct mid-spectrum eigenvalues of the dirichlet truncation to N = TRUNCATION_SITES sites.

    The middle N - 2 (N // 12) eigenvalues are eligible; a count below 1 or
    above that raises ValueError rather than return none or repeat one.
    """
    N = TRUNCATION_SITES
    limit = N - 2 * (N // 12)
    if count < 1:
        raise ValueError(f"count = {count} must be positive")
    if count > limit:
        raise ValueError(f"count = {count} exceeds the {limit} mid-spectrum eigenvalues of the {N}-site truncation")
    es = eigh_tridiagonal(build_operator_1d(sample_potential(spec, (0, N))))
    idx = np.linspace(N // 12, N - 1 - N // 12, count).astype(int)
    return es.eigenvalues[idx]
