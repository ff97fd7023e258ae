"""Propagators: exact 1D pieces and their 2D factorized product.

Everything implements the unitary group e^{iHt}.  Because the potential is
constant along m, the full propagator splits exactly into commuting factors

    e^{iHt} = e^{i A1 t} . e^{i (-Delta_m) t}

applied fiber by fiber by a PropagatorPlan, which holds A1 and builds A2,
and whose two sweeps own t = 0; evolve_2d_factorized never forms a 2D matrix.
evolve_2d_direct is the non-factorized reference route: ``method`` picks a
dense eigensolve of H's symmetry sectors (the solver of spectral's dense
oracle) or a Chebyshev expansion certified to CHEB_TOL.  Both 2D routes
take a state as a plain N x M array and return a new one; the input is
never written to, so a read-only array will do.

Free-propagator conventions (symbol of -Delta is -2 cos theta):
the DFT multiplier on mode k of an M-ring is e^{-2it cos(2 pi k / M)} and
the infinite-lattice kernel is K_m(t) = (-i)^m J_m(2t).  The m-factor is
free, so every m-sweep is one FFT and no M x M basis is formed (the eigen
window sweeps its odd image on a ring), and the kernel and the Chebyshev
coefficients take J_0..J_K from bessel_j, Miller's backward recurrence in
numpy.  One certified rule cuts both series: K is the smallest order whose
Kapteyn bound on the tail 2 sum_{k>K} |J_k| is below TAIL_TOL for the
kernel's reach and below CHEB_TOL for the Chebyshev order.  Only an A1
chain of more than spectral.NUMPY_EIGH_SITES dirichlet sites brings in
scipy.linalg.  conservation_defects is the one norm and energy drift rule.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .operators import Operator1D, apply_h2d, free_operator, hamiltonian_2d_entries, m_symmetries
from .spectral import EigenSystem, _real_matmul, _sector_solves, eigh_tridiagonal

M_METHODS = ("dft_multiplier", "bessel_kernel", "eigen")
CHEB_TOL = 1e-12  # largest truncation of the Chebyshev expansion
TAIL_TOL = 1e-10  # largest two-sided l1 tail of the free kernel beyond the light-cone reach
FACTORIZATION_TOL = 1e-8  # largest l2 gap between the factorized and the Chebyshev propagator
CONSERVATION_TOL = 1e-9  # largest relative norm or energy drift from t = 0


def conservation_defects(l2_norms: np.ndarray, energies: np.ndarray, n0: float, e0: float) -> tuple[float, float]:
    """Relative l2-norm and energy drift of a series against the initial state's norm n0 and energy e0.

    n0 and e0 are read off psi0 itself, not off a propagated sample, so a
    fault that every propagated sample shares still shows as drift.
    """
    norm_drift = float(np.abs(l2_norms - n0).max() / n0)
    energy_drift = float(np.abs(energies - e0).max() / max(1.0, abs(e0)))
    return norm_drift, energy_drift


def evolve_1d_eigen(es: EigenSystem, chi: np.ndarray, t: float) -> np.ndarray:
    """e^{iAt} chi through the eigenbasis; chi may be (N,) or (N, K)."""
    c = es.overlaps(np.asarray(chi, dtype=complex))
    phases = np.exp(1j * t * es.eigenvalues)
    if c.ndim > 1:
        phases = phases.reshape((-1,) + (1,) * (c.ndim - 1))
    return es.combine(phases * c)


def _bessel_tail_order(x: float, tol: float) -> int:
    """Smallest K with a certified bound 2 sum_{k>K} |J_k(x)| < tol.

    Past the turning point, k > |x|, Kapteyn's inequality bounds each term:
    |J_k(x)| <= b_k = (x/k)^k e^{k s} / (1 + s)^k with s = sqrt(1 - (x/k)^2)
    (Watson, A Treatise on the Theory of Bessel Functions, 8.7; DLMF 10.14).
    log b_k is concave in k, with slope log(z / (1 + s)) at z = x/k, so the
    ratios of successive terms fall and past a block of orders the rest is
    under a geometric series.  The bound is summed in log space over blocks
    of orders from floor(|x|) on, so it cannot overflow at any x.  From
    |x| = 2^53 on, consecutive orders are no longer distinct float64 values
    and no block could end the sum, so ValueError.
    """
    x = abs(x)
    if not x < 2.0**53:  # NaN too
        raise ValueError(f"Bessel tail order at argument {x:g}: float64 tells orders apart only below 2^53")
    if x == 0.0:
        return 0
    lo, width = math.floor(x), 64
    while True:
        k = np.arange(lo + 1, lo + width + 1, dtype=float)
        z = x / k
        s = np.sqrt((1.0 - z) * (1.0 + z))
        log_b = k * (np.log(z) + s - np.log1p(s))
        q = z[-1] / (1.0 + s[-1])  # bounds every ratio b_{k+1} / b_k past the block
        rest = math.exp(log_b[-1]) * q / (1.0 - q)
        tails = 2.0 * (np.cumsum(np.exp(log_b[::-1]))[::-1] + rest)  # tails[i] bounds the tail past lo + i
        passing = np.nonzero(tails < tol)[0]
        if passing.size:
            return lo + int(passing[0])
        lo, width = lo + width // 2, 2 * width  # the overlap rechecks orders the geometric rest failed


def light_cone_reach(t: float) -> int:
    """Sites one site's amplitude can reach by time t: light cone 2|t| plus a kernel tail certified below TAIL_TOL."""
    return _bessel_tail_order(2.0 * t, TAIL_TOL)


_MILLER_SHIFT = 512  # the recurrence rescales by 2^-512 whenever it passes 2^512
_MILLER_LOG_TOL = -60.0 * math.log(2.0)  # log of the start's tail bound, relative to min(1, bound at order)
_SERIES_X2 = 2.0**-52  # below this x^2, the leading power-series term is J_n(x) to double precision


def _miller_start(order: int, x: float) -> int:
    """Even start N > max(order, x) of Miller's recurrence for J_0(x)..J_order(x), x > 0.

    Uses the bound |J_n(x)| <= (x/2)^n / n! (DLMF 10.14.4): N is the first
    index where it falls below 2^-60 min(1, bound at order).  The error the
    start leaves in J_n is about (J_N / J_n)^2 past the turning point and
    about J_N^2 before it, far below the rounding of the recurrence itself.
    """
    log_half_x = math.log(x / 2.0)
    target = _MILLER_LOG_TOL + min(0.0, order * log_half_x - math.lgamma(order + 1))
    n = max(order, math.ceil(x)) + 1
    log_bound = n * log_half_x - math.lgamma(n + 1)
    while log_bound > target:
        n += 1
        log_bound += log_half_x - math.log(n)
    return n + n % 2


def bessel_j(order: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_order(x) for real x, by Miller's backward recurrence.

    J_{k-1} = (2k / x) J_k - J_{k+1} runs down from _miller_start with
    J_{N+1} = 0, J_N = 1 and is normalized by J_0 + 2 sum_k J_2k = 1; the
    downward direction is the stable one for the minimal solution J
    (Gautschi, SIAM Review 9, 1967).  Whenever the recurrence passes 2^512 it
    is rescaled by 2^-512, and the values it had already stored take those
    factors at the end through ldexp, so nothing overflows and orders far
    above |x| underflow gracefully to 0.  J_n(-x) = (-1)^n J_n(x).
    """
    order = operator.index(order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x * x < _SERIES_X2:  # J_n(x) = (x/2)^n / n! (1 - x^2 / (4(n+1)) + ...): the correction is below an ulp
        return np.cumprod(np.concatenate([[1.0], (x / 2.0) / np.arange(1, order + 1)]))
    ax = abs(x)
    start = _miller_start(order, ax)
    vals = [0.0] * (start + 1)
    rescaled_at = []  # the k of each rescale, descending; vals[k:] missed it
    y_up, y, even_sum, big = 0.0, 1.0, 0.0, 2.0**_MILLER_SHIFT
    for k in range(start, 0, -1):
        vals[k] = y
        if k % 2 == 0:
            even_sum += y
        y_up, y = y, (2.0 * k / ax) * y - y_up
        if abs(y) > big:
            y_up, y = math.ldexp(y_up, -_MILLER_SHIFT), math.ldexp(y, -_MILLER_SHIFT)
            even_sum = math.ldexp(even_sum, -_MILLER_SHIFT)
            rescaled_at.append(k)
    vals[0] = y
    missed = np.searchsorted(rescaled_at[::-1], np.arange(order + 1), side="right")
    out = np.ldexp(np.array(vals[: order + 1]) / (y + 2.0 * even_sum), -_MILLER_SHIFT * missed)
    if x < 0:
        out[1::2] *= -1.0
    return out


_MINUS_I_POW = np.array([1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j])  # (-i)^r, exact
_PLUS_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])  # i^k, exact


def bessel_kernel(t: float, half_width: int) -> np.ndarray:
    """K_r(t) = (-i)^r J_r(2t) for r in [-half_width, half_width].

    The kernel is even, K_{-r} = K_r, so J is evaluated only for r >= 0.
    """
    r = np.arange(half_width + 1)
    half = _MINUS_I_POW[r % 4] * bessel_j(half_width, 2.0 * t)
    return np.concatenate([half[:0:-1], half])


def _support_range(arr: np.ndarray) -> tuple[int, int]:
    """First and last occupied index along the last axis."""
    mass = np.abs(arr)
    if mass.ndim > 1:
        mass = mass.reshape(-1, mass.shape[-1]).max(axis=0)
    idx = np.nonzero(mass > 0.0)[0]
    if idx.size == 0:
        raise ValueError("state is identically zero")
    return int(idx[0]), int(idx[-1])


def check_wrap_free(amp: np.ndarray, t: float, ring: bool) -> int:
    """The light-cone reach of amp's support by time t along the last axis.

    On a ring (ring=True) the support width plus the reach on each side must
    fit in the M sites, so nothing wraps onto itself; on a window the support
    must keep the reach from both ends, so nothing reflects or is cut off.
    Raises ValueError naming the sites needed otherwise.
    """
    lo, hi = _support_range(amp)
    reach = light_cone_reach(t)
    M = amp.shape[-1]
    need = (hi - lo + 1) + 2 * reach
    if not (M >= need if ring else reach <= lo and hi + reach <= M - 1):
        kind, fault = ("ring", "wraps") if ring else ("window", "reflects or truncates")
        raise ValueError(
            f"m-{kind} of {M} sites {fault} before t = {t:g}: the support [{lo}, {hi}] needs "
            f"{reach} sites of margin per side, so at least {need} sites"
        )
    return reach


def evolve_free_1d(phi: np.ndarray, t: float, method: str = "dft_multiplier") -> np.ndarray:
    """Free propagator e^{i(-Delta)t} along the last axis, in closed form.

    dft_multiplier treats the axis as a periodic ring; eigen treats it as a
    dirichlet window, computed as a sine transform: the ring sweep of its odd
    image [0, phi, 0, -phi reversed] on 2(M+1) sites (Martucci, IEEE Trans.
    Signal Process. 42, 1994); bessel_kernel treats it as a window of the
    infinite lattice and insists the light cone plus kernel tail stays inside.
    The kernel of half-width reach is applied as a linear convolution by FFTs
    at the smallest 2^a 3^b 5^c 7^d >= M + 2 reach: any length from
    M + 2 reach on gives the same sites [reach, reach + M), and a 7-smooth
    one keeps numpy's FFT off its slow generic-radix and Bluestein passes.
    """
    phi = np.asarray(phi, dtype=complex)
    M = phi.shape[-1]
    if method == "dft_multiplier":
        return _ring_sweep(phi, t)
    if method == "eigen":
        zero = np.zeros(phi.shape[:-1] + (1,), dtype=complex)
        return _ring_sweep(np.concatenate([zero, phi, zero, -phi[..., ::-1]], axis=-1), t)[..., 1 : M + 1]
    if method == "bessel_kernel":
        reach = check_wrap_free(phi, t, ring=False)
        kern = bessel_kernel(t, reach)
        n_fft = _smooth_length(M + 2 * reach)
        out = np.fft.ifft(np.fft.fft(phi, n_fft, axis=-1) * np.fft.fft(kern, n_fft), axis=-1)
        return out[..., reach : reach + M]
    raise ValueError(f"unknown free-propagator method {method!r}, expected one of {M_METHODS}")


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c 7^d >= n: a length numpy's FFT runs in fast radix passes only."""
    while True:
        rest = n
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _ring_sweep(phi: np.ndarray, t: float) -> np.ndarray:
    """e^{i(-Delta)t} on the ring of phi.shape[-1] sites: one FFT, the DFT multiplier, one inverse FFT."""
    M = phi.shape[-1]
    mult = np.exp(-2j * t * np.cos(2.0 * np.pi * np.arange(M) / M))
    return np.fft.ifft(np.fft.fft(phi, axis=-1) * mult, axis=-1)


@dataclass(frozen=True)
class PropagatorPlan:
    """The factorized propagator e^{iA1 t} e^{i(-Delta_m)t}: the chain a1 and its eigensystem es1.

    The free chain is free_operator(1).  m_method alone fixes A2 (a2, built at each read) and the
    m-sweep.  t = 0 is the identity: each sweep then returns a complex copy of its input, unswept.
    """

    a1: Operator1D
    es1: EigenSystem
    m_method: str
    m_size: int

    def __post_init__(self):
        if self.m_method not in M_METHODS:
            raise ValueError(f"unknown m_method {self.m_method!r}, expected one of {M_METHODS}")
        if self.m_size < 2:
            raise ValueError("m_size must be at least 2")

    @property
    def n_size(self) -> int:
        return self.es1.size

    @property
    def a2(self) -> Operator1D:
        """The m-fiber operator the plan realizes (window proxy for bessel_kernel)."""
        boundary = "periodic" if self.m_method == "dft_multiplier" else "dirichlet"
        return free_operator(self.m_size, boundary)

    def n_sweep(self, a: np.ndarray, t: float) -> np.ndarray:
        """e^{iA1 t} along axis 0."""
        return np.array(a, dtype=complex) if t == 0 else evolve_1d_eigen(self.es1, a, t)

    def m_sweep(self, a: np.ndarray, t: float) -> np.ndarray:
        """e^{i(-Delta_m)t} along the last axis of a (M,) or (K, M) array."""
        return np.array(a, dtype=complex) if t == 0 else evolve_free_1d(a, t, self.m_method)


def make_plan(a1: Operator1D, m_method: str, m_size: int) -> PropagatorPlan:
    return PropagatorPlan(a1, eigh_tridiagonal(a1), m_method, int(m_size))


def evolve_2d_factorized(state: np.ndarray, plan: PropagatorPlan, t: float) -> np.ndarray:
    """Apply the factorized propagator to an N x M state: the n-sweep, then the m-sweep (the two commute).

    The result is a new C-contiguous array, never a view of a sweep's padded work array.
    """
    if np.shape(state) != (plan.n_size, plan.m_size):
        raise ValueError(f"state shape {np.shape(state)} does not match plan ({plan.n_size}, {plan.m_size})")
    return np.ascontiguousarray(plan.m_sweep(plan.n_sweep(state, t), t))


def _chebyshev_expiht(psi: np.ndarray, a1: Operator1D, a2: Operator1D, t: float) -> np.ndarray:
    """e^{iHt} psi by a Chebyshev expansion on [-r, r], r = a1.norm_bound + a2.norm_bound.

    The truncation is certified below CHEB_TOL by _bessel_tail_order; H is applied by apply_h2d.
    """
    radius = a1.norm_bound + a2.norm_bound
    z = radius * t
    K = max(_bessel_tail_order(z, CHEB_TOL), 1)  # the recurrence below starts from T_1
    k = np.arange(K + 1)
    coeffs = (2.0 - (k == 0)) * _PLUS_I_POW[k % 4] * bessel_j(K, z)
    tk_prev = psi
    tk = apply_h2d(psi, a1, a2) / radius
    acc = coeffs[0] * tk_prev + coeffs[1] * tk
    for k in range(2, K + 1):
        tk_prev, tk = tk, 2.0 * apply_h2d(tk, a1, a2) / radius - tk_prev
        acc += coeffs[k] * tk
    return acc


def evolve_2d_direct(
    state: np.ndarray,
    a1: Operator1D,
    a2: Operator1D,
    t: float,
    method: str = "dense",
) -> np.ndarray:
    """Non-factorized e^{iHt} of an N x M state: the oracle route against which the product form is tested.

    The dense route is sum_s P_s V_s e^{i Lambda_s t} V_s^T P_s^T psi over
    the sector rows of H's m-axis symmetries (m_symmetries about M // 2)
    that psi has a part in, each sector solved by one numpy eigh with no 1D
    eigenbasis (see spectral._sector_solves; its cap is DENSE_SITE_CAP sites).
    """
    if np.shape(state) != (a1.size, a2.size):
        raise ValueError(f"state shape {np.shape(state)} does not match operators ({a1.size}, {a2.size})")
    N, M = a1.size, a2.size
    if method == "dense":
        out = np.zeros(N * M, dtype=complex)
        entries, symmetries = hamiltonian_2d_entries(a1, a2), m_symmetries(N, a2)
        for index, coeff, lam, vec, coeffs in _sector_solves(entries, N * M, np.ravel(state), symmetries):
            evolved = _real_matmul(vec, np.exp(1j * t * lam) * coeffs)  # V e^{i Lambda t} c
            del vec
            for at, copy in zip(index, coeff):  # P evolved, one copy of the basis at a time
                on = at >= 0
                out[on] += copy[on] * evolved[at[on]]
        return out.reshape(N, M)
    if method == "chebyshev":
        return _chebyshev_expiht(state, a1, a2, t)
    raise ValueError(f"unknown method {method!r}, expected 'dense' or 'chebyshev'")
