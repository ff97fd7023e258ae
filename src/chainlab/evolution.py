"""Propagators: exact 1D pieces and their 2D factorized product.

Everything implements the unitary group e^{iHt}.  Because the potential is
constant along m, the full propagator splits exactly into commuting factors

    e^{iHt} = e^{i A1 t} . e^{i (-Delta_m) t}

applied fiber by fiber; evolve_2d_factorized never forms a 2D matrix.
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
numpy.  Only an A1 chain of more than spectral.NUMPY_EIGH_SITES dirichlet
sites brings in scipy.linalg.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .operators import Operator1D, apply_h2d, build_operator_1d, hamiltonian_2d_entries, m_symmetries
from .spectral import EigenSystem, _real_matmul, _sector_solves, eigh_tridiagonal

M_METHODS = ("dft_multiplier", "bessel_kernel", "eigen")
DEFAULT_TAIL_TOL = 1e-10
CHEB_TOL = 1e-12


def evolve_1d_eigen(es: EigenSystem, chi: np.ndarray, t: float) -> np.ndarray:
    """e^{iAt} chi through the eigenbasis; chi may be (N,) or (N, K)."""
    c = es.overlaps(np.asarray(chi, dtype=complex))
    phases = np.exp(1j * t * es.eigenvalues)
    if c.ndim > 1:
        phases = phases.reshape((-1,) + (1,) * (c.ndim - 1))
    return es.combine(phases * c)


def _airy_depth(tail_tol: float) -> float:
    """x with exp(-(2/3) x^(3/2)) = tail_tol: Airy decay lengths past the turning point."""
    return (1.5 * math.log(1.0 / tail_tol)) ** (2.0 / 3.0)


def bessel_pad(t: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Sites beyond the light cone |m| = 2|t| kept so the dropped kernel tail is < tail_tol.

    Past the turning point J_m(2t) falls off like Ai(x) with x = (m - 2t) / t^(1/3),
    so the pad is a number of Airy lengths t^(1/3).  The margin calibrated at
    tail_tol = 1e-10 is scaled by the Airy depth of tail_tol against that of
    1e-10; the two-sided l1 tail beyond the pad is under tail_tol.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol!r}")
    z = max(2.0 * abs(t), 1.0)
    scale = _airy_depth(tail_tol) / _airy_depth(DEFAULT_TAIL_TOL)
    return int(math.ceil(10.0 * scale * (z / 2.0) ** (1.0 / 3.0))) + 12


def light_cone_reach(t: float, tail_tol: float = DEFAULT_TAIL_TOL) -> int:
    """Sites one site's amplitude can reach by time t: light cone 2|t| plus the kernel tail pad."""
    return int(math.ceil(2.0 * abs(t))) + bessel_pad(t, tail_tol)


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


def check_wrap_free(amp: np.ndarray, t: float, tail_tol: float, ring: bool) -> int:
    """The light-cone reach of amp's support by time t along the last axis.

    On a ring (ring=True) the support width plus the reach on each side must
    fit in the M sites, so nothing wraps onto itself; on a window the support
    must keep the reach from both ends, so nothing reflects or is cut off.
    Raises ValueError naming the sites needed otherwise.
    """
    lo, hi = _support_range(amp)
    reach = light_cone_reach(t, tail_tol)
    M = amp.shape[-1]
    need = (hi - lo + 1) + 2 * reach
    if not (M >= need if ring else reach <= lo and hi + reach <= M - 1):
        kind, fault = ("ring", "wraps") if ring else ("window", "reflects or truncates")
        raise ValueError(
            f"m-{kind} of {M} sites {fault} before t = {t:g}: the support [{lo}, {hi}] needs "
            f"{reach} sites of margin per side, so at least {need} sites"
        )
    return reach


def evolve_free_1d(
    phi: np.ndarray,
    t: float,
    method: str = "dft_multiplier",
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> np.ndarray:
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
        reach = check_wrap_free(phi, t, tail_tol, ring=False)
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
    """Precomputed pieces of the factorized propagator e^{iA1 t} e^{i(-Delta_m)t}.

    es1 is the eigensystem of A1; the free chain is the one-site chain
    free_operator(1).  m_method alone fixes A2 (a2_operator) and the m-sweep.
    """

    es1: EigenSystem
    m_method: str
    m_size: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        if self.m_method not in M_METHODS:
            raise ValueError(f"unknown m_method {self.m_method!r}, expected one of {M_METHODS}")
        if self.m_size < 2:
            raise ValueError("m_size must be at least 2")

    @property
    def n_size(self) -> int:
        return self.es1.size

    def a1_operator(self) -> Operator1D:
        return self.es1.source

    def a2_operator(self) -> Operator1D:
        """The m-fiber operator the plan realizes (window proxy for bessel_kernel)."""
        boundary = "periodic" if self.m_method == "dft_multiplier" else "dirichlet"
        return build_operator_1d(size=self.m_size, boundary=boundary)

    def n_sweep(self, a: np.ndarray, t: float) -> np.ndarray:
        """e^{iA1 t} along axis 0."""
        return evolve_1d_eigen(self.es1, a, t)

    def m_sweep(self, a: np.ndarray, t: float) -> np.ndarray:
        """e^{i(-Delta_m)t} along the last axis of a (M,) or (K, M) array."""
        return evolve_free_1d(a, t, self.m_method, self.tail_tol)


def make_plan(
    a1: Operator1D,
    m_method: str,
    m_size: int,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> PropagatorPlan:
    return PropagatorPlan(eigh_tridiagonal(a1), m_method, int(m_size), tail_tol)


def evolve_2d_factorized(state: np.ndarray, plan: PropagatorPlan, t: float) -> np.ndarray:
    """Apply the factorized propagator to an N x M state: the n-sweep, then the m-sweep (the two commute).

    The result is a new C-contiguous array, never a view of a sweep's padded work array.
    """
    if np.shape(state) != (plan.n_size, plan.m_size):
        raise ValueError(f"state shape {np.shape(state)} does not match plan ({plan.n_size}, {plan.m_size})")
    return np.ascontiguousarray(plan.m_sweep(plan.n_sweep(state, t), t))


def _chebyshev_order(z: float, tol: float) -> int:
    """Smallest K with a certified bound 2 sum_{k>K} |J_k(z)| < tol.

    Uses |J_k(z)| <= (z/2)^k / k! and a geometric majorant for the tail.
    """
    z = abs(z)
    K = max(int(math.ceil(z)), 8)
    while True:
        q = (z / 2.0) / (K + 2.0)
        if q < 0.5:
            log_first = (K + 1) * math.log(z / 2.0) - math.lgamma(K + 2.0) if z > 0 else -math.inf
            bound = 2.0 * math.exp(log_first) / (1.0 - q) if log_first > -700 else 0.0
            if bound < tol:
                return K
        K += max(4, K // 8)


def _chebyshev_expiht(apply_h, psi: np.ndarray, t: float, radius: float, tol: float) -> np.ndarray:
    """e^{iHt} psi by a Chebyshev expansion on [-radius, radius], truncation certified < tol."""
    z = radius * t
    K = _chebyshev_order(z, tol)
    k = np.arange(K + 1)
    coeffs = (2.0 - (k == 0)) * _PLUS_I_POW[k % 4] * bessel_j(K, z)
    tk_prev = psi
    tk = apply_h(psi) / radius
    acc = coeffs[0] * tk_prev + coeffs[1] * tk
    for k in range(2, K + 1):
        tk_prev, tk = tk, 2.0 * apply_h(tk) / radius - tk_prev
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
    the sectors of H's m-axis symmetries (m_symmetries about M // 2) that
    psi has a part in, each solved by numpy's eigh with no 1D eigenbasis
    (see spectral._sector_solves; its cap is DENSE_SITE_CAP sites).
    """
    if np.shape(state) != (a1.size, a2.size):
        raise ValueError(f"state shape {np.shape(state)} does not match operators ({a1.size}, {a2.size})")
    N, M = a1.size, a2.size
    if method == "dense":
        out = np.zeros(N * M, dtype=complex)
        entries, symmetries = hamiltonian_2d_entries(a1, a2), m_symmetries(N, a2, M // 2)
        for index, coeff, lam, vec, coeffs in _sector_solves(entries, N * M, np.ravel(state), symmetries):
            on = index >= 0
            out[on] += coeff[on] * _real_matmul(vec, np.exp(1j * t * lam) * coeffs)[index[on]]  # P V e^{i Lambda t} c
            del vec
        return out.reshape(N, M)
    if method == "chebyshev":
        radius = a1.norm_bound + a2.norm_bound
        return _chebyshev_expiht(lambda arr: apply_h2d(arr, a1, a2), state, t, radius, CHEB_TOL)
    raise ValueError(f"unknown method {method!r}, expected 'dense' or 'chebyshev'")
