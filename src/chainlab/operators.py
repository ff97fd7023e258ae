"""Lattice model: 1D potentials, tridiagonal operators, the 2D Hamiltonian.

A 2D state is a plain N x M numpy array over a window of the lattice:
psi[i, j] is the amplitude at site (n0 + i, j - M // 2).  The array does not
carry its window: config places the n-window, the m-delta sits at the middle
column, and the trajectory writers take the start (n0, -(M // 2)) beside the
snapshots.  The 2D Hamiltonian acts on a state as

    (H psi)[n, m] = -(psi[n+1,m] + psi[n-1,m] + psi[n,m+1] + psi[n,m-1]) + V[n] psi[n,m]

with the potential constant along the m direction.  H therefore splits into
a tridiagonal operator A1 = -shift - shift^T + diag(V) acting on n-fibers
plus the free hopping operator -Delta acting on m-fibers, and everything
downstream (spectral measures, propagators) exploits that product structure.

Sign convention: pure hopping carries coefficient -1 and there is no
diagonal 2d term, so the free 1D spectrum is [-2, 2] and the free 2D
spectrum is [-4, 4].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

FAMILIES = ("constant", "quasiperiodic", "almost_mathieu", "random_iid", "explicit")
BOUNDARIES = ("dirichlet", "periodic")

DENSE_SITE_CAP = 4096  # most sites of an operator the lab solves densely (2D sectors, periodic chains)
# Fewest ring sites per cell of the rotation m_symmetries gives the dense oracle.  Each sector block
# then couples at least six m-sites per n, a 2D eigenproblem scattered from H's stencil.  The full
# translation group (one site per cell) would leave blocks A1 + 2 cos k, the very convolution the
# oracle checks, so the oracle would no longer be an independent route.
RING_CELL_SITES = 6


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential family.

    amplitude is the single numeric knob of each family: the value c for
    ``constant``, the prefactor a for the quasiperiodic families, and the
    half-width w for ``random_iid`` (values uniform in [-w, w), seed in [0, 2^64)).
    ``explicit`` potentials are anchored at n = 0.
    """

    family: str
    amplitude: float = 0.0
    omega: float = GOLDEN_MEAN
    theta: float = 0.0
    profile: tuple[float, ...] | None = None
    seed: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}, expected one of {FAMILIES}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.family in ("quasiperiodic", "almost_mathieu"):
            if not np.isfinite(self.omega) or not np.isfinite(self.theta):
                raise ValueError("omega and theta must be finite")
        if self.family == "quasiperiodic":
            if self.profile is None or len(self.profile) < 16:
                raise ValueError("quasiperiodic needs a profile of at least 16 samples over one period")
            if not all(np.isfinite(v) for v in self.profile):
                raise ValueError("profile samples must be finite")
        if self.family == "random_iid" and self.seed is None:
            raise ValueError("random_iid needs an explicit seed")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must {'be nonnegative' if self.seed < 0 else 'lie below 2^64'}, got {self.seed}")
        if self.family == "explicit":
            if not self.values:
                raise ValueError("explicit potential needs a nonempty values list")
            if not all(np.isfinite(v) for v in self.values):
                raise ValueError("explicit potential values must be finite")


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place: a bijection of uint64 (Steele, Lea and Flood, 2014)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _iid_uniform(seed: int, n_lo: int, n_hi: int) -> np.ndarray:
    """Uniform [-1, 1) values at sites n in [n_lo, n_hi): step n of a SplitMix64 stream keyed by the
    hashed seed.  All operands are uint64: numpy 1.x promotes uint64 with int to float64."""
    gamma = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment, 2^64 / golden ratio
    key = _mix64(np.array([seed], dtype=np.uint64) + gamma)
    z = _mix64(np.arange(n_lo, n_hi, dtype=np.int64).view(np.uint64) * gamma + key)
    return (z >> np.uint64(11)) * 2.0**-52 - 1.0  # the top 53 bits


def sample_potential(spec: PotentialSpec, window: tuple[int, int]) -> np.ndarray:
    """The read-only values of a potential spec on the half-open integer window [start, stop)."""
    start, stop = int(window[0]), int(window[1])
    if stop <= start:
        raise ValueError(f"empty sampling window ({start}, {stop})")
    n = np.arange(start, stop)
    if spec.family == "constant":
        vals = np.full(n.size, float(spec.amplitude))
    elif spec.family == "almost_mathieu":
        vals = spec.amplitude * np.cos(2.0 * np.pi * spec.omega * n + spec.theta)
    elif spec.family == "quasiperiodic":
        from scipy.interpolate import CubicSpline  # deferred: importing it takes longer than all of chainlab

        prof = np.asarray(spec.profile, dtype=float)
        period = 2.0 * np.pi
        x = np.linspace(0.0, period, prof.size + 1)
        spline = CubicSpline(x, np.append(prof, prof[0]), bc_type="periodic")
        phase = np.mod(2.0 * np.pi * spec.omega * n + spec.theta, period)
        vals = spec.amplitude * spline(phase)
    elif spec.family == "random_iid":
        vals = spec.amplitude * _iid_uniform(spec.seed, start, stop)
    else:  # explicit, anchored at n = 0
        if start < 0 or stop > len(spec.values):
            raise ValueError(
                f"explicit potential covers n in [0, {len(spec.values)}), window ({start}, {stop}) is outside"
            )
        vals = np.array(spec.values[start:stop], dtype=float)
    return _freeze(vals)


@dataclass(frozen=True)
class Operator1D:
    """Tridiagonal -shift - shift^T + diag(diagonal), dirichlet or periodic ends.

    A ring hops across its seam on top of its interior bonds, so a one-site
    ring acts as diagonal - 2 (the site is its own neighbour twice).
    """

    diagonal: np.ndarray
    boundary: str = "dirichlet"

    def __post_init__(self):
        diag = np.array(self.diagonal, dtype=float, copy=True, order="C")
        if diag.ndim != 1 or diag.size == 0:
            raise ValueError("operator needs at least one site")
        if not np.all(np.isfinite(diag)):
            raise ValueError("operator diagonal must be finite")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {self.boundary!r}, expected one of {BOUNDARIES}")
        object.__setattr__(self, "diagonal", _freeze(diag))

    @property
    def size(self) -> int:
        return self.diagonal.size

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral radius."""
        return 2.0 + float(np.max(np.abs(self.diagonal)))

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply along axis 0 of a (N,) or (N, K) array."""
        v = np.asarray(vec)
        if v.shape[0] != self.size:
            raise ValueError(f"axis-0 length {v.shape[0]} does not match operator size {self.size}")
        diag = self.diagonal.reshape((-1,) + (1,) * (v.ndim - 1))
        out = diag * v
        out[1:] -= v[:-1]
        out[:-1] -= v[1:]
        if self.boundary == "periodic":
            out[0] -= v[-1]
            out[-1] -= v[0]
        return out

    def matrix(self) -> np.ndarray:
        n = self.size
        mat = np.diag(self.diagonal).astype(float)
        off = np.arange(n - 1)
        mat[off, off + 1] = -1.0
        mat[off + 1, off] = -1.0
        if self.boundary == "periodic":
            mat[0, n - 1] -= 1.0
            mat[n - 1, 0] -= 1.0
        return mat


def build_operator_1d(potential: np.ndarray, boundary: str = "dirichlet") -> Operator1D:
    """Tridiagonal operator on a sampled potential's values."""
    return Operator1D(potential, boundary)


def free_operator(size: int, boundary: str = "dirichlet") -> Operator1D:
    """The free chain of size sites: the tridiagonal operator on a zero potential."""
    return Operator1D(np.zeros(int(size)), boundary)


def delta_vector(size: int, index: int | None = None) -> np.ndarray:
    """Unit mass at index of a window of size sites (None: the middle site, size // 2)."""
    index = size // 2 if index is None else index
    if not 0 <= index < size:
        raise ValueError(f"index {index} is outside the window of {size} sites")
    vec = np.zeros(size, dtype=complex)
    vec[index] = 1.0
    return vec


def delta_state(N: int, M: int, i: int | None = None) -> np.ndarray:
    """Unit mass at row i (None: N // 2) of the middle column M // 2 of an N x M window."""
    return np.outer(delta_vector(N, i), delta_vector(M))


def apply_h2d(state: np.ndarray, a1: Operator1D, a2: Operator1D) -> np.ndarray:
    """Matrix-free application of H = A1 (x) I + I (x) A2 to an N x M state, into a new array."""
    if np.shape(state) != (a1.size, a2.size):
        raise ValueError(f"state shape {np.shape(state)} does not match operators ({a1.size}, {a2.size})")
    out = a1.apply(state)
    out += a2.apply(state.T).T
    return out


def hamiltonian_2d_entries(a1: Operator1D, a2: Operator1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H's five-point stencil as (rows, cols, values), about 5 N M entries; entries at one position add.

    Site (n, m) is row n*M + m.  A ring's seam is a bond of its own, so a
    2-site ring hops twice.  Never calls apply_h2d: each checks the other.
    """
    N, M = a1.size, a2.size
    site = np.arange(N * M).reshape(N, M)
    rows, cols, values = [site.ravel()], [site.ravel()], [np.add.outer(a1.diagonal, a2.diagonal).ravel()]
    for op, fibers in ((a1, site), (a2, site.T)):  # hopping along n, then along m
        bonds = [(fibers[:-1], fibers[1:])] + [(fibers[-1:], fibers[:1])] * (op.boundary == "periodic")
        for here, there in bonds:
            rows += [here.ravel(), there.ravel()]
            cols += [there.ravel(), here.ravel()]
            values.append(np.full(2 * here.size, -1.0))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def m_symmetries(N: int, a2: Operator1D) -> tuple[np.ndarray, ...]:
    """Maps of the N*M sites along m that carry A2's diagonal to itself, so H commutes with them.

    The reflection, about the middle column on a ring, m -> (2 (M // 2) - m) mod M,
    and m -> M - 1 - m on a dirichlet window; and on a ring of even M the rotation
    m -> m + M/p.  p is the largest even divisor of M with M/p >= RING_CELL_SITES,
    or 2 (the half-turn) when none is larger or the reflection is not a symmetry,
    so the maps always generate a dihedral group D_p (spectral._symmetry_group).
    """
    M, m = a2.size, np.arange(a2.size)

    def even(g):  # g carries A2's diagonal to itself
        return np.array_equal(a2.diagonal[g], a2.diagonal)

    if a2.boundary == "dirichlet":
        maps = [m[::-1]]
    else:
        maps = [(2 * (M // 2) - m) % M]
        if M % 2 == 0:
            orders = [p for p in range(4, M // RING_CELL_SITES + 1, 2) if M % p == 0] if even(maps[0]) else []
            maps.append((m + M // max(orders, default=2)) % M)
    return tuple((M * np.arange(N)[:, None] + g).ravel() for g in maps if even(g))


def energy_expectation(state: np.ndarray, a1: Operator1D, a2: Operator1D) -> float:
    """<psi, H psi>, real for Hermitian H."""
    return float(np.vdot(state, apply_h2d(state, a1, a2)).real)
