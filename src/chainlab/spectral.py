"""Spectral measures of separable lattice operators.

A SpectralMeasure holds finitely many atoms plus an optional piecewise
constant density on a uniform grid.  For a self-adjoint operator with
eigenpairs (lambda_j, v_j) and vectors chi, phi the matrix element measure
carries an atom at each lambda_j with weight conj(v_j . chi) (v_j . phi);
the map (chi, phi) -> measure is conjugate-linear in chi and linear in phi.

The 2D-operator measure at an N x M state psi has an atom at each
lambda1_j + lambda2_k with weight |(V1^T psi V2)_jk|^2.  At finite
combinations sum_j alpha_j chi_j (x) phi_j that is
sum_{j,k} conj(alpha_j) alpha_k (mu1_jk * mu2_jk) where * is measure
convolution; that identity is what the convolution tests pin down.

Eigensystems come from three places: free_eigensystem writes down the free
chain's sine or Fourier basis (the m-factor's measures; propagators sweep
the m-factor by FFT, and free_delta_measure reads a single row of the basis),
eigh_tridiagonal solves a chain with a potential (the n-factor), and numpy's
eigh alone serves the 2D dense routes: dense_measure is the commands' oracle,
dense_eigensystem serves evolve_2d_direct's dense route and the tests.  Given
a mirror of the sites (an involution that H is checked to commute with, such
as the reflection of the m-axis), dense_measure splits H, only read, into its
mirror-even and mirror-odd blocks and solves only the blocks the site has a
part in: the even one when the mirror fixes the site, both when it moves it.
"""
from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass

import numpy as np

from .operators import DENSE_SITE_CAP, Operator1D, _freeze

ATOM_MERGE_TOL = 1e-9
DEFAULT_GRID_BINS = 512
GRID_PAD = 1e-6
NUMPY_EIGH_SITES = 512  # chains up to this size skip the scipy.linalg import
_TILE = 128  # side of the tiles the symmetry check compares
_SECTOR_ROWS = 64  # sector rows formed per block from rows of H


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: Operator1D | None = None

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        vec = np.array(self.eigenvectors, dtype=float, copy=True, order="F")
        if lam.ndim != 1 or vec.ndim != 2 or vec.shape[1] != lam.size:
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
        if np.any(np.diff(lam) < 0):
            order = np.argsort(lam, kind="stable")
            lam, vec = lam[order], vec[:, order]
        object.__setattr__(self, "eigenvalues", _freeze(lam))
        object.__setattr__(self, "eigenvectors", _freeze(vec))

    @property
    def size(self) -> int:
        return self.eigenvalues.size

    def overlaps(self, vec: np.ndarray) -> np.ndarray:
        """Plain (unconjugated) eigenvector coefficients V^T vec along axis 0."""
        return _real_matmul(self.eigenvectors.T, vec)

    def combine(self, coeffs: np.ndarray) -> np.ndarray:
        """V coeffs along axis 0: the vector with the given eigenvector coefficients."""
        return _real_matmul(self.eigenvectors, coeffs)


def _real_matmul(mat: np.ndarray, data) -> np.ndarray:
    """mat @ data for a real mat, along axis 0 of data.

    Complex data goes through one real GEMM on its interleaved float64 view,
    (n, 2K) for K complex columns, so mat is never cast to complex.
    """
    data = np.asarray(data)
    if not np.iscomplexobj(data):
        return mat @ data
    cols = np.ascontiguousarray(data, dtype=complex)
    out = mat @ cols.reshape(cols.shape[0], -1).view(np.float64)
    return out.view(complex).reshape((mat.shape[0],) + cols.shape[1:])


def free_eigensystem(op: Operator1D) -> EigenSystem:
    """Eigensystem of a free chain (zero diagonal) in closed form, with no solver.

    A dirichlet window of M sites has lambda_k = -2 cos(pi k / (M+1)) and
    v_k(j) = sqrt(2/(M+1)) sin(pi j k / (M+1)) for j, k = 1..M.  A ring has
    lambda_k = -2 cos(2 pi k / M) with the real basis: the constant for
    k = 0, a cos and a sin column for each 0 < k < M/2 (one eigenvalue, so
    the pair is bit-equal), and (-1)^j for k = M/2 when M is even.  Each
    basis takes its values from a table over one period indexed by jk mod the
    period, so the argument reduction is exact and no M^2 float argument is
    formed.  Only the measures need it: the plans sweep A2 by FFT.
    """
    lam, vec = _free_basis_rows(op, np.arange(op.size))
    return EigenSystem(lam, vec, source=op)


def free_delta_measure(op: Operator1D, site: int, merge_tol: float = ATOM_MERGE_TOL) -> SpectralMeasure:
    """spectral_measure_1d(free_eigensystem(op), e_site), bit for bit, in O(M).

    The weights are the squared entries of row ``site`` of the basis, the
    only row formed.
    """
    site = operator.index(site)
    if not 0 <= site < op.size:
        raise ValueError(f"site {site} is outside [0, {op.size})")
    lam, row = _free_basis_rows(op, np.array([site]))
    return SpectralMeasure.from_atoms(lam, row[0] ** 2, merge_tol)


def _free_basis_rows(op: Operator1D, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """free_eigensystem's eigenvalues and the given rows (0-based sites) of its basis."""
    if np.any(op.diagonal):
        raise ValueError("free_eigensystem needs a free chain: the operator has a nonzero diagonal")
    M = op.size
    if op.boundary == "dirichlet":
        k = np.arange(1, M + 1)
        period = 2 * (M + 1)
        table = math.sqrt(2.0 / (M + 1)) * np.sin(np.pi * np.arange(period) / (M + 1))
        return -2.0 * np.cos(np.pi * k / (M + 1)), _table_columns(table, rows + 1, k, period)
    pairs = np.arange(1, (M + 1) // 2)
    k = np.concatenate([[0], np.repeat(pairs, 2), [M // 2] * (1 - M % 2)]).astype(int)
    angle = 2.0 * np.pi * np.arange(M) / M
    table = math.sqrt(2.0 / M) * np.concatenate([np.cos(angle), np.sin(angle)])  # cos at r, sin at M + r
    sine = np.zeros(k.size, dtype=int)
    sine[2 : 2 * pairs.size + 1 : 2] = M  # the second column of each pair
    vec = _table_columns(table, rows, k, M, sine)
    vec[:, 0] /= math.sqrt(2.0)  # the constant and the alternating columns have norm sqrt(M), not sqrt(M/2)
    if M % 2 == 0:
        vec[:, -1] /= math.sqrt(2.0)
    return -2.0 * np.cos(2.0 * np.pi * k / M), vec


def _table_columns(table: np.ndarray, j: np.ndarray, k: np.ndarray, period: int, offset=0) -> np.ndarray:
    """table[(j k) mod period + offset] as a (j.size, k.size) array; the index is exact integer arithmetic."""
    index = np.multiply.outer(j, k)
    np.remainder(index, period, out=index)
    index += offset
    return table[index]


def eigh_tridiagonal(op: Operator1D) -> EigenSystem:
    """Full eigendecomposition of a 1D operator.

    A plan's m-factor never comes here: it is free, swept by FFT, and
    free_eigensystem writes its basis down for the measures.  Chains of at
    most NUMPY_EIGH_SITES sites take numpy's dense solver, which at those
    sizes costs less than importing scipy.linalg.  Longer dirichlet chains go
    through scipy.linalg.eigh_tridiagonal and its default LAPACK routine
    (stevd in current scipy); the periodic corner makes the matrix
    non-tridiagonal, so long rings stay dense (capped, the dense solve is
    O(N^3)).
    """
    if op.boundary == "dirichlet" and op.size > NUMPY_EIGH_SITES:
        import scipy.linalg  # deferred: importing it costs more than a short chain's dense solve

        try:
            lam, vec = scipy.linalg.eigh_tridiagonal(op.diagonal, -np.ones(op.size - 1))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
            raise RuntimeError(f"tridiagonal eigensolver did not converge: {exc}") from exc
        return EigenSystem(lam, vec, source=op)
    if op.size > DENSE_SITE_CAP:
        raise ValueError(f"periodic operator of size {op.size} exceeds the dense cap of {DENSE_SITE_CAP}")
    lam, vec = np.linalg.eigh(op.matrix())
    return EigenSystem(lam, vec, source=op)


def _check_symmetric(mat: np.ndarray) -> float:
    """Reject a non-square matrix, a non-finite entry, or |H - H^T| above _defect_bound(H); return that bound.

    One pass compares each _TILE x _TILE tile of the upper triangle with its
    mirror tile, so the transposed read stays in cache and no temporary
    outgrows a tile.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
        raise ValueError("matrix must be square and non-empty")
    bound = _defect_bound(mat)
    n = mat.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            asym = float(np.abs(mat[i : i + _TILE, j : j + _TILE] - mat[j : j + _TILE, i : i + _TILE].T).max())
            if asym > bound:
                raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e} above {bound:.1e})")
    return bound


def _defect_bound(mat: np.ndarray) -> float:
    """1e-12 max(1, max|H|): the largest entry a symmetry defect of H may reach; a non-finite H is refused."""
    top = max(mat.max(), -mat.min())
    if not np.isfinite(top):
        i, j = np.argwhere(~np.isfinite(mat))[0]
        raise ValueError(f"matrix entry ({i}, {j}) is {mat[i, j]}, not finite")
    return 1e-12 * max(1.0, top)


def _check_site(site: int, n: int) -> None:
    if not 0 <= site < n:
        raise ValueError(f"site {site} is outside [0, {n})")


def dense_eigensystem(matrix: np.ndarray) -> EigenSystem:
    """Eigendecomposition of an arbitrary dense real symmetric matrix."""
    mat = np.asarray(matrix, dtype=float)
    _check_symmetric(mat)
    lam, vec = np.linalg.eigh(mat)
    return EigenSystem(lam, vec)


def _mirror_sectors(matrix: np.ndarray, site: int, mirror) -> list[tuple[np.ndarray, int]]:
    """H on the sectors a site involution leaves even and odd, each with e_site's index in it.

    The even basis P has e_s at each fixed point s of the mirror and
    (e_s + e_mirror(s)) / sqrt(2) at each pair s < mirror(s); the odd basis
    Q has (e_s - e_mirror(s)) / sqrt(2) at each pair; both in increasing s.
    The mirror is certified on H, never assumed: it must be an involution,
    and the odd-by-even block Q^T H P must stay within _check_symmetric's
    bound (_defect_bound).  Then H is P^T H P plus Q^T H Q.  When the mirror
    fixes ``site``, e_site is even and only P^T H P is formed.  When it pairs
    ``site`` with its twin, e_site is (p +- q) / sqrt(2) for the pair's even
    and odd vectors, and Q^T H Q is formed too; the measure of H at e_site is
    then the mean of the two sectors' measures at the pair's indices.  H is
    only read, block by block of _SECTOR_ROWS sector rows, so no n^2
    temporary is formed beside the sectors.
    """
    mat = np.asarray(matrix, dtype=float)
    bound = _check_symmetric(mat)
    n = mat.shape[0]
    _check_site(site, n)
    mirror = np.asarray(mirror)
    sites = np.arange(n)
    if (
        mirror.shape != (n,)
        or mirror.dtype.kind not in "iu"
        or np.any((mirror < 0) | (mirror >= n))
        or not np.array_equal(mirror[mirror], sites)
    ):
        raise ValueError(f"mirror is not an involution of the {n} sites")
    reps = np.flatnonzero(mirror >= sites)  # one site of each orbit
    twins = mirror[reps]
    paired = twins != reps
    scale = np.where(paired, math.sqrt(0.5), 0.5)  # the sums below count a fixed point twice
    rep = min(site, int(mirror[site]))
    even = np.empty((reps.size, reps.size))
    sectors = [(even, int(np.searchsorted(reps, rep)))]
    if rep != mirror[rep]:
        odd_reps, odd_twins = reps[paired], twins[paired]
        odd = np.empty((odd_reps.size, odd_reps.size))
        sectors.append((odd, int(np.searchsorted(odd_reps, rep))))
    done = 0  # odd rows formed so far
    for i in range(0, reps.size, _SECTOR_ROWS):
        rows = slice(i, i + _SECTOR_ROWS)
        head = np.take(mat, reps[rows], axis=0)  # rows of H at the representatives, then at their twins
        tail = np.take(mat, twins[rows], axis=0)
        np.add(np.take(head, reps, axis=1), np.take(head, twins, axis=1), out=even[rows])
        even[rows] += np.take(tail, reps, axis=1)
        even[rows] += np.take(tail, twins, axis=1)
        even[rows] *= scale[rows, None]
        even[rows] *= scale
        head -= tail  # sqrt(2) times the odd rows; zero at a fixed point
        del tail
        coupling = np.take(head, reps, axis=1) + np.take(head, twins, axis=1)
        coupling *= scale
        defect = math.sqrt(0.5) * float(np.abs(coupling).max())
        if defect > bound:
            raise ValueError(f"matrix does not commute with the mirror (odd-even coupling {defect:.3e})")
        if len(sectors) == 2:
            head = head[paired[rows]]
            block = odd[done : done + head.shape[0]]
            np.subtract(np.take(head, odd_reps, axis=1), np.take(head, odd_twins, axis=1), out=block)
            block *= 0.5
            done += head.shape[0]
    return sectors


def dense_measure(
    matrix: np.ndarray, site: int, merge_tol: float = ATOM_MERGE_TOL, mirror: np.ndarray | None = None
) -> SpectralMeasure:
    """Spectral measure of a dense real symmetric H at the basis vector e_site.

    Equal to spectral_measure_1d(dense_eigensystem(H), e_site), from numpy's
    eigh alone: the atoms are eigenvalues and their weights the squared
    entries of e_site's row of the eigenvectors.  H is only read.

    ``mirror`` is an optional involution of the sites that commutes with H,
    as the reflection of the m-axis does (operators.m_mirror_sites).  H is
    then split into the blocks on the mirror's even and odd sectors (see
    _mirror_sectors, which certifies the mirror on H and raises ValueError
    when it fails), and each block is solved alone.  A site the mirror fixes
    is even, so one block of about half of H serves, and the odd sector's
    atoms, which carry no weight at e_site, are not listed.  A site the
    mirror moves is half even and half odd: both blocks are solved and the
    measure is the mean of their measures, with the union of their atoms.

    The reference to H is dropped once the blocks are formed.  The n^2
    saving needs the caller to hold no other reference, as in
    dense_measure(hamiltonian_2d_dense(a1, a2), site, mirror=...): H is then
    freed before the first block is solved, and each block before the next.
    """
    site = operator.index(site)
    if mirror is None:
        mat = np.asarray(matrix, dtype=float)
        _check_symmetric(mat)
        _check_site(site, mat.shape[0])
        blocks = [(mat, site)]
    else:
        blocks = _mirror_sectors(matrix, site, mirror)
    del matrix
    share = 1.0 / len(blocks)
    energies, weights = [], []
    while blocks:
        block, index = blocks.pop()
        lam, vec = np.linalg.eigh(block)
        del block
        energies.append(lam)
        weights.append(share * vec[index] ** 2)
    return SpectralMeasure.from_atoms(np.concatenate(energies), np.concatenate(weights), merge_tol)


def eigen_residual(es: EigenSystem, op: Operator1D) -> float:
    """max_j ||A v_j - lambda_j v_j||_2, for the invariant checks."""
    resid = op.apply(es.eigenvectors) - es.eigenvalues[None, :] * es.eigenvectors
    return float(np.linalg.norm(resid, axis=0).max())


def gram_defect(es: EigenSystem) -> float:
    gram = es.eigenvectors.T @ es.eigenvectors
    return float(np.abs(gram - np.eye(es.size)).max())


def _merge_sorted(energies: np.ndarray, weights: np.ndarray, tol: float):
    """Gap-based clustering of sorted atoms; weights summed, energies averaged."""
    if energies.size == 0:
        return energies, weights
    cuts = np.nonzero(np.diff(energies) > tol)[0] + 1
    counts = np.diff(np.concatenate([[0], cuts, [energies.size]]))
    idx = np.concatenate([[0], np.cumsum(counts)])
    e_out = np.add.reduceat(energies, idx[:-1]) / counts
    w_out = np.add.reduceat(weights, idx[:-1])
    return e_out, w_out


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (energies, complex weights) plus an optional binned density.

    grid_edges are the B+1 edges of a uniform grid and density holds the B
    piecewise-constant complex values on it (so each bin carries mass
    value * width).
    """

    energies: np.ndarray
    weights: np.ndarray
    grid_edges: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        e = np.array(self.energies, dtype=float, copy=True)
        w = np.array(self.weights, dtype=complex, copy=True)
        if e.shape != w.shape or e.ndim != 1:
            raise ValueError("energies and weights must be 1D arrays of equal length")
        if not np.all(np.isfinite(e)):
            raise ValueError("atom energies must be finite")
        order = np.argsort(e, kind="stable")
        object.__setattr__(self, "energies", _freeze(e[order]))
        object.__setattr__(self, "weights", _freeze(w[order]))
        if (self.grid_edges is None) != (self.density is None):
            raise ValueError("grid_edges and density must be given together")
        if self.grid_edges is not None:
            edges = np.array(self.grid_edges, dtype=float, copy=True)
            dens = np.array(self.density, dtype=complex, copy=True)
            if edges.ndim != 1 or edges.size != dens.size + 1:
                raise ValueError("need B+1 grid edges for B density bins")
            widths = np.diff(edges)
            if np.any(widths <= 0) or np.abs(widths - widths[0]).max() > 1e-9 * abs(widths[0]):
                raise ValueError("density grid must be uniform and increasing")
            object.__setattr__(self, "grid_edges", _freeze(edges))
            object.__setattr__(self, "density", _freeze(dens))

    @classmethod
    def from_atoms(cls, energies, weights, merge_tol: float = ATOM_MERGE_TOL) -> "SpectralMeasure":
        e = np.asarray(energies, dtype=float)
        w = np.asarray(weights, dtype=complex)
        order = np.argsort(e, kind="stable")
        e, w = _merge_sorted(e[order], w[order], merge_tol)
        return cls(e, w)

    @property
    def atom_count(self) -> int:
        return self.energies.size

    @property
    def bin_width(self) -> float:
        return float(self.grid_edges[1] - self.grid_edges[0]) if self.grid_edges is not None else 0.0

    def total_mass(self) -> complex:
        mass = complex(self.weights.sum())
        if self.density is not None:
            mass += complex((self.density * np.diff(self.grid_edges)).sum())
        return mass

    def merged(self, tol: float = ATOM_MERGE_TOL) -> "SpectralMeasure":
        e, w = _merge_sorted(self.energies, self.weights, tol)
        return dataclasses.replace(self, energies=e, weights=w)

    def support_bounds(self) -> tuple[float, float]:
        lo, hi = np.inf, -np.inf
        if self.energies.size:
            lo, hi = float(self.energies[0]), float(self.energies[-1])
        if self.grid_edges is not None:
            lo = min(lo, float(self.grid_edges[0]))
            hi = max(hi, float(self.grid_edges[-1]))
        if lo > hi:
            raise ValueError("measure is empty")
        return lo, hi


def spectral_measure_1d(
    es: EigenSystem,
    chi: np.ndarray,
    phi: np.ndarray | None = None,
    merge_tol: float = ATOM_MERGE_TOL,
) -> SpectralMeasure:
    """Matrix-element measure of the operator behind es between chi and phi.

    With phi = chi the weights are |v_j . chi|^2 >= 0 and the mass is
    ||chi||^2.
    """
    chi = np.asarray(chi)
    if chi.shape != (es.size,):
        raise ValueError(f"vector length {chi.shape} does not match eigensystem size {es.size}")
    c_chi = es.overlaps(chi)
    c_phi = c_chi if phi is None else es.overlaps(np.asarray(phi))
    return SpectralMeasure.from_atoms(es.eigenvalues, np.conj(c_chi) * c_phi, merge_tol)


def default_convolution_grid(mu: SpectralMeasure, nu: SpectralMeasure, bins: int = DEFAULT_GRID_BINS) -> np.ndarray:
    """Uniform grid edges covering the Minkowski sum of the two supports."""
    lo1, hi1 = mu.support_bounds()
    lo2, hi2 = nu.support_bounds()
    return np.linspace(lo1 + lo2 - GRID_PAD, hi1 + hi2 + GRID_PAD, bins + 1)


class GridTooNarrowError(ValueError):
    """Convolution mass fell outside the requested grid."""

    def __init__(self, lost_mass: float, lo: float, hi: float):
        self.lost_mass = lost_mass
        super().__init__(
            f"convolution grid loses mass {lost_mass:.3e}; support reaches [{lo:.6g}, {hi:.6g}]"
        )


def _bin(edges: np.ndarray, lo: np.ndarray, span: float, masses: np.ndarray) -> tuple[np.ndarray, complex]:
    """Spread each mass uniformly over [lo, lo + span) and bin it onto the grid.

    Overlaps are exact per piece.  A piece meets at most ceil(span / width) + 1
    bins counted from the bin holding lo, so the only loop runs over those
    offsets.  Returns the binned masses and the mass falling outside the grid.
    """
    hi = lo + span
    length = hi - lo  # not span: a piece wholly on the grid then loses exactly 0
    inside = np.clip(hi, edges[0], edges[-1]) - np.clip(lo, edges[0], edges[-1])
    lost = complex((masses * (1.0 - inside / length)).sum())
    bins = edges.size - 1
    first = np.searchsorted(edges, lo, side="right") - 1
    binned = np.zeros(bins, dtype=complex)
    for k in range(int(np.ceil(span / np.diff(edges).min())) + 1):
        i = first + k
        on = (i >= 0) & (i < bins)
        i = i[on]
        seg = np.maximum(np.minimum(hi[on], edges[i + 1]) - np.maximum(lo[on], edges[i]), 0.0)
        part = masses[on] * (seg / length[on])
        binned += np.bincount(i, weights=part.real, minlength=bins)
        binned += 1j * np.bincount(i, weights=part.imag, minlength=bins)
    return binned, lost


def convolve_measures(
    mu: SpectralMeasure,
    nu: SpectralMeasure,
    grid: np.ndarray | None = None,
    merge_tol: float = ATOM_MERGE_TOL,
    mass_tol: float = 1e-10,
) -> SpectralMeasure:
    """Convolution of two spectral measures.

    Atom x atom products stay atoms (pairwise energy sums, product weights).
    Every other product is a piece of mass spread uniformly over an interval:
    an atom at e times a density bin [a, a + h) covers [e + a, e + a + h), and
    two density bins of widths h1 and h2 cover [a1 + a2, a1 + a2 + h1 + h2).
    The pieces are binned with exact overlaps onto ``grid`` (the default grid
    when omitted).  Raises GridTooNarrowError when more than mass_tol of
    |product mass| would fall outside the grid.
    """
    e_atoms = np.add.outer(mu.energies, nu.energies).ravel()
    w_atoms = np.multiply.outer(mu.weights, nu.weights).ravel()

    if mu.density is None and nu.density is None:
        return SpectralMeasure.from_atoms(e_atoms, w_atoms, merge_tol)

    pieces = []  # (lo, span, masses) per product kind
    for atoms, dens in ((mu, nu), (nu, mu)):
        if dens.density is not None and atoms.atom_count:
            lo = np.add.outer(atoms.energies, dens.grid_edges[:-1]).ravel()
            masses = np.multiply.outer(atoms.weights, dens.density).ravel() * dens.bin_width
            pieces.append((lo, dens.bin_width, masses))
    if mu.density is not None and nu.density is not None:
        lo = np.add.outer(mu.grid_edges[:-1], nu.grid_edges[:-1]).ravel()
        masses = np.multiply.outer(mu.density * mu.bin_width, nu.density * nu.bin_width).ravel()
        pieces.append((lo, mu.bin_width + nu.bin_width, masses))

    edges = np.asarray(grid, dtype=float) if grid is not None else default_convolution_grid(mu, nu)
    acc = np.zeros(edges.size - 1, dtype=complex)
    lost = 0.0 + 0.0j
    for lo, span, masses in pieces:
        binned, off_grid = _bin(edges, lo, span, masses)
        acc += binned
        lost += off_grid

    if abs(lost) > mass_tol:
        lo1, hi1 = mu.support_bounds()
        lo2, hi2 = nu.support_bounds()
        raise GridTooNarrowError(abs(lost), lo1 + lo2, hi1 + hi2)

    width = edges[1] - edges[0]
    e_out, w_out = _merge_sorted(*_sorted(e_atoms, w_atoms), merge_tol)
    return SpectralMeasure(e_out, w_out, grid_edges=edges, density=acc / width)


def _sorted(e: np.ndarray, w: np.ndarray):
    order = np.argsort(e, kind="stable")
    return e[order], w[order]


def spectral_measure_2d(
    es1: EigenSystem,
    es2: EigenSystem,
    psi: np.ndarray,
    merge_tol: float = ATOM_MERGE_TOL,
) -> SpectralMeasure:
    """Measure of A1 (x) I + I (x) A2 at the N x M state psi.

    Built without ever forming the 2D operator: the atom at
    lambda1_j + lambda2_k weighs |(V1^T psi V2)_jk|^2, two GEMMs on psi.  For
    psi = sum_j alpha_j chi_j (x) phi_j this is the sesquilinear sum
    sum_{j,k} conj(alpha_j) alpha_k (mu1_jk * mu2_jk) of convolved 1D
    matrix-element measures.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (es1.size, es2.size):
        raise ValueError(f"state shape {psi.shape} does not match the eigensystems ({es1.size}, {es2.size})")
    coeffs = es2.overlaps(es1.overlaps(psi).T).T  # V1^T psi V2
    energies = np.add.outer(es1.eigenvalues, es2.eigenvalues)
    return SpectralMeasure.from_atoms(energies.ravel(), (coeffs.real**2 + coeffs.imag**2).ravel(), merge_tol)


def max_atom_weight(measure: SpectralMeasure, merge_tol: float = ATOM_MERGE_TOL) -> float:
    """Largest |atom weight| after merging near-coincident energies."""
    if measure.atom_count == 0:
        raise ValueError("measure has no atoms")
    merged = measure.merged(merge_tol)
    return float(np.abs(merged.weights).max())


def atom_weight_discrepancy(mu: SpectralMeasure, nu: SpectralMeasure, energy_tol: float = 1e-8) -> float:
    """max |mu - nu| over energy clusters of the union of the two atom sets.

    Both atom lists are clustered together (gap clustering at energy_tol), so
    eigensolver jitter between two routes to the same measure cannot
    misalign atoms; within each cluster the signed weights must cancel.
    """
    e = np.concatenate([mu.energies, nu.energies])
    w = np.concatenate([mu.weights, -nu.weights])
    if e.size == 0:
        return 0.0
    e, w = _sorted(e, w)
    _, resid = _merge_sorted(e, w, energy_tol)
    return float(np.abs(resid).max())
