"""Spectral measures of separable lattice operators.

A SpectralMeasure holds finitely many atoms plus an optional piecewise
constant density on a uniform grid, all of real mass.  For a self-adjoint
operator with eigenpairs (lambda_j, v_j) the measure at a vector chi carries
an atom at each lambda_j with weight |v_j . chi|^2, so its mass is
||chi||^2; at a delta it is the local measure at the site.

The 2D-operator measure at an N x M state psi has an atom at each
lambda1_j + lambda2_k with weight |(V1^T psi V2)_jk|^2.  At a product state
chi (x) phi that is mu1 * mu2, the convolution of the factor measures at chi
and at phi; that identity is what the convolution tests pin down.
convolve_measures forms it, and bins any density part of the product on
DEFAULT_GRID_BINS uniform bins over the Minkowski sum of the two supports.

The free m-factor has no eigensystem: propagators sweep it by FFT, and
free_delta_measure writes its measure at a site down in closed form, with no
basis.  eigh_tridiagonal solves a chain with a potential (the
n-factor), and one solver serves every dense 2D route: _sector_solves runs
numpy's eigh on the sectors of certified site symmetries of H that a state
has a part in, scattered from H's entry list, so H is never formed.
dense_measure, the commands' oracle, reads the measure at any vector off
those sectors, and evolve_2d_direct's dense propagator sums e^{iHt} over them.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .operators import DENSE_SITE_CAP, Operator1D, _freeze

ATOM_MERGE_TOL = 1e-9
MEASURE_MATCH_TOL = 1e-10  # largest atom-weight gap between the convolution and the dense oracle
MASS_CONSERVATION_TOL = 1e-10  # largest mass defect of the convolved measure at a unit delta
DEFAULT_GRID_BINS = 512
GRID_PAD = 1e-6
NUMPY_EIGH_SITES = 512  # chains up to this size skip the scipy.linalg import
BIN_BLOCK = 2**14  # convolve_measures bins at most this many pieces at once


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues with orthonormal eigenvector columns, in the solver's order: ascending for both solvers."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.array(self.eigenvalues, dtype=float, copy=True)
        vec = np.array(self.eigenvectors, dtype=float, copy=True, order="F")
        if lam.ndim != 1 or vec.ndim != 2 or vec.shape[1] != lam.size:
            raise ValueError("eigenvalue/eigenvector shapes are inconsistent")
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
    """mat @ data for a real mat and complex data, along axis 0 of data.

    The data goes through one real GEMM on its interleaved float64 view,
    (n, 2K) for K complex columns, so mat is never cast to complex.
    """
    cols = np.ascontiguousarray(data, dtype=complex)
    out = mat @ cols.reshape(cols.shape[0], -1).view(np.float64)
    return out.view(complex).reshape((mat.shape[0],) + cols.shape[1:])


def free_delta_measure(op: Operator1D, site: int) -> SpectralMeasure:
    """The measure of the free chain op at e_site, in closed form: O(M), with no solver and no basis.

    A ring of M sites has an atom at -2 cos(2 pi k / M) for k = 0..M//2, of
    weight 2/M, or 1/M at k = 0 and k = M/2: by translation invariance each
    Fourier mode weighs 1/M at every site, and modes k and M - k share an
    energy.  A dirichlet window has lambda_k = -2 cos(pi k / (M+1)) with
    weight (2/(M+1)) sin^2(pi (site+1) k / (M+1)) for k = 1..M; the sine
    comes from a table over one period indexed by (site+1) k mod 2(M+1), so
    the argument reduction is exact.
    """
    site = operator.index(site)
    if not 0 <= site < op.size:
        raise ValueError(f"site {site} is outside [0, {op.size})")
    if np.any(op.diagonal):
        raise ValueError("the closed form needs a free chain: the operator has a nonzero diagonal")
    M = op.size
    if op.boundary == "periodic":
        k = np.arange(M // 2 + 1)
        weights = np.where((k == 0) | (2 * k == M), 1.0, 2.0) / M
        return SpectralMeasure.from_atoms(-2.0 * np.cos(2.0 * np.pi * k / M), weights)
    k = np.arange(1, M + 1)
    period = 2 * (M + 1)
    table = math.sqrt(2.0 / (M + 1)) * np.sin(np.pi * np.arange(period) / (M + 1))
    return SpectralMeasure.from_atoms(-2.0 * np.cos(np.pi * k / (M + 1)), table[(site + 1) * k % period] ** 2)


def eigh_tridiagonal(op: Operator1D) -> EigenSystem:
    """Full eigendecomposition of a 1D operator.

    A plan's m-factor never comes here: it is free, swept by FFT, and its
    measures come from free_delta_measure.  Chains of at most NUMPY_EIGH_SITES
    sites take numpy's dense solver, which at those sizes costs less than
    importing scipy.linalg.  Longer dirichlet chains go through
    scipy.linalg.eigh_tridiagonal and its default LAPACK routine (stevd in
    current scipy); the periodic corner makes the matrix non-tridiagonal, so
    long rings stay dense (capped, the dense solve is O(N^3)).  A solve that
    does not converge raises scipy's or numpy's LinAlgError, a ValueError.
    """
    if op.boundary == "dirichlet" and op.size > NUMPY_EIGH_SITES:
        import scipy.linalg  # deferred: importing it costs more than a short chain's dense solve

        lam, vec = scipy.linalg.eigh_tridiagonal(op.diagonal, -np.ones(op.size - 1))
        return EigenSystem(lam, vec)
    if op.size > DENSE_SITE_CAP:
        raise ValueError(f"periodic operator of size {op.size} exceeds the dense cap of {DENSE_SITE_CAP}")
    lam, vec = np.linalg.eigh(op.matrix())
    return EigenSystem(lam, vec)


def _certified_entries(entries, size: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Sorted positions row * size + col of H's entries, the summed values there, and the bound 1e-12 max(1, max|H|).

    Refuses an entry off the matrix, a non-finite one, and |H - H^T| above the bound.
    """
    rows, cols, values = (np.asarray(part) for part in entries)
    if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu" or not rows.shape == cols.shape == values.shape:
        raise ValueError("entries must be integer rows and cols with one value each")
    if np.any((rows < 0) | (rows >= size) | (cols < 0) | (cols >= size)):
        raise ValueError(f"an entry lies outside the {size} x {size} matrix")
    keys, slot = np.unique(rows.astype(np.intp) * size + cols.astype(np.intp), return_inverse=True)
    values = np.bincount(slot, np.asarray(values, dtype=float), keys.size)
    top = max(values.max(initial=0.0), -values.min(initial=0.0))
    if not np.isfinite(top):
        k = np.flatnonzero(~np.isfinite(values))[0]
        raise ValueError(f"matrix entry {divmod(int(keys[k]), size)} is {values[k]}, not finite")
    bound = 1e-12 * max(1.0, top)
    asym = _mismatch(keys, values, keys % size * size + keys // size)
    if asym > bound:
        raise ValueError(f"matrix is not symmetric (asymmetry {asym:.3e} above {bound:.1e})")
    return keys, values, bound


def _mismatch(keys: np.ndarray, values: np.ndarray, images: np.ndarray) -> float:
    """max |H at keys - H at images| for H given by its sorted positions keys and values there (0 elsewhere)."""
    at = np.searchsorted(keys, images).clip(max=keys.size - 1)
    there = np.where(keys[at] == images, values[at], 0.0)
    return float(np.abs(values - there).max(initial=0.0))


def _symmetry_group(symmetries, size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The dihedral group D_p that symmetries (s,) or (s, rho) generate, as (s, rho, p).

    s (symmetry 0) is an involution of the sites and rho (symmetry 1) a
    permutation of order p <= size that s inverts, s rho s = rho^-1; an
    absent one is the identity.  Otherwise, or given a third map, ValueError names the fault.
    """
    sites, maps = np.arange(size), [np.asarray(sym) for sym in symmetries]
    if len(maps) > 2:
        raise ValueError(f"{len(maps)} symmetries given, at most 2: an involution and a permutation it inverts")
    for k, sym in enumerate(maps):
        if sym.shape != (size,) or sym.dtype.kind not in "iu" or not np.array_equal(np.sort(sym), sites):
            kind = "an involution" if k == 0 else "a permutation"
            raise ValueError(f"symmetry {k} is not {kind} of the {size} sites")
    s, rho = (maps + [sites, sites])[:2]
    if not np.array_equal(s[s], sites):
        raise ValueError(f"symmetry 0 is not an involution of the {size} sites")
    power, p = rho, 1
    while not np.array_equal(power, sites):
        if p == size:
            raise ValueError(f"symmetry 1 has an order above the {size} sites")
        power, p = rho[power], p + 1
    flip = s[rho]  # s rho, an involution exactly when s rho s = rho^-1
    if not np.array_equal(flip[flip], sites):
        raise ValueError("symmetry 0 does not invert symmetry 1")
    return s, rho, p


def _sectors(group: tuple[np.ndarray, np.ndarray, int], support: np.ndarray) -> list:
    """The sectors of D_p = <s, rho>'s real irreducible representations that a site of support has a part in.

    Returned as (index, coeff, dim) per sector: column c of the sector's
    basis P holds coeff[0, w, t] at each site t with index[w, t] = c (-1:
    none; w counts a site's copies, at most two), and coeff[1], for a
    two-dimensional representation, is the basis of its second row.  The
    four one-dimensional representations come first, chi(s) = +-1 and
    chi(rho) = +-1 with the sign of s changing first (chi(rho) = -1 only for
    even p); then the two-dimensional ones, rho -> the rotation by
    theta = 2 pi h / p and s -> diag(1, -1) for 0 < h < p/2, which hold the
    parts of rho-frequency +-h, s-even in row one and s-odd in row two.

    Each site t is g_t of its orbit's least site t0, with g_t = rho^k or
    s rho^k.  A one-dimensional chi trivial on t's stabiliser has a column
    per such orbit O, chi(g_t) / sqrt|O| at its sites: at p = 2 these are
    the sign characters of the reflection and the half-turn.  A
    two-dimensional representation lives on the orbits whose rho-cycles
    have a length L with h L = 0 mod p: one column on an orbit that is a
    single cycle (s t0 = rho^a t0) and two on an orbit of two cycles (a = 0
    there).  Their entries, sqrt(2 / |O|) times cos and sin of
    theta (k - a/2), are Serre's projections p_11 (Linear Representations of
    Finite Groups, sections 2.7 and 5.3); row two holds their images under
    p_21, which commutes with H, so both rows have one block P^T H P.
    Columns follow the orbits' least sites, then the copy.
    """
    s, rho, p = group
    sites = np.arange(s.size)
    least, power = sites.copy(), sites
    for _ in range(p - 1):  # least[t]: the least site of t's cycle under rho
        power = rho[power]
        np.minimum(least, power, out=least)
    pos, power = np.zeros_like(sites), least
    for j in range(1, p):  # pos[t]: the j with t = rho^j least[t]
        power = rho[power]
        pos[(power == sites) & (least != sites) & (pos == 0)] = j
    length = np.bincount(least)[least]  # of t's cycle
    invariant = least[s] == least  # s maps t's cycle onto itself
    a = np.where(invariant, pos[s[least]], 0)  # s least[t] = rho^a least[t] on an s-invariant cycle
    base = np.minimum(least, least[s])  # the least site of t's orbit
    mirrored = least != base  # g_t = s rho^k rather than rho^k
    k = np.where(mirrored, pos[s], pos)
    stab = np.where(invariant, 2 * p // length, p // length)  # |stabiliser| = 2p / |O|

    def sector(inside, free):
        """(index, dim) of the sector with one column per orbit inside it, two on a free one."""
        heads = np.flatnonzero(inside & (base == sites))
        starts = np.concatenate([[0], np.cumsum(1 + free[heads])])
        first = np.where(inside, starts[np.searchsorted(heads, base)], -1)
        second = np.where(inside & free, first + 1, -1)
        return np.stack([first, second][: 1 + (second >= 0).any()]), int(starts[-1])

    sectors = []
    for rho_sign in (1, -1)[: 1 + (p % 2 == 0)]:
        for s_sign in (1, -1):
            chi = rho_sign ** (k % 2) * np.where(mirrored, s_sign, 1)
            fixer = rho_sign ** (a % 2) * s_sign  # chi(s rho^a), which fixes an s-invariant cycle's sites
            inside = ((rho_sign == 1) | (length % 2 == 0)) & (~invariant | (fixer == 1))
            if inside[support].any():
                index, dim = sector(inside, np.zeros_like(invariant))
                sectors.append((index, (chi * np.sqrt(stab / (2 * p)))[None, None], dim))
    sign = np.where(mirrored, -1, 1)
    for h in range(1, (p + 1) // 2):
        inside = h * length % p == 0
        if inside[support].any():
            phase = np.pi * (h * (2 * k - a) % (2 * p)) / p
            cos, sin = np.sqrt(stab / p) * np.stack([np.cos(phase), np.sin(phase)])
            index, dim = sector(inside, ~invariant)
            rows = np.stack([np.stack([cos, sin]), np.stack([sign * sin, -sign * cos])])
            sectors.append((index, rows[:, : len(index)], dim))
    return sectors


def sector_sizes(size: int, psi, symmetries=()) -> list[int]:
    """Sizes of the blocks dense_measure solves for psi, in the order it solves them.

    psi is checked as dense_measure checks it: a nonzero vector of ``size``
    entries, or ValueError.  No block is scattered or solved.
    """
    return [dim for _, _, dim in _sectors(_symmetry_group(symmetries, size), _support(size, psi))]


def _support(size: int, psi: np.ndarray) -> np.ndarray:
    """The sites where psi is nonzero; ValueError unless psi is a nonzero vector of size entries."""
    psi = np.asarray(psi)
    if psi.shape != (size,):
        raise ValueError(f"state psi has shape {psi.shape}, not ({size},)")
    support = np.flatnonzero(psi)
    if support.size == 0:
        raise ValueError("state psi is identically zero")
    return support


def _sector_solves(entries, size: int, psi, symmetries=()):
    """Solve H by its symmetry sectors: yields (index, coeff, eigenvalues, eigenvectors, V^T P^T psi) per sector row.

    ``entries`` is (rows, cols, values) as hamiltonian_2d_entries gives it;
    H is never formed.  ``symmetries`` (as m_symmetries gives them) are
    certified, never assumed: finite symmetric entries, an integer
    involution s and a permutation rho that s inverts (see _symmetry_group),
    each mapping the entries onto themselves within 1e-12 max(1, max|H|),
    or ValueError names the fault; so is a psi that is not a nonzero vector
    of ``size`` entries, or a size above DENSE_SITE_CAP.  Only the sectors
    a site of psi's support has a part in are solved, in the order _sectors
    lists them.  A row's basis P has column c = sum coeff[w, t] e_t over
    index[w, t] = c.  The two rows of a two-dimensional representation
    share one eigh of row one's block (P^T H P is the same on both) and
    are yielded one after the other.  Each block is scattered just before
    its eigh and dropped after; a caller that drops the eigenvectors before
    asking for the next row keeps one block alive.
    """
    size, symmetries = operator.index(size), [np.asarray(sym) for sym in symmetries]
    if size > DENSE_SITE_CAP:
        raise ValueError(
            f"{size} sites exceed the dense cap of {DENSE_SITE_CAP}; use the chebyshev route for large grids"
        )
    keys, values, bound = _certified_entries(entries, size)
    psi = np.asarray(psi, dtype=complex)
    sectors = _sectors(_symmetry_group(symmetries, size), _support(size, psi))
    rows, cols = np.divmod(keys, size)
    for k, sym in enumerate(symmetries):
        defect = _mismatch(keys, values, sym[rows] * size + sym[cols])
        if defect > bound:
            raise ValueError(f"matrix does not commute with symmetry {k} (defect {defect:.3e} above {bound:.1e})")
    for index, coeff, dim in sectors:
        keys, weights = [], []
        for (i, ci), (j, cj) in itertools.product(zip(index, coeff[0]), repeat=2):  # copy pairs of row one's basis
            i, j = i[rows], j[cols]
            on = (i >= 0) & (j >= 0)
            keys.append(i[on] * dim + j[on])
            weights.append((ci[rows] * cj[cols] * values)[on])
        block = np.bincount(np.concatenate(keys), np.concatenate(weights), dim * dim)
        del keys, weights
        lam, vec = np.linalg.eigh(block.reshape(dim, dim))
        del block
        on = index >= 0
        at, psi_on = index[on], np.broadcast_to(psi, index.shape)[on]
        for row in coeff:
            part = row[on] * psi_on  # P^T psi, gathered by sector coordinate
            part = np.bincount(at, part.real, dim) + 1j * np.bincount(at, part.imag, dim)
            yield index, row, lam, vec, _real_matmul(vec.T, part)
        del vec  # before the next block is scattered


def dense_measure(entries, size: int, psi, symmetries=()) -> SpectralMeasure:
    """The measure of the symmetric H given by entries at the vector psi, from numpy's eigh on H's sectors.

    psi is a nonzero vector of ``size`` entries; the delta e_site gives the
    local measure at the site.  See _sector_solves for ``entries``,
    ``symmetries`` and the checks.  The sectors are orthogonal and
    H-invariant, so the measure at psi is the sum of the blocks' measures at
    P^T psi, with no cross terms: an atom at each block eigenvalue weighing
    |V^T P^T psi|^2.
    """
    energies, weights = [], []
    for _, _, lam, vec, coeffs in _sector_solves(entries, size, psi, symmetries):
        del vec
        energies.append(lam)
        weights.append(coeffs.real**2 + coeffs.imag**2)
    return SpectralMeasure.from_atoms(np.concatenate(energies), np.concatenate(weights))


def eigen_residual(es: EigenSystem, op: Operator1D) -> float:
    """max_j ||A v_j - lambda_j v_j||_2, for the invariant checks."""
    resid = op.apply(es.eigenvectors) - es.eigenvalues[None, :] * es.eigenvectors
    return float(np.linalg.norm(resid, axis=0).max())


def gram_defect(es: EigenSystem) -> float:
    gram = es.eigenvectors.T @ es.eigenvectors
    return float(np.abs(gram - np.eye(es.size)).max())


def _merge_sorted(energies: np.ndarray, weights: np.ndarray, tol: float):
    """Gap-based clustering of sorted atoms; weights summed, energies averaged.

    A cluster whose energy sum passes the float64 range is averaged at the
    exact scale 2^-s and scaled back; every other mean is its plain sum over its count.
    """
    if energies.size == 0:
        return energies, weights
    starts = np.concatenate([[0], np.flatnonzero(np.diff(energies) > tol) + 1])
    counts = np.diff(np.append(starts, energies.size))
    with np.errstate(over="ignore"):
        means = np.add.reduceat(energies, starts) / counts
    big = np.isinf(means)
    if big.any():
        s = int(counts.max()).bit_length()  # 2^s passes every count, so no scaled sum overflows
        scaled = np.ldexp(energies, -s)
        lo, hi = scaled[starts[big]], scaled[(starts + counts - 1)[big]]  # a mean stays in its cluster
        means[big] = np.ldexp(np.clip(np.add.reduceat(scaled, starts)[big] / counts[big], lo, hi), s)
    return means, np.add.reduceat(weights, starts)


def _real_values(values, name: str) -> np.ndarray:
    """A float64 copy of values; ValueError, naming them, if they are complex or not finite."""
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, not complex")
    values = np.array(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must be finite")
    return values


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms (energies, real weights) plus an optional binned density.

    grid_edges are the B+1 edges of a uniform grid and density holds the B
    piecewise-constant real values on it (so each bin carries mass
    value * width).  A complex weight or density is refused, never cast.
    """

    energies: np.ndarray
    weights: np.ndarray
    grid_edges: np.ndarray | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        e, w = _real_values(self.energies, "atom energies"), _real_values(self.weights, "atom weights")
        if e.shape != w.shape or e.ndim != 1:
            raise ValueError("energies and weights must be 1D arrays of equal length")
        order = np.argsort(e, kind="stable")
        object.__setattr__(self, "energies", _freeze(e[order]))
        object.__setattr__(self, "weights", _freeze(w[order]))
        if (self.grid_edges is None) != (self.density is None):
            raise ValueError("grid_edges and density must be given together")
        if self.grid_edges is not None:
            edges = np.array(self.grid_edges, dtype=float, copy=True)
            _check_grid(edges)
            dens = _real_values(self.density, "density")
            if edges.size != dens.size + 1:
                raise ValueError("need B+1 grid edges for B density bins")
            object.__setattr__(self, "grid_edges", _freeze(edges))
            object.__setattr__(self, "density", _freeze(dens))

    @classmethod
    def from_atoms(cls, energies, weights) -> "SpectralMeasure":
        """The atoms at energies with weights, sorted, and merged where the energy gap is at most ATOM_MERGE_TOL."""
        atoms = cls(energies, weights)  # checked, and sorted by energy
        return cls(*_merge_sorted(atoms.energies, atoms.weights, ATOM_MERGE_TOL))

    @property
    def atom_count(self) -> int:
        return self.energies.size

    @property
    def bin_width(self) -> float:
        return float(self.grid_edges[1] - self.grid_edges[0]) if self.grid_edges is not None else 0.0

    def total_mass(self) -> float:
        mass = float(self.weights.sum())
        if self.density is not None:
            mass += float((self.density * np.diff(self.grid_edges)).sum())
        return mass

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


def spectral_measure_1d(es: EigenSystem, chi: np.ndarray) -> SpectralMeasure:
    """The measure of the operator behind es at chi: weights |v_j . chi|^2 >= 0, mass ||chi||^2."""
    if np.shape(chi) != (es.size,):
        raise ValueError(f"chi: vector length {np.shape(chi)} does not match eigensystem size {es.size}")
    c = es.overlaps(chi)
    return SpectralMeasure.from_atoms(es.eigenvalues, c.real**2 + c.imag**2)


class GridTooNarrowError(ValueError):
    """Convolution mass fell outside the convolution grid."""

    def __init__(self, lost_mass: float, lo: float, hi: float):
        self.lost_mass = lost_mass
        super().__init__(
            f"convolution grid loses mass {lost_mass:.3e}; support reaches [{lo:.6g}, {hi:.6g}]"
        )


def _check_grid(edges: np.ndarray) -> None:
    """ValueError unless a density grid's edges are finite, uniform and increasing, in 1D, and at least 2."""
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError(f"density grid must be a 1D array of at least 2 edges, not shape {edges.shape}")
    widths = np.diff(edges)
    if not np.all(np.isfinite(edges)) or np.any(widths <= 0) or np.abs(widths - widths[0]).max() > 1e-9 * widths[0]:
        raise ValueError("density grid must be finite, uniform and increasing")


def _bin(edges: np.ndarray, lo: np.ndarray, span: float, masses: np.ndarray, acc: np.ndarray) -> float:
    """Spread each mass uniformly over [lo, lo + span) and add its share of each grid bin into acc.

    Overlaps are exact per piece.  A piece meets at most ceil(span / width) + 1
    bins counted from the bin holding lo, so the only loop runs over those
    offsets.  Returns the mass falling outside the grid as the sum of |mass|
    times each piece's off-grid fraction, so off-grid pieces of opposite sign
    cannot cancel.
    """
    hi = lo + span
    length = hi - lo  # not span: a piece wholly on the grid then loses exactly 0
    inside = np.clip(hi, edges[0], edges[-1]) - np.clip(lo, edges[0], edges[-1])
    lost = float((np.abs(masses) * (1.0 - inside / length)).sum())
    bins = edges.size - 1
    first = np.searchsorted(edges, lo, side="right") - 1
    for k in range(int(np.ceil(span / np.diff(edges).min())) + 1):
        i = first + k
        on = (i >= 0) & (i < bins)
        i = i[on]
        seg = np.maximum(np.minimum(hi[on], edges[i + 1]) - np.maximum(lo[on], edges[i]), 0.0)
        acc += np.bincount(i, weights=masses[on] * (seg / length[on]), minlength=bins)
    return lost


def convolve_measures(mu: SpectralMeasure, nu: SpectralMeasure, mass_tol: float = 1e-10) -> SpectralMeasure:
    """Convolution of two spectral measures.

    Atom x atom products stay atoms (pairwise energy sums, product weights).
    Every other product is a piece of mass spread uniformly over an interval:
    an atom at e times a density bin [a, a + h) covers [e + a, e + a + h), and
    two density bins of widths h1 and h2 cover [a1 + a2, a1 + a2 + h1 + h2).
    The pieces are binned with exact overlaps onto DEFAULT_GRID_BINS uniform
    bins over the Minkowski sum of the two supports, padded by GRID_PAD at
    each end, at most BIN_BLOCK pieces at a time: each product kind is kept
    as its row of starts and masses against its column of bin starts and bin
    masses, so the working memory does not grow with atoms x bins.  Raises
    ValueError when a product of two masses (atoms or pieces) overflows, and
    GridTooNarrowError when the pieces' |mass| falling outside the grid sums
    to more than mass_tol.
    """
    energies = np.add.outer(mu.energies, nu.energies).ravel()
    atomic = SpectralMeasure.from_atoms(energies, _product_masses(mu.weights, nu.weights))  # the atom x atom part
    if mu.density is None and nu.density is None:
        return atomic

    kinds = []  # (row starts, row masses, column starts, column masses, span): one piece per row and column
    for atoms, dens in ((mu, nu), (nu, mu)):
        if dens.density is not None and atoms.atom_count:
            kinds.append((atoms.energies, atoms.weights, *_bin_pieces(dens), dens.bin_width))
    if mu.density is not None and nu.density is not None:
        kinds.append((*_bin_pieces(mu), *_bin_pieces(nu), mu.bin_width + nu.bin_width))

    lo1, hi1 = mu.support_bounds()
    lo2, hi2 = nu.support_bounds()
    edges = np.linspace(lo1 + lo2 - GRID_PAD, hi1 + hi2 + GRID_PAD, DEFAULT_GRID_BINS + 1)
    acc = np.zeros(edges.size - 1)
    lost = 0.0
    for row_lo, row_mass, col_lo, col_mass, span in kinds:
        rows = max(1, BIN_BLOCK // col_lo.size)  # a row longer than a block is cut into blocks along its columns
        for r in range(0, row_lo.size, rows):
            for c in range(0, col_lo.size, BIN_BLOCK):
                lo = np.add.outer(row_lo[r : r + rows], col_lo[c : c + BIN_BLOCK]).ravel()
                masses = _product_masses(row_mass[r : r + rows], col_mass[c : c + BIN_BLOCK])
                lost += _bin(edges, lo, span, masses, acc)

    if not lost <= mass_tol:  # NaN, from piece energies beyond the float range, fails too
        raise GridTooNarrowError(lost, lo1 + lo2, hi1 + hi2)

    return SpectralMeasure(atomic.energies, atomic.weights, grid_edges=edges, density=acc / (edges[1] - edges[0]))


def _product_masses(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The raveled products of two mass arrays; ValueError if one overflows."""
    products = np.multiply.outer(a, b).ravel()
    if not np.all(np.isfinite(products)):
        raise ValueError("convolution piece mass overflows: a product of the two masses is not finite")
    return products


def _bin_pieces(dens: SpectralMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The starts and masses of a measure's density bins."""
    return dens.grid_edges[:-1], dens.density * dens.bin_width


def max_atom_weight(measure: SpectralMeasure) -> float:
    """Largest |atom weight| after merging atoms whose energy gap is at most ATOM_MERGE_TOL."""
    if measure.atom_count == 0:
        raise ValueError("measure has no atoms")
    _, weights = _merge_sorted(measure.energies, measure.weights, ATOM_MERGE_TOL)
    return float(np.abs(weights).max())


def atom_weight_discrepancy(mu: SpectralMeasure, nu: SpectralMeasure) -> float:
    """max |mu - nu| over energy clusters of the union of the two atom sets.

    Both atom lists are clustered together (gap clustering at 1e-8), so
    eigensolver jitter between two routes to the same measure cannot
    misalign atoms; within each cluster the signed weights must cancel.
    """
    e = np.concatenate([mu.energies, nu.energies])
    order = np.argsort(e, kind="stable")
    _, resid = _merge_sorted(e[order], np.concatenate([mu.weights, -nu.weights])[order], 1e-8)
    return float(np.abs(resid).max(initial=0.0))
