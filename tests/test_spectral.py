import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from chainlab import spectral
from chainlab.evolution import evolve_1d_eigen
from chainlab.operators import (
    PotentialSpec,
    BOUNDARIES,
    DENSE_SITE_CAP,
    Operator1D,
    build_operator_1d,
    free_operator,
    hamiltonian_2d_entries,
    m_symmetries,
    sample_potential,
)
from chainlab.spectral import (
    EigenSystem,
    GridTooNarrowError,
    SpectralMeasure,
    atom_weight_discrepancy,
    convolve_measures,
    dense_measure,
    eigen_residual,
    eigh_tridiagonal,
    free_delta_measure,
    gram_defect,
    max_atom_weight,
    sector_sizes,
    spectral_measure_1d,
)
from dense_reference import dense_hamiltonian, full_eigensystem, spectral_measure_2d, unit_vector


# -- eigensystems --------------------------------------------------------------


def test_dirichlet_free_chain_closed_form():
    # eigenvalues of the free dirichlet chain: -2 cos(k pi / (N+1)), k = 1..N
    N = 57
    es = eigh_tridiagonal(free_operator(N))
    k = np.arange(1, N + 1)
    expected = np.sort(-2.0 * np.cos(k * np.pi / (N + 1)))
    np.testing.assert_allclose(es.eigenvalues, expected, atol=1e-12)


def test_periodic_free_ring_closed_form():
    # eigenvalues of the free ring: -2 cos(2 pi k / M) as a multiset
    M = 16
    es = eigh_tridiagonal(free_operator(M, boundary="periodic"))
    expected = np.sort(-2.0 * np.cos(2.0 * np.pi * np.arange(M) / M))
    np.testing.assert_allclose(es.eigenvalues, expected, atol=1e-12)


def test_eigensystem_residual_and_gram():
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (-32, 32))
    op = build_operator_1d(pot)
    es = eigh_tridiagonal(op)
    assert eigen_residual(es, op) < 1e-12 * op.norm_bound
    assert gram_defect(es) < 1e-12


def _entries(h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entry list of a dense matrix: its nonzero entries, NaN included."""
    rows, cols = np.nonzero(h)
    return rows, cols, h[rows, cols]


DENSE_ROUTES = [
    lambda h: dense_measure(_entries(h), h.shape[0], unit_vector(h.shape[0], 0)),
    # the identity commutes with every H
    lambda h: dense_measure(_entries(h), h.shape[0], unit_vector(h.shape[0], 0), symmetries=[np.arange(h.shape[0])]),
]
DENSE_ROUTE_IDS = ["dense_measure", "dense_measure_mirror"]


# dense matrices with one defect: next to the diagonal, and in the lower
# triangle far from it
DEFECTS = [(300, 270, 290), (200, 190, 10)]


def _off_by(asym: float, defect: tuple[int, int, int]) -> np.ndarray:
    # symmetric with max|H| = 10, then H[i, j] - H[j, i] = asym
    n, i, j = defect
    rng = np.random.default_rng(7)
    h = rng.uniform(-1.0, 1.0, (n, n))
    h = h + h.T
    h[0, 0] = 10.0
    h[i, j] = h[j, i] + asym
    return h


@pytest.mark.parametrize("route", DENSE_ROUTES, ids=DENSE_ROUTE_IDS)
def test_dense_routes_reject_nonsymmetric(route):
    with pytest.raises(ValueError, match="not symmetric"):
        route(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        route(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))  # an unpaired entry
    for defect in DEFECTS:
        with pytest.raises(ValueError, match="not symmetric"):
            route(_off_by(1.1e-11, defect))  # bound is 1e-12 * max(1, max|H|) = 1e-11
    with pytest.raises(ValueError, match="outside the 2 x 2 matrix"):
        route(np.ones((2, 3)))


@pytest.mark.parametrize("route", DENSE_ROUTES, ids=DENSE_ROUTE_IDS)
@pytest.mark.parametrize(
    "entries, value, where",
    [
        (((1, 2), (2, 1)), np.nan, "(1, 2) is nan"),  # a symmetric pair: H - H^T is NaN, not above the bound
        (((3, 3),), np.inf, "(3, 3) is inf"),  # the bound itself would be inf
        (((0, 1),), -np.inf, "(0, 1) is -inf"),  # alone: |H - H^T| = inf is not above an inf bound
    ],
    ids=["nan-pair", "inf-diagonal", "inf-off-diagonal"],
)
def test_dense_routes_reject_non_finite_entries(route, entries, value, where):
    h = np.eye(4)
    for entry in entries:
        h[entry] = value
    with pytest.raises(ValueError, match=f"matrix entry {re.escape(where)}, not finite"):
        route(h)


@pytest.mark.parametrize("route", DENSE_ROUTES, ids=DENSE_ROUTE_IDS)
def test_dense_routes_accept_asymmetry_inside_the_bound(route):
    for defect in DEFECTS:
        route(_off_by(0.9e-11, defect))


def test_dense_measure_rejects_malformed_entry_lists():
    rows, cols, values = hamiltonian_2d_entries(free_operator(3), free_operator(2))
    with pytest.raises(ValueError, match="integer rows and cols with one value each"):
        dense_measure((rows.astype(float), cols, values), 6, unit_vector(6, 0))
    with pytest.raises(ValueError, match="integer rows and cols with one value each"):
        dense_measure((rows, cols, values[:-1]), 6, unit_vector(6, 0))
    with pytest.raises(ValueError, match="an entry lies outside the 5 x 5 matrix"):
        dense_measure((rows, cols, values), 5, unit_vector(5, 0))


def _read_only(h: np.ndarray) -> np.ndarray:
    h.setflags(write=False)
    return h


def _assert_dense_measure_matches_eigh(h: np.ndarray, entries=None) -> None:
    h = _read_only(h)
    es = full_eigensystem(h)
    n = h.shape[0]
    for site in (0, n // 2, n - 1):
        ref = spectral_measure_1d(es, np.eye(n)[site])
        mu = dense_measure(_entries(h) if entries is None else entries, n, unit_vector(n, site))
        assert atom_weight_discrepancy(mu, ref) <= 1e-12
        assert abs(mu.total_mass() - 1.0) <= 1e-13
        assert mu.atom_count == ref.atom_count


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("shape", [(2, 5), (7, 2), (6, 5)])
def test_dense_measure_matches_full_eigh_on_lattices(shape, boundary_n, boundary_m):
    # random A1 breaks the n-reflection symmetry; the free A2 keeps the
    # degenerate pairs of a ring, so atoms merge on both routes
    N, M = shape
    a1 = Operator1D(np.random.default_rng(N * M).uniform(-2.0, 2.0, N), boundary=boundary_n)
    a2 = free_operator(M, boundary=boundary_m)
    _assert_dense_measure_matches_eigh(dense_hamiltonian(a1, a2), hamiltonian_2d_entries(a1, a2))


def test_dense_measure_matches_full_eigh_with_repeated_eigenvalue():
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((9, 9)))
    lam = np.array([-1.5, -0.2, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0, 3.1])
    h = (q * lam) @ q.T
    h = (h + h.T) / 2.0
    _assert_dense_measure_matches_eigh(h)
    assert dense_measure(_entries(h), 9, unit_vector(9, 4)).atom_count == 6


def test_dense_measure_takes_any_layout():
    # narrow and unsigned indices, Python lists, strided views, integer values,
    # and read-only arrays, which are left as they were
    h = dense_hamiltonian(Operator1D(np.array([2.0, -1.0, 0.0, 1.0, -3.0, 1.0])), free_operator(5))
    rows, cols, values = _entries(h)
    ref = dense_measure((rows, cols, values), 30, unit_vector(30, 7))
    frozen = tuple(_read_only(part.copy()) for part in (rows, cols, values))
    others = (
        (rows.astype(np.int32), cols.astype(np.uint16), values),
        (rows.tolist(), cols.tolist(), values.tolist()),
        tuple(np.repeat(part, 2)[::2] for part in (rows, cols, values)),
        (rows, cols, values.astype(int)),
        frozen,
    )
    for other in others:
        assert atom_weight_discrepancy(dense_measure(other, 30, unit_vector(30, 7)), ref) <= 1e-13
    assert all(np.array_equal(part, original) for part, original in zip(frozen, (rows, cols, values)))


def _reflection(N: int, M: int, j0: int) -> np.ndarray:
    """n*M + m -> n*M + (2 j0 - m) mod M, written out site by site."""
    return np.array([n * M + (2 * j0 - m) % M for n in range(N) for m in range(M)])


def _symmetries_about(N: int, a2: Operator1D, j0: int) -> tuple[np.ndarray, ...]:
    """A free A2's m-axis symmetries with a ring's reflection about any j0: m_symmetries' for j0 = M // 2."""
    if a2.boundary == "dirichlet":
        return m_symmetries(N, a2)
    M = a2.size
    half_turn = np.array([n * M + (m + M // 2) % M for n in range(N) for m in range(M)])
    return (_reflection(N, M, j0),) + (half_turn,) * (M % 2 == 0)


MIRROR_LATTICES = [  # (N, M, boundary_n, boundary_m, the j0 to reflect about)
    *((3, M, "dirichlet", "periodic", range(M)) for M in (2, 3, 4, 5, 8)),
    (4, 6, "periodic", "periodic", (0, 5)),
    *((N, M, "dirichlet", "dirichlet", [(M - 1) // 2]) for N, M in ((5, 1), (4, 3), (3, 7))),
    (4, 5, "periodic", "dirichlet", [2]),
]


@pytest.mark.parametrize("N, M, boundary_n, boundary_m, centres", MIRROR_LATTICES)
def test_dense_measure_on_the_mirror_sector_matches_full_eigh(N, M, boundary_n, boundary_m, centres):
    # rings of every small M (M = 2 hops twice across its seam), centred odd
    # windows, and deltas at several n0; the odd sector's atoms carry no
    # weight at a mirror-fixed site (a rounding error squared, ~1e-32), and
    # the sector route does not list them
    a1 = Operator1D(np.random.default_rng(N * M).uniform(-2.0, 2.0, N), boundary=boundary_n)
    a2 = free_operator(M, boundary=boundary_m)
    entries = hamiltonian_2d_entries(a1, a2)
    es = full_eigensystem(dense_hamiltonian(a1, a2))
    for j0 in centres:
        mirror = _reflection(N, M, j0)
        for n0 in sorted({0, N // 2, N - 1}):
            site = n0 * M + j0
            ref = spectral_measure_1d(es, np.eye(N * M)[site])
            mu = dense_measure(entries, N * M, unit_vector(N * M, site), symmetries=[mirror])
            assert atom_weight_discrepancy(mu, ref) <= 1e-12
            assert abs(mu.total_mass() - 1.0) <= 1e-13
            assert mu.atom_count == np.count_nonzero(np.abs(ref.weights) > 1e-20)


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_dense_measure_on_m_symmetry_sectors_matches_full_eigh_at_every_site(N, boundary_n, boundary_m):
    # the commands' oracle, with a ring's reflection about the site's own m
    # (m_symmetries' about M // 2), so the reflection fixes the site and an
    # even ring's half-turn moves it; the 1- and 2-site rings (reflection =
    # identity, the 2-site ring hopping twice) included
    rng = np.random.default_rng(N)
    for M in [*range(1, 9), 12, 13]:
        a1 = Operator1D(rng.uniform(-2.0, 2.0, N), boundary=boundary_n)
        a2 = free_operator(M, boundary=boundary_m)
        assert [g.tolist() for g in _symmetries_about(N, a2, M // 2)] == [g.tolist() for g in m_symmetries(N, a2)]
        entries = hamiltonian_2d_entries(a1, a2)
        es = full_eigensystem(dense_hamiltonian(a1, a2))
        for site in range(N * M):
            symmetries = _symmetries_about(N, a2, site % M)
            ref = spectral_measure_1d(es, np.eye(N * M)[site])
            mu = dense_measure(entries, N * M, unit_vector(N * M, site), symmetries=symmetries)
            assert atom_weight_discrepancy(mu, ref) <= 1e-12
            assert abs(mu.total_mass() - 1.0) <= 1e-13
            assert sum(sector_sizes(N * M, unit_vector(N * M, site), symmetries)) <= N * M


@pytest.mark.parametrize(
    "boundary_m, N, M, sizes",
    [
        # D_8, rotation by 6: per n, the delta's cycle (residue 0 mod 6) and residue 3 are s-invariant, and s
        # pairs 1 with 5 and 2 with 4; the delta meets two one-dimensional sectors and three two-dimensional ones
        ("periodic", 48, 48, [192, 144, 288, 288, 288]),
        ("periodic", 32, 32, [160, 128, 256]),  # D_4, rotation by 8
        ("periodic", 16, 16, [80, 64]),  # 16/4 < RING_CELL_SITES: the half-turn, p = 2
        ("periodic", 5, 5, [15]),  # an odd ring: the reflection alone, which fixes the site
        ("dirichlet", 48, 48, [1152, 1152]),  # the window's reflection moves every site
    ],
)
def test_sector_sizes_of_the_commands_oracle(boundary_m, N, M, sizes):
    symmetries = m_symmetries(N, free_operator(M, boundary_m))
    assert sector_sizes(N * M, unit_vector(N * M, (N // 2) * M + M // 2), symmetries) == sizes


@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("M", [24, 48])
def test_dense_measure_on_dihedral_sectors_matches_full_eigh(M, N, boundary_n):
    # rings of 24 and 48 sites carry D_4 and D_8 (rotation by 6), whose two-dimensional representations
    # solve one eigh for both rows: at every site, fixed by the reflection or not, and at a random state
    rng = np.random.default_rng(M + N)
    a1 = Operator1D(rng.uniform(-2.0, 2.0, N), boundary=boundary_n)
    a2 = free_operator(M, "periodic")
    entries, symmetries = hamiltonian_2d_entries(a1, a2), m_symmetries(N, a2)
    assert symmetries[1][0] == 6
    es = full_eigensystem(dense_hamiltonian(a1, a2))
    psi = rng.standard_normal(N * M) + 1j * rng.standard_normal(N * M)
    for vec in (psi / np.linalg.norm(psi), *np.eye(N * M)):
        mu = dense_measure(entries, N * M, vec, symmetries=symmetries)
        assert atom_weight_discrepancy(mu, spectral_measure_1d(es, vec)) <= 1e-12
        assert abs(mu.total_mass() - 1.0) <= 1e-13


def test_dense_measure_on_cycles_of_several_lengths_matches_full_eigh():
    # a 4-ring (sites 0-3), a bond (4, 5) and a hub (6) coupled evenly to both: rho turns the ring, swaps the
    # bond and fixes the hub, so its cycles have 4, 2 and 1 sites and the frequencies of D_4 live on some only
    h = np.zeros((7, 7))
    for i, j, value in [*((m, (m + 1) % 4, -1.0) for m in range(4)), (4, 5, -1.0), *((6, m, -0.5) for m in range(4))]:
        h[i, j] = h[j, i] = value
    h[6, 4] = h[4, 6] = h[6, 5] = h[5, 6] = -0.3
    h[np.diag_indices(7)] = [0.2, 0.2, 0.2, 0.2, -0.7, -0.7, 1.1]
    symmetries = [np.array([0, 3, 2, 1, 4, 5, 6]), np.array([1, 2, 3, 0, 5, 4, 6])]
    # chi(s) = chi(rho) = 1 on the hub, ring and bond; chi(rho) = -1 on the ring and bond; h = 1 on the ring alone
    assert sector_sizes(7, np.ones(7), symmetries) == [3, 2, 1]
    es = full_eigensystem(h)
    psi = np.random.default_rng(12).standard_normal(7)
    for vec in (psi / np.linalg.norm(psi), *np.eye(7)):
        mu = dense_measure(_entries(h), 7, vec, symmetries=symmetries)
        assert atom_weight_discrepancy(mu, spectral_measure_1d(es, vec)) <= 1e-12
        assert abs(mu.total_mass() - 1.0) <= 1e-13


def _ring_maps(N: int, M: int, *images) -> list[np.ndarray]:
    """The site maps n*M + m -> n*M + image(m) of an N x M lattice, one per image."""
    return [np.array([n * M + image(m) % M for n in range(N) for m in range(M)]) for image in images]


def test_dense_measure_rejects_a_bond_that_keeps_the_reflection_but_breaks_the_rotation():
    # the n-bond at the column M // 2, which the reflection fixes, is its own mirror image; the rotation moves it
    rows, cols, values = hamiltonian_2d_entries(free_operator(2), free_operator(24, "periodic"))
    entries = (np.append(rows, [12, 36]), np.append(cols, [36, 12]), np.append(values, [0.5, 0.5]))
    reflection, rotation = m_symmetries(2, free_operator(24, "periodic"))
    assert abs(dense_measure(entries, 48, unit_vector(48, 12), symmetries=[reflection]).total_mass() - 1.0) <= 1e-13
    with pytest.raises(ValueError, match="does not commute with symmetry 1"):
        dense_measure(entries, 48, unit_vector(48, 12), symmetries=[reflection, rotation])


def test_dense_measure_rejects_a_rotation_the_involution_does_not_invert():
    # the half-turn commutes with H and with the rotation by 6, of order 4: s rho s = rho, not rho^-1
    entries = hamiltonian_2d_entries(free_operator(2), free_operator(24, "periodic"))
    symmetries = _ring_maps(2, 24, lambda m: m + 12, lambda m: m + 6)
    with pytest.raises(ValueError, match="symmetry 0 does not invert symmetry 1"):
        dense_measure(entries, 48, unit_vector(48, 12), symmetries=symmetries)
    with pytest.raises(ValueError, match="symmetry 0 does not invert symmetry 1"):
        sector_sizes(48, unit_vector(48, 12), symmetries)


def test_dense_measure_refuses_a_third_map():
    # m_symmetries gives (s,) or (s, rho); a third map is refused whether D_4 = <reflection, rotation by 6>
    # holds it (rho^3, s rho^2, the identity) or not (the rotation by 2, which commutes with H)
    a1 = Operator1D(np.random.default_rng(4).uniform(-2.0, 2.0, 2))
    entries, delta = hamiltonian_2d_entries(a1, free_operator(24, "periodic")), unit_vector(48, 12)
    symmetries = list(m_symmetries(2, free_operator(24, "periodic")))
    assert sector_sizes(48, delta, symmetries) == [8, 6, 12]
    for extra in _ring_maps(2, 24, lambda m: m + 18, lambda m: 12 - m, lambda m: m, lambda m: m + 2):
        with pytest.raises(ValueError, match="3 symmetries given, at most 2"):
            dense_measure(entries, 48, delta, symmetries=[*symmetries, extra])
        with pytest.raises(ValueError, match="3 symmetries given, at most 2"):
            sector_sizes(48, delta, [*symmetries, extra])


def test_dense_measure_rejects_a_rotation_that_is_not_a_permutation_of_bounded_order():
    # on 10 sites, cycles of 2, 3 and 5 sites make a permutation of order 30
    entries = hamiltonian_2d_entries(free_operator(1), free_operator(10, "periodic"))
    order_30 = np.array([1, 0, 3, 4, 2, 6, 7, 8, 9, 5])
    with pytest.raises(ValueError, match="symmetry 1 has an order above the 10 sites"):
        dense_measure(entries, 10, unit_vector(10, 0), symmetries=[np.arange(10), order_30])
    for bad in (np.zeros(10, dtype=int), np.arange(9), np.arange(10.0)):
        with pytest.raises(ValueError, match="symmetry 1 is not a permutation of the 10 sites"):
            dense_measure(entries, 10, unit_vector(10, 0), symmetries=[np.arange(10), bad])


def test_dense_measure_rejects_a_map_that_is_not_an_involution():
    entries = hamiltonian_2d_entries(free_operator(3), free_operator(4, "periodic"))
    shift = np.roll(np.arange(12), 1)
    for bad in (shift, np.full(12, 12), np.arange(11), np.arange(12.0)):
        with pytest.raises(ValueError, match="not an involution of the 12 sites"):
            dense_measure(entries, 12, unit_vector(12, 0), symmetries=[bad])


def test_dense_measure_rejects_symmetries_that_do_not_commute():
    # on a 3-site ring the reflections about 0 and about 1 each commute with H, but not with each other
    a1, a2 = free_operator(2), free_operator(3, "periodic")
    about_0, about_1 = _reflection(2, 3, 0), _reflection(2, 3, 1)
    with pytest.raises(ValueError, match="symmetry 0 does not invert symmetry 1"):  # at p = 2, invert is commute
        dense_measure(hamiltonian_2d_entries(a1, a2), 6, unit_vector(6, 0), symmetries=[about_0, about_1])


@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("M", [2, 3, 4, 5, 8])
def test_dense_measure_on_two_sectors_matches_full_eigh(M, boundary_n):
    # the window's reflection m -> M - 1 - m moves every site but the centre
    # of an odd window; a moved site is half even and half odd, and its
    # measure, the mean of both sectors' measures, lists the union of their atoms
    N = 3
    a1 = Operator1D(np.random.default_rng(M).uniform(-2.0, 2.0, N), boundary=boundary_n)
    entries = hamiltonian_2d_entries(a1, free_operator(M))
    es = full_eigensystem(dense_hamiltonian(a1, free_operator(M)))
    mirror = np.array([n * M + M - 1 - m for n in range(N) for m in range(M)])
    for site in range(N * M):
        ref = spectral_measure_1d(es, np.eye(N * M)[site])
        mu = dense_measure(entries, N * M, unit_vector(N * M, site), symmetries=[mirror])
        assert atom_weight_discrepancy(mu, ref) <= 1e-12
        assert abs(mu.total_mass() - 1.0) <= 1e-13
        if mirror[site] != site:
            assert mu.atom_count == ref.atom_count


@pytest.mark.parametrize(
    "a2, j0",
    [
        (free_operator(4), 2),  # an even window reflected mod M: the seam bond is not a bond of H
        (Operator1D(np.random.default_rng(5).uniform(-1.0, 1.0, 5), "periodic"), 2),  # V varying along m
    ],
    ids=["even-window", "m-potential"],
)
def test_dense_measure_rejects_a_mirror_h_does_not_commute_with(a2, j0):
    a1 = Operator1D(np.random.default_rng(6).uniform(-2.0, 2.0, 3))
    entries = hamiltonian_2d_entries(a1, a2)
    with pytest.raises(ValueError, match="does not commute with symmetry 0"):
        site = a2.size + j0
        dense_measure(entries, 3 * a2.size, unit_vector(3 * a2.size, site), symmetries=[_reflection(3, a2.size, j0)])


@pytest.mark.parametrize("coupling, commutes", [(0.9e-11, True), (1.1e-11, False)])
def test_dense_measure_mirror_check_has_the_symmetry_bound(coupling, commutes):
    # max|H| = 10 puts the bound at 1e-12 * 10; a symmetric bump on the bond
    # from the fixed site 1 to site 2, whose image is the bond to site 0,
    # is itself the defect the check measures
    h = dense_hamiltonian(Operator1D(np.array([10.0])), free_operator(3, "periodic"))
    h[1, 2] = h[2, 1] = h[1, 2] + coupling
    mirror = _reflection(1, 3, 1)
    if commutes:
        assert abs(dense_measure(_entries(h), 3, unit_vector(3, 1), symmetries=[mirror]).total_mass() - 1.0) <= 1e-13
    else:
        with pytest.raises(ValueError, match="does not commute with symmetry 0"):
            dense_measure(_entries(h), 3, unit_vector(3, 1), symmetries=[mirror])


def test_dense_measure_rejects_a_state_that_is_not_a_nonzero_vector_of_the_sites():
    entries = hamiltonian_2d_entries(free_operator(3), free_operator(2))
    for psi in (np.ones(5), np.ones(7), np.ones((3, 2)), 2):
        with pytest.raises(ValueError, match=rf"state psi has shape {re.escape(str(np.shape(psi)))}, not \(6,\)"):
            dense_measure(entries, 6, psi)
    for psi in (np.zeros(6), np.zeros(6, dtype=complex)):
        with pytest.raises(ValueError, match="state psi is identically zero"):
            dense_measure(entries, 6, psi)


def test_sector_sizes_rejects_what_dense_measure_rejects():
    # a site index in place of the state once answered for site 23 at -1 and raised a bare IndexError at 24
    symmetries = _symmetries_about(3, free_operator(8, "periodic"), 2)
    for psi in (-1, 24, 3.0, np.ones(23), unit_vector(24, 3)[:, None]):
        with pytest.raises(ValueError, match=rf"state psi has shape {re.escape(str(np.shape(psi)))}, not \(24,\)"):
            sector_sizes(24, psi, symmetries)
    with pytest.raises(ValueError, match="state psi is identically zero"):
        sector_sizes(24, np.zeros(24), symmetries)


def test_sector_sizes_of_a_spread_state_list_every_sector_it_has_a_part_in():
    # a delta at a reflection-fixed site meets two of the four sectors, a full state all four
    symmetries = _symmetries_about(3, free_operator(8, "periodic"), 2)
    assert sector_sizes(24, unit_vector(24, 2), symmetries) == [9, 6]
    assert sorted(sector_sizes(24, np.ones(24), symmetries)) == [3, 6, 6, 9]


def test_dense_measure_rejects_more_sites_than_the_dense_cap():
    # the cap comes first: no entry is certified and no block is scattered
    entries = hamiltonian_2d_entries(free_operator(1), free_operator(DENSE_SITE_CAP + 1))
    with pytest.raises(ValueError, match=f"{DENSE_SITE_CAP + 1} sites exceed the dense cap of {DENSE_SITE_CAP}"):
        dense_measure(entries, DENSE_SITE_CAP + 1, unit_vector(DENSE_SITE_CAP + 1, 0))


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("N", [1, 3])
def test_dense_measure_at_a_random_state_matches_full_eigh_at_every_j0(N, boundary_n, boundary_m):
    # a complex state with full support has a part in every sector: the measure at psi is the sum of the
    # sectors' measures at P^T psi, with no cross terms, whichever j0 the ring's reflection is about
    rng = np.random.default_rng(10 * N + len(boundary_n + boundary_m))
    for M in [*range(1, 9), 12]:
        a1 = Operator1D(rng.uniform(-2.0, 2.0, N), boundary=boundary_n)
        a2 = free_operator(M, boundary=boundary_m)
        entries = hamiltonian_2d_entries(a1, a2)
        es = full_eigensystem(dense_hamiltonian(a1, a2))
        psi = rng.standard_normal(N * M) + 1j * rng.standard_normal(N * M)
        psi /= np.linalg.norm(psi)
        ref = spectral_measure_1d(es, psi)
        for j0 in range(M):
            mu = dense_measure(entries, N * M, psi, symmetries=_symmetries_about(N, a2, j0))
            assert atom_weight_discrepancy(mu, ref) <= 1e-13
            assert abs(mu.total_mass() - 1.0) <= 1e-13


def _unit_columns(rng, shape, complex_=True):
    v = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
    return v / np.linalg.norm(v, axis=0)


def test_overlaps_are_plain_transposed_products():
    # the data goes through a real GEMM on its complex float64 view; it must match
    # the plain products for vectors, columns, an F-ordered block (m_sweep
    # passes a.T) and real data, which comes back complex with the same values
    rng = np.random.default_rng(0)
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.3), (0, 64))
    es = eigh_tridiagonal(build_operator_1d(pot))
    inputs = [
        _unit_columns(rng, 64),
        _unit_columns(rng, (64, 5)),
        _unit_columns(rng, (6, 64)).T,
        _unit_columns(rng, 64, complex_=False),
        _unit_columns(rng, (64, 3), complex_=False),
    ]
    for v in inputs:
        for got, want in ((es.overlaps(v), es.eigenvectors.T @ v), (es.combine(v), es.eigenvectors @ v)):
            assert got.shape == want.shape and got.dtype == complex
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_eigenbasis_evolution_never_casts_the_basis_to_complex():
    es = eigh_tridiagonal(free_operator(1024))
    chi = np.zeros(1024, dtype=complex)
    chi[512] = 1.0
    evolve_1d_eigen(es, chi, 1.0)  # warm-up outside the trace
    tracemalloc.start()
    try:
        evolve_1d_eigen(es, chi, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a complex copy of the 1024^2 basis alone is 16 MiB


@pytest.mark.parametrize("size", [512, 513])
def test_eigh_tridiagonal_on_both_sides_of_the_numpy_size_rule(size):
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.7), (0, size))
    op = build_operator_1d(pot)
    es = eigh_tridiagonal(op)
    ref = scipy.linalg.eigh_tridiagonal(op.diagonal, -np.ones(size - 1), eigvals_only=True)
    np.testing.assert_allclose(es.eigenvalues, ref, rtol=0, atol=1e-13)
    assert eigen_residual(es, op) <= 1e-12
    assert gram_defect(es) <= 1e-12


def test_eigh_tridiagonal_caps_a_periodic_chain_before_forming_its_matrix(monkeypatch):
    def forbidden(self):
        raise AssertionError("formed the dense matrix of a chain above the cap")

    monkeypatch.setattr(Operator1D, "matrix", forbidden)
    with pytest.raises(ValueError, match=f"size {DENSE_SITE_CAP + 1} exceeds the dense cap of {DENSE_SITE_CAP}"):
        eigh_tridiagonal(free_operator(DENSE_SITE_CAP + 1, "periodic"))


FREE_SIZES = [2, 3, 48, 512, 513, 1024]


def _exact_delta_measure(M, boundary, site):
    """The free chain's measure at e_site from 30-digit trigonometry: basis-free, as the
    window's spectrum is simple and the ring's has weight 1/M per Fourier mode.  numpy's
    eigh is no reference at 1e-14: its delta measure is 2.2e-14 off this one on the
    1024-site ring."""
    import mpmath

    with mpmath.workdps(30):
        if boundary == "periodic":
            atoms = [(-2 * mpmath.cos(2 * mpmath.pi * k / M), mpmath.mpf(1) / M) for k in range(M)]
        else:
            angle = mpmath.pi / (M + 1)
            weight = 2 / mpmath.mpf(M + 1)
            atoms = [(-2 * mpmath.cos(angle * k), weight * mpmath.sin(angle * (site + 1) * k) ** 2) for k in range(1, M + 1)]
        energies, weights = zip(*((float(e), float(w)) for e, w in atoms))
    return SpectralMeasure.from_atoms(energies, weights)


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("M", FREE_SIZES)
def test_free_delta_measure_is_the_exact_measure(M, boundary):
    # the 30-digit truth, rounded: 1/M per Fourier mode on a ring, the squared sine on a window
    op = free_operator(M, boundary)
    for site in sorted({0, M // 3, M // 2, M - 1}):
        got = free_delta_measure(op, site)
        assert got.weights.dtype == np.float64
        assert atom_weight_discrepancy(got, _exact_delta_measure(M, boundary, site)) <= 2.3e-16, site


def test_free_delta_measure_rejects_a_potential_and_a_site_off_the_chain():
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=1.0), (0, 8))
    with pytest.raises(ValueError, match="free chain"):
        free_delta_measure(build_operator_1d(pot), 0)
    with pytest.raises(ValueError, match=r"site 8 is outside \[0, 8\)"):
        free_delta_measure(free_operator(8), 8)


# -- 1D spectral measures -------------------------------------------------------


def test_eigensystem_and_measure_refusals_name_their_fault():
    with pytest.raises(ValueError, match="^eigenvalue/eigenvector shapes are inconsistent$"):
        EigenSystem(np.zeros(3), np.eye(2))
    for energies, weights in (([0.0, 1.0], [1.0]), (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="^energies and weights must be 1D arrays of equal length$"):
            SpectralMeasure(energies, weights)
    with pytest.raises(ValueError, match="^grid_edges and density must be given together$"):
        SpectralMeasure([0.0], [1.0], grid_edges=[0.0, 1.0])
    with pytest.raises(ValueError, match="^need B\\+1 grid edges for B density bins$"):
        SpectralMeasure([0.0], [1.0], grid_edges=[0.0, 1.0, 2.0], density=[1.0])
    with pytest.raises(ValueError, match="^measure is empty$"):
        SpectralMeasure([], []).support_bounds()


def test_delta_measure_mass_and_positivity():
    es = eigh_tridiagonal(free_operator(21))
    chi = np.zeros(21)
    chi[10] = 1.0
    mu = spectral_measure_1d(es, chi)
    assert isinstance(mu.total_mass(), float) and abs(mu.total_mass() - 1.0) < 1e-13
    assert mu.weights.dtype == np.float64 and np.all(mu.weights >= 0.0)


def test_measure_1d_at_a_complex_vector_has_real_weights():
    # |c|^2 as c.real^2 + c.imag^2; numpy's complex product conj(c) c may round its real part once, by FMA
    rng = np.random.default_rng(6)
    es = eigh_tridiagonal(build_operator_1d(sample_potential(PotentialSpec("almost_mathieu", amplitude=2.0), (0, 24))))
    chi = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    mu = spectral_measure_1d(es, chi)
    c = es.overlaps(chi)
    assert mu.weights.dtype == np.float64
    np.testing.assert_allclose(mu.weights, (np.conj(c) * c).real, rtol=4.5e-16, atol=0)
    assert abs(mu.total_mass() - np.vdot(chi, chi).real) <= 1e-12


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: SpectralMeasure([0.0, 1.0], [0.5, 0.5 + 0j]), "atom weights"),
        (lambda: SpectralMeasure.from_atoms([0.0, 1.0], np.array([0.5, 0.5], dtype=complex)), "atom weights"),
        (lambda: SpectralMeasure.from_atoms([0.0 + 0j], [1.0]), "atom energies"),
        (
            lambda: SpectralMeasure(np.empty(0), np.empty(0), grid_edges=[0.0, 1.0, 2.0], density=[0.5, 0.5j]),
            "density",
        ),
    ],
    ids=["weights", "from_atoms_weights", "energies", "density"],
)
def test_measure_refuses_complex_masses(build, what):
    # a measure is real: a complex input, even one of zero imaginary part, is refused, never cast
    with pytest.raises(ValueError, match=f"^{what} must be real, not complex$"):
        build()


@pytest.mark.parametrize("chi", [np.ones(5), np.ones((6, 2)), np.eye(6)], ids=["length-5", "6x2", "6x6"])
def test_measure_1d_rejects_a_chi_of_the_wrong_shape(chi):
    es = eigh_tridiagonal(free_operator(6))
    shape = re.escape(str(chi.shape))
    with pytest.raises(ValueError, match=rf"^chi: vector length {shape} does not match eigensystem size 6$"):
        spectral_measure_1d(es, chi)


def test_free_chain_measure_approaches_arcsine_law():
    # the infinite free chain has density 1/(pi sqrt(4 - E^2)) at the origin;
    # truncation CDFs must converge with sup error dropping as N grows
    def sup_cdf_error(N):
        es = eigh_tridiagonal(free_operator(N))
        chi = np.zeros(N)
        chi[N // 2] = 1.0
        mu = spectral_measure_1d(es, chi)
        cdf = np.cumsum(mu.weights)
        arcsine = 0.5 + np.arcsin(np.clip(mu.energies / 2.0, -1, 1)) / np.pi
        return np.abs(cdf - arcsine).max()

    e201, e401 = sup_cdf_error(201), sup_cdf_error(401)
    assert e401 < 3e-3
    assert e401 < e201


def test_measure_merges_close_atoms():
    assert spectral.ATOM_MERGE_TOL == 1e-9
    mu = SpectralMeasure.from_atoms([0.0, 1.0, 1.0 + 5e-10], [0.2, 0.3, 0.5])
    assert mu.atom_count == 2
    np.testing.assert_allclose(mu.weights, [0.2, 0.8])
    np.testing.assert_allclose(mu.energies[1], 1.0 + 2.5e-10)


def test_merging_atoms_near_the_float64_maximum_does_not_overflow():
    # eight atoms at 1e308 sum past the float64 maximum; their mean is still 1e308.  A RuntimeWarning is
    # an error under pytest, so an overflowing sum fails here too
    for e in (1e308, -1e308, np.finfo(float).max):
        mu = SpectralMeasure.from_atoms(np.full(8, e), np.full(8, 0.125))
        assert mu.energies.tolist() == [e] and mu.weights.tolist() == [1.0]
    mu = SpectralMeasure.from_atoms([-1e308, -1e308, 0.0, 1.0, 1.0 + 5e-10, 1e308, 1e308], np.ones(7))
    assert mu.energies.tolist() == [-1e308, 0.0, (1.0 + (1.0 + 5e-10)) / 2, 1e308]
    assert mu.weights.tolist() == [2.0, 1.0, 2.0, 2.0]


def test_every_measure_builder_reads_the_merge_constant_at_call_time(monkeypatch):
    # near the band edge of a 200-site free window the atoms sit under 1e-3 apart; a builder that froze
    # ATOM_MERGE_TOL as a default would give one atom count at both settings
    window = free_operator(200)
    pair = SpectralMeasure.from_atoms([0.0, 1e-4], [0.5, 0.5])
    mixed = SpectralMeasure([0.0, 1.0], [0.25, 0.25], grid_edges=np.linspace(-1.0, 1.0, 5), density=np.full(4, 0.25))
    builders = {
        "from_atoms": lambda: SpectralMeasure.from_atoms([0.0, 1e-4, 1.0], [0.25, 0.25, 0.5]),
        "spectral_measure_1d": lambda: spectral_measure_1d(eigh_tridiagonal(window), unit_vector(200, 0)),
        "free_delta_measure": lambda: free_delta_measure(window, 0),
        "dense_measure": lambda: dense_measure(_entries(window.matrix()), 200, unit_vector(200, 0)),
        "convolve_measures": lambda: convolve_measures(pair, mixed),
    }
    for name, build in builders.items():
        monkeypatch.setattr(spectral, "ATOM_MERGE_TOL", 0.0)
        energies = build().energies
        monkeypatch.setattr(spectral, "ATOM_MERGE_TOL", 1e-3)
        clusters = 1 + int((np.diff(energies) > 1e-3).sum())
        assert build().atom_count == clusters < energies.size, name


def test_measure_support_bounds():
    mu = SpectralMeasure.from_atoms([-1.5, 2.5], [1.0, 1.0])
    lo, hi = mu.support_bounds()
    assert lo == -1.5 and hi == 2.5


# -- convolution ----------------------------------------------------------------


def test_atomic_convolution_shifts_energies():
    mu = SpectralMeasure.from_atoms([1.0], [0.5])
    nu = SpectralMeasure.from_atoms([2.0], [0.25])
    conv = convolve_measures(mu, nu)
    assert conv.atom_count == 1
    np.testing.assert_allclose(conv.energies, [3.0])
    np.testing.assert_allclose(conv.weights, [0.125])


def test_atomic_convolution_commutes():
    rng = np.random.default_rng(2)
    mu = SpectralMeasure.from_atoms(rng.uniform(-2, 2, 7), rng.standard_normal(7))
    nu = SpectralMeasure.from_atoms(rng.uniform(-2, 2, 5), rng.standard_normal(5))
    ab = convolve_measures(mu, nu)
    ba = convolve_measures(nu, mu)
    assert atom_weight_discrepancy(ab, ba) < 1e-14


def test_atomic_convolution_mass_multiplies():
    rng = np.random.default_rng(3)
    for _ in range(50):
        mu = SpectralMeasure.from_atoms(rng.uniform(-4, 4, 11), rng.standard_normal(11))
        nu = SpectralMeasure.from_atoms(rng.uniform(-4, 4, 6), rng.standard_normal(6))
        conv = convolve_measures(mu, nu)
        assert abs(conv.total_mass() - mu.total_mass() * nu.total_mass()) < 1e-12


def test_density_convolution_conserves_mass():
    # uniform density on [-1, 1] convolved with itself: triangular on [-2, 2]
    edges = np.linspace(-1.0, 1.0, 65)
    dens = np.full(64, 0.5)
    mu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=dens)
    conv = convolve_measures(mu, mu)
    assert conv.atom_count == 0
    assert abs(conv.total_mass() - 1.0) < 1e-12
    # peak of the triangle sits at 0 with value 1/2
    mids = 0.5 * (conv.grid_edges[:-1] + conv.grid_edges[1:])
    peak = conv.density[np.argmin(np.abs(mids))]
    assert abs(peak - 0.5) < 0.02


def test_mixed_atom_density_convolution_shifts_density():
    edges = np.linspace(0.0, 1.0, 33)
    dens = np.ones(32)
    mu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=dens)
    shift = SpectralMeasure.from_atoms([2.0], [1.0])
    conv = convolve_measures(mu, shift)
    assert abs(conv.total_mass() - 1.0) < 1e-12
    mids = 0.5 * (conv.grid_edges[:-1] + conv.grid_edges[1:])
    inside = (mids > 2.05) & (mids < 2.95)
    np.testing.assert_allclose(conv.density[inside], 1.0, atol=1e-9)


def test_narrow_grid_raises_with_lost_mass(monkeypatch):
    # a pad of -0.5 cuts the default grid to [-0.5, 0.5]
    monkeypatch.setattr(spectral, "GRID_PAD", -0.5)
    mu = SpectralMeasure.from_atoms([0.0], [1.0])
    edges = np.linspace(-1.0, 1.0, 33)
    dens = np.full(32, 0.5)
    nu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=dens)
    with pytest.raises(GridTooNarrowError) as err:
        convolve_measures(mu, nu)
    assert err.value.lost_mass > 0.4


def test_off_grid_mass_of_opposite_signs_does_not_cancel(monkeypatch):
    # +1 on [-1, -0.5) and -1 on [0.5, 1] fall wholly off the grid [-0.5, 0.5] that a pad of -0.5 leaves:
    # 1.0 of |mass| is lost, 0 of signed mass
    monkeypatch.setattr(spectral, "GRID_PAD", -0.5)
    mu = SpectralMeasure.from_atoms([0.0], [1.0])
    dens = np.array([1.0, 0.0, 0.0, -1.0])
    nu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=np.linspace(-1.0, 1.0, 5), density=dens)
    with pytest.raises(GridTooNarrowError) as err:
        convolve_measures(mu, nu)
    assert abs(err.value.lost_mass - 1.0) <= 1e-15


def _convolve_overflowing(mu, nu):
    # finite but huge masses whose product overflows: refused by name, not as a grid that loses mass nan
    with np.errstate(over="ignore", invalid="ignore"):
        convolve_measures(mu, nu)


_HUGE_ATOM = SpectralMeasure.from_atoms([0.0], [1e200])
_HUGE_DENSITY = SpectralMeasure(
    np.empty(0), np.empty(0), grid_edges=np.linspace(-1.0, 1.0, 5), density=np.full(4, 1e200)
)
_HUGE_ATOM_BESIDE_A_DENSITY = SpectralMeasure([1.0], [1e200], grid_edges=np.linspace(-1.0, 1.0, 5), density=np.ones(4))
_OVERFLOW = "^convolution piece mass overflows: a product of the two masses is not finite$"


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: SpectralMeasure.from_atoms([0.0, 1.0], [0.5, np.nan]), ValueError, "^atom weights must be finite$"),
        (
            lambda: SpectralMeasure(np.empty(0), np.empty(0), grid_edges=[0.0, 1.0, 2.0], density=[1.0, np.inf]),
            ValueError,
            "^density must be finite$",
        ),
        (lambda: _convolve_overflowing(_HUGE_ATOM, _HUGE_DENSITY), ValueError, _OVERFLOW),
        (lambda: _convolve_overflowing(_HUGE_ATOM, _HUGE_ATOM), ValueError, _OVERFLOW),
        (lambda: _convolve_overflowing(_HUGE_ATOM_BESIDE_A_DENSITY, _HUGE_ATOM), ValueError, _OVERFLOW),
        (lambda: _convolve_overflowing(_HUGE_DENSITY, _HUGE_DENSITY), ValueError, _OVERFLOW),
    ],
    ids=["nan_weight", "inf_density", "nan_lost_mass", "atom_by_atom", "atom_by_atom_beside_a_density", "bin_by_bin"],
)
def test_non_finite_mass_fails_closed(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "grid, fault",
    [
        ([0.0], "a 1D array of at least 2 edges, not shape \\(1,\\)"),
        (np.linspace(-3.0, 3.0, 10).reshape(2, 5), "a 1D array of at least 2 edges, not shape \\(2, 5\\)"),
        ([-np.inf, 0.0, np.inf], "finite, uniform and increasing"),
        ([-3.0, np.nan, 3.0], "finite, uniform and increasing"),
        (np.linspace(3.0, -3.0, 9), "finite, uniform and increasing"),
        ([-3.0, -2.0, 3.0], "finite, uniform and increasing"),
    ],
)
def test_convolve_refuses_a_bad_grid_before_binning(grid, fault):
    # the grid is checked where a density is built, so no convolution ever bins onto it
    mu = SpectralMeasure.from_atoms([0.0], [1.0])
    bins = max(np.size(grid) - 1, 0)
    with pytest.raises(ValueError, match=f"^density grid must be {fault}$"):
        convolve_measures(mu, SpectralMeasure(np.empty(0), np.empty(0), grid_edges=grid, density=np.ones(bins)))


@pytest.mark.parametrize("atoms, bins", [(2048, 512), (1, 2**17)])
def test_convolve_binning_memory_is_bounded_by_the_block(atoms, bins):
    # 2048 atoms x 512 bins once formed every piece at once (121 MiB); one row wider than a block is cut too
    rng = np.random.default_rng(5)
    mu = SpectralMeasure.from_atoms(np.sort(rng.uniform(-3.0, 3.0, atoms)), np.full(atoms, 1 / atoms))
    edges = np.linspace(-2.0, 2.0, bins + 1)
    nu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=np.full(bins, 0.25))
    tracemalloc.start()
    try:
        conv = convolve_measures(mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(conv.total_mass() - 1.0) <= 1e-12
    assert peak < 24 * 8 * spectral.BIN_BLOCK + 16 * bins  # 24 doubles per piece of one block, and the bin masses


def _density_measure(rng, lo, hi, bins, atoms=0):
    edges = np.linspace(lo, hi, bins + 1)
    dens = rng.standard_normal(bins)
    e = rng.uniform(-2.0, 2.0, atoms)
    return SpectralMeasure(e, rng.standard_normal(atoms), grid_edges=edges, density=dens)


def _loop_binning(mu, nu, edges):
    """Reference: every product piece spread over the grid one mass and one bin at a time."""
    pieces = []  # (lo, hi, mass)
    for atoms, dens in ((mu, nu), (nu, mu)):
        if dens.density is None:
            continue
        h = dens.bin_width
        for e, w in zip(atoms.energies, atoms.weights):
            for a, d in zip(dens.grid_edges[:-1], dens.density):
                pieces.append((e + a, e + a + h, w * d * h))
    if mu.density is not None and nu.density is not None:
        h1, h2 = mu.bin_width, nu.bin_width
        for a1, d1 in zip(mu.grid_edges[:-1], mu.density):
            for a2, d2 in zip(nu.grid_edges[:-1], nu.density):
                pieces.append((a1 + a2, a1 + a2 + h1 + h2, d1 * h1 * d2 * h2))
    binned = np.zeros(edges.size - 1)
    lost = 0.0
    for a, b, m in pieces:
        on_grid = 0.0
        for i in range(edges.size - 1):
            seg = min(b, edges[i + 1]) - max(a, edges[i])
            if seg > 0:
                binned[i] += m * seg / (b - a)
                on_grid += seg
        lost += abs(m) * (1.0 - on_grid / (b - a))
    return binned, lost


@pytest.mark.parametrize(
    "case",
    ["atoms_x_density", "density_x_atoms", "equal_widths", "unequal_widths", "mixed", "off_grid"],
)
@pytest.mark.parametrize("block", [spectral.BIN_BLOCK, 7, 40])
def test_binning_matches_per_mass_loop(monkeypatch, case, block):
    # a block of 7 cuts each row of more than 7 bins into blocks ending in a partial one; 40 holds several rows
    monkeypatch.setattr(spectral, "BIN_BLOCK", block)
    rng = np.random.default_rng(11)
    atoms = SpectralMeasure.from_atoms(rng.uniform(-2.0, 2.0, 5), rng.standard_normal(5))
    coarse = _density_measure(rng, -2.0, 2.0, 16)  # pieces 0.25 wide, over more than 10 bins of the default grid
    mu, nu = {
        "atoms_x_density": (atoms, coarse),
        "density_x_atoms": (coarse, atoms),
        "equal_widths": (coarse, _density_measure(rng, -1.0, 1.0, 8)),
        "unequal_widths": (coarse, _density_measure(rng, -1.3, 1.7, 7)),
        "mixed": (_density_measure(rng, -1.0, 1.0, 6, atoms=3), _density_measure(rng, 0.0, 2.1, 5, atoms=4)),
        "off_grid": (atoms, coarse),
    }[case]
    if case == "off_grid":  # the grid stops 1.5 inside each end of the Minkowski sum, so pieces start below,
        monkeypatch.setattr(spectral, "GRID_PAD", -1.5)  # straddle and lie wholly beyond both grid ends
    conv = convolve_measures(mu, nu, mass_tol=np.inf)
    edges = conv.grid_edges
    ref_binned, ref_lost = _loop_binning(mu, nu, edges)
    assert np.abs(conv.density * np.diff(edges) - ref_binned).max() <= 1e-14
    if case == "off_grid":
        assert ref_lost > 0.1
        with pytest.raises(GridTooNarrowError) as err:
            convolve_measures(mu, nu)
        assert abs(err.value.lost_mass - ref_lost) <= 1e-14
    else:
        assert ref_lost <= 1e-14


def test_default_convolution_grid_covers_minkowski_sum():
    mu = SpectralMeasure.from_atoms([-2.0, 1.0], [0.5, 0.5])
    edges = np.linspace(0.0, 2.0, 9)
    nu = SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=np.ones(8) / 2.0)
    grid = convolve_measures(mu, nu).grid_edges
    assert grid[0] <= -2.0 and grid[-1] >= 3.0


# -- the 2D measure and the factorization identity ------------------------------


def _dense_2d_measure(a1, a2, vec):
    return spectral_measure_1d(full_eigensystem(dense_hamiltonian(a1, a2)), vec)


def test_convolution_identity_small_lattice():
    # local 2D measure at a delta equals the convolution of the factor measures
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (-4, 4))
    a1 = build_operator_1d(pot)
    a2 = free_operator(6, boundary="periodic")
    es1, es2 = eigh_tridiagonal(a1), eigh_tridiagonal(a2)
    chi = np.zeros(8)
    chi[4] = 1.0
    phi = np.zeros(6)
    phi[3] = 1.0
    conv = convolve_measures(spectral_measure_1d(es1, chi), spectral_measure_1d(es2, phi))
    direct = _dense_2d_measure(a1, a2, np.outer(chi, phi).ravel())
    assert atom_weight_discrepancy(conv, direct) < 1e-12


def test_two_term_component_measure_matches_dense_route():
    # sum of two tensor components with complex coefficients
    rng = np.random.default_rng(4)
    a1 = build_operator_1d(sample_potential(PotentialSpec("almost_mathieu", amplitude=2.0), (0, 7)))
    a2 = free_operator(5)
    es1, es2 = eigh_tridiagonal(a1), eigh_tridiagonal(a2)
    vec = np.zeros((7, 5), dtype=complex)
    for alpha in (0.8 + 0.1j, -0.3 + 0.55j):
        chi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        phi = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vec += alpha * np.outer(chi, phi)
    mu2d = spectral_measure_2d(es1, es2, vec)
    direct = _dense_2d_measure(a1, a2, vec.ravel())
    assert atom_weight_discrepancy(mu2d, direct) < 1e-11
    assert abs(mu2d.total_mass() - np.vdot(vec, vec)) < 1e-11


def test_max_atom_weight_and_merge():
    mu = SpectralMeasure([0.0, 1.0, 1.0 + 1e-12], [0.1, 0.45, 0.45])  # the bare constructor merges nothing
    assert mu.atom_count == 3
    assert abs(max_atom_weight(mu) - 0.9) < 1e-12
    with pytest.raises(ValueError):
        max_atom_weight(SpectralMeasure(np.empty(0), np.empty(0)))


def test_atom_weight_discrepancy_detects_perturbation():
    mu = SpectralMeasure.from_atoms([0.0, 1.0], [0.5, 0.5])
    nu = SpectralMeasure.from_atoms([0.0, 1.0 + 1e-10], [0.5, 0.5 + 1e-6])
    assert atom_weight_discrepancy(mu, mu) == 0.0
    assert abs(atom_weight_discrepancy(mu, nu) - 1e-6) < 1e-12
