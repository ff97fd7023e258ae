import re

import numpy as np
import pytest

from chainlab.evolution import evolve_2d_direct, evolve_2d_factorized, make_plan
from chainlab.operators import (
    BOUNDARIES,
    GOLDEN_MEAN,
    RING_CELL_SITES,
    Operator1D,
    PotentialSpec,
    apply_h2d,
    build_operator_1d,
    delta_state,
    delta_vector,
    energy_expectation,
    free_operator,
    hamiltonian_2d_entries,
    m_symmetries,
    sample_potential,
)
from dense_reference import cosine_samples, dense_hamiltonian, n_fiber_isometry_defect, norm_chain, spreading_moments


# -- potential specs and sampling --------------------------------------------


def test_constant_potential_samples():
    pot = sample_potential(PotentialSpec("constant", amplitude=2.5), (-3, 4))
    assert pot.shape == (7,)
    np.testing.assert_allclose(pot, 2.5)


def test_almost_mathieu_matches_closed_form():
    spec = PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.7)
    pot = sample_potential(spec, (-50, 50))
    n = np.arange(-50, 50)
    expected = 3.0 * np.cos(2.0 * np.pi * GOLDEN_MEAN * n + 0.7)
    np.testing.assert_allclose(pot, expected, atol=1e-14)


def test_quasiperiodic_cosine_profile_matches_almost_mathieu():
    # the sampled-profile interpolation route must reproduce the closed form
    spec_q = PotentialSpec(
        "quasiperiodic", amplitude=3.0, omega=GOLDEN_MEAN, theta=0.7, profile=cosine_samples()
    )
    spec_a = PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.7)
    vq = sample_potential(spec_q, (-200, 200))
    va = sample_potential(spec_a, (-200, 200))
    np.testing.assert_allclose(vq, va, atol=1e-9)


@pytest.mark.parametrize(
    "window", [(-7, 13), (4090, 4100), (-4100, -4090), (-4096, 4096)], ids=["cross-0", "cross+4096", "cross-4096", "wide"]
)
def test_random_iid_is_window_independent(window):
    spec = PotentialSpec("random_iid", amplitude=1.0, seed=42)
    wide = sample_potential(spec, (-5000, 5000))
    narrow = sample_potential(spec, window)
    np.testing.assert_array_equal(narrow, wide[5000 + window[0] : 5000 + window[1]])


_U64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64_reference(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _U64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _U64
    return z ^ (z >> 31)


def _iid_reference(seed: int, n: int) -> float:
    """Site n's uniform value in Python integers: SplitMix64 step n, keyed by SplitMix64's first output for seed."""
    key = _mix64_reference((seed + _GAMMA) & _U64)
    return (_mix64_reference((key + n * _GAMMA) & _U64) >> 11) * 2.0**-52 - 1.0


def test_random_iid_golden_values():
    # pinned bits: a numpy that promotes or wraps uint64 otherwise (before NEP 50) moves them
    assert _mix64_reference(_GAMMA) == 0xE220A8397B1DCDAF  # SplitMix64's published first output for seed 0
    golden = {
        -4097: 0.04561519617988097,
        -1: -0.8302488905201273,
        0: 0.3954726832315554,
        1: -0.31341615580265314,
        4096: -0.3150008739561849,
        2**40: 0.16780343438954026,
    }
    spec = PotentialSpec("random_iid", amplitude=1.0, seed=42)
    got = {n: sample_potential(spec, (n, n + 1))[0] for n in golden}
    assert got == golden
    assert got == {n: _iid_reference(42, n) for n in golden}
    top = PotentialSpec("random_iid", amplitude=1.0, seed=2**64 - 1)
    assert sample_potential(top, (-3, 3)).tolist() == [_iid_reference(2**64 - 1, n) for n in range(-3, 3)]


def test_random_iid_moments_and_correlations_lie_within_six_sigma():
    # iid uniform on [-1, 1): mean 0 (sd sqrt(1/3n)), mean square 1/3 (sd sqrt((1/5 - 1/9)/n)),
    # and a lag-1 or cross-seed correlation with sd 1/sqrt(n) -- none read off a run
    n = 1 << 20
    x = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=0), (-n // 2, n // 2))
    y = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=1), (-n // 2, n // 2))
    assert abs(x.mean()) <= 6 * np.sqrt(1 / (3 * n))
    assert abs(np.mean(x * x) - 1 / 3) <= 6 * np.sqrt((1 / 5 - 1 / 9) / n)
    assert abs(np.mean(x[:-1] * x[1:]) * 3) <= 6 / np.sqrt(n - 1)
    assert abs(np.mean(x * y) * 3) <= 6 / np.sqrt(n)


def test_random_iid_amplitude_scales_and_bounds():
    spec = PotentialSpec("random_iid", amplitude=2.0, seed=3)
    v = sample_potential(spec, (0, 10000))
    assert np.abs(v).max() <= 2.0
    assert np.abs(v).max() > 1.5  # uniform on [-2, 2] fills its range


def test_random_iid_different_seeds_differ():
    a = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=1), (0, 64))
    b = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=2), (0, 64))
    assert not np.array_equal(a, b)


def test_explicit_values_anchor_at_origin():
    spec = PotentialSpec("explicit", amplitude=1.0, values=(1.0, 2.0, 3.0, 4.0))
    pot = sample_potential(spec, (0, 4))
    np.testing.assert_array_equal(pot, [1.0, 2.0, 3.0, 4.0])


def test_explicit_window_must_fit():
    spec = PotentialSpec("explicit", amplitude=1.0, values=(1.0, 2.0))
    with pytest.raises(ValueError):
        sample_potential(spec, (0, 3))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(family="nonsense", amplitude=1.0), "unknown potential family 'nonsense'"),
        (dict(family="random_iid", amplitude=1.0), "random_iid needs an explicit seed"),
        (dict(family="explicit", amplitude=1.0), "explicit potential needs a nonempty values list"),
        (dict(family="quasiperiodic", amplitude=1.0, profile=(1.0, 2.0)), "at least 16 samples"),
        (dict(family="constant", amplitude=float("nan")), "amplitude must be finite"),
        # the hash keys on 64 bits: 2^64 would alias 0
        (dict(family="random_iid", amplitude=1.0, seed=2**64), "seed must lie below 2\\^64"),
        (dict(family="random_iid", amplitude=1.0, seed=2**128 + 1), "seed must lie below 2\\^64"),
        (dict(family="almost_mathieu", amplitude=1.0, omega=float("inf")), "omega and theta must be finite"),
        (
            dict(family="quasiperiodic", amplitude=1.0, theta=float("nan"), profile=cosine_samples(16)),
            "omega and theta must be finite",
        ),
        (dict(family="quasiperiodic", amplitude=1.0, profile=(float("nan"),) * 16), "profile samples must be finite"),
        (dict(family="explicit", amplitude=1.0, values=(1.0, -np.inf)), "explicit potential values must be finite"),
    ],
)
def test_bad_specs_are_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PotentialSpec(**kwargs)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        sample_potential(PotentialSpec("constant", amplitude=0.0), (5, 5))


# -- 1D operators -------------------------------------------------------------


def test_operator_1d_refusals_name_their_fault():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^operator diagonal must be finite$"):
            Operator1D(np.array([0.0, bad]))
    with pytest.raises(ValueError, match=re.escape(f"unknown boundary 'ring', expected one of {BOUNDARIES}")):
        Operator1D(np.zeros(3), "ring")
    for shape in ((3,), (5, 2)):
        with pytest.raises(ValueError, match=f"^axis-0 length {shape[0]} does not match operator size 4$"):
            free_operator(4).apply(np.ones(shape))


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_apply_matches_dense_matrix(boundary):
    rng = np.random.default_rng(0)
    pot = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=5), (0, 17))
    op = build_operator_1d(pot, boundary=boundary)
    A = op.matrix()
    np.testing.assert_allclose(A, A.T)  # hermitian
    v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    np.testing.assert_allclose(op.apply(v), A @ v, atol=1e-14)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_apply_works_columnwise_on_blocks(boundary):
    rng = np.random.default_rng(1)
    op = free_operator(9, boundary=boundary)
    block = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
    out = op.apply(block)
    for j in range(4):
        np.testing.assert_allclose(out[:, j], op.apply(block[:, j]), atol=1e-14)


def test_two_site_periodic_ring_doubles_coupling():
    # on a 2-ring both neighbors of site 0 are site 1
    op = free_operator(2, boundary="periodic")
    A = op.matrix()
    np.testing.assert_allclose(A, [[0.0, -2.0], [-2.0, 0.0]])
    np.testing.assert_allclose(op.apply(np.array([1.0, 0.0])), [0.0, -2.0])


def test_free_operator_spectrum_inside_band():
    for boundary in BOUNDARIES:
        A = free_operator(40, boundary=boundary).matrix()
        eig = np.linalg.eigvalsh(A)
        assert eig[0] >= -2.0 - 1e-12 and eig[-1] <= 2.0 + 1e-12


def test_norm_bound_dominates_spectral_radius():
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (0, 30))
    op = build_operator_1d(pot)
    eig = np.linalg.eigvalsh(op.matrix())
    assert np.abs(eig).max() <= op.norm_bound + 1e-12


def test_operator_requires_a_site():
    with pytest.raises(ValueError):
        Operator1D(np.zeros(0))


# -- 2D states and the split Hamiltonian --------------------------------------


def test_delta_state_sits_in_the_middle_column():
    # row N // 2 unless a row i is given; the column is always M // 2
    psi = delta_state(8, 6)
    assert psi.shape == (8, 6) and psi.dtype == complex
    assert np.flatnonzero(psi).tolist() == [4 * 6 + 3] and psi[4, 3] == 1.0
    assert np.flatnonzero(delta_state(8, 6, 1)).tolist() == [1 * 6 + 3]
    assert np.flatnonzero(delta_state(3, 7, 0)).tolist() == [3]
    assert np.flatnonzero(delta_vector(5)).tolist() == [2] and np.flatnonzero(delta_vector(5, 4)).tolist() == [4]


@pytest.mark.parametrize("index", [-1, 5])
def test_delta_vector_refuses_an_index_off_the_window(index):
    # a negative index would wrap to the window's far end
    with pytest.raises(ValueError, match=rf"index {index} is outside the window of 5 sites"):
        delta_vector(5, index)
    with pytest.raises(ValueError, match=rf"index {index} is outside the window of 5 sites"):
        delta_state(5, 3, index)


def test_apply_h2d_matches_dense_matrix():
    rng = np.random.default_rng(2)
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (-4, 4))
    a1 = build_operator_1d(pot)
    a2 = free_operator(6, boundary="periodic")
    H = dense_hamiltonian(a1, a2)
    np.testing.assert_allclose(H, H.T)
    amp = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    out = apply_h2d(amp, a1, a2)
    np.testing.assert_allclose(out.ravel(), H @ amp.ravel(), atol=1e-13)


def _column_assembly(a1, a2):
    """H one column at a time: apply_h2d to each basis state."""
    N, M = a1.size, a2.size
    H = np.empty((N * M, N * M))
    for j in range(N * M):
        basis = np.zeros(N * M, dtype=complex)
        basis[j] = 1.0
        H[:, j] = apply_h2d(basis.reshape(N, M), a1, a2).real.ravel()
    return H


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("shape", [(2, 2), (2, 7), (9, 2), (8, 6)])
def test_stencil_fill_equals_column_assembly(shape, boundary_n, boundary_m):
    rng = np.random.default_rng(9)
    N, M = shape
    pot = sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0), (-(N // 2), N - N // 2))
    a1 = build_operator_1d(pot, boundary=boundary_n)
    a2 = Operator1D(rng.uniform(-1.0, 1.0, M), boundary=boundary_m)
    H = dense_hamiltonian(a1, a2)
    assert np.array_equal(H, _column_assembly(a1, a2))
    assert np.array_equal(H, H.T)


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("boundary_n", BOUNDARIES)
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_dense_h_is_the_scatter_of_its_entries(N, boundary_n, boundary_m):
    # 1- and 2-site rings included: a 1-site ring adds -2 to its diagonal, a 2-site ring hops twice.  On a
    # 1-site ring apply_h2d adds the -2 to A1's diagonal before A2's, so it agrees to rounding only.
    rng = np.random.default_rng(N)
    for M in [*range(1, 9), 12, 13]:
        a1 = Operator1D(rng.uniform(-2.0, 2.0, N), boundary=boundary_n)
        a2 = Operator1D(rng.uniform(-1.0, 1.0, M), boundary=boundary_m)
        rows, cols, values = hamiltonian_2d_entries(a1, a2)
        assert rows.size <= 5 * N * M
        H = np.zeros((N * M, N * M))
        np.add.at(H, (rows, cols), values)  # entries at one position add, in list order
        assert np.array_equal(H, dense_hamiltonian(a1, a2))  # the tests' scatter, bit for bit
        np.testing.assert_allclose(H, _column_assembly(a1, a2), rtol=0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("boundary_m", BOUNDARIES)
@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 8])
def test_m_mirror_sites_commutes_with_h_where_it_exists(M, boundary_m):
    # every free A2 has its reflection: a ring reflects about its middle column M // 2, a window about
    # its centre; an even ring also has its half-turn.  On 1- and 2-site rings the reflection is the identity.
    N, j0 = 3, M // 2
    a1 = Operator1D(np.random.default_rng(M).uniform(-2.0, 2.0, N))
    a2 = free_operator(M, boundary_m)
    H = dense_hamiltonian(a1, a2)
    symmetries = m_symmetries(N, a2)
    images = [lambda m: M - 1 - m] if boundary_m == "dirichlet" else [lambda m: (2 * j0 - m) % M]
    if boundary_m == "periodic" and M % 2 == 0:
        images.append(lambda m: (m + M // 2) % M)
    assert len(symmetries) == len(images)
    for sym, image in zip(symmetries, images):
        assert sym.tolist() == [n * M + image(m) for n in range(N) for m in range(M)]
        assert np.array_equal(H[np.ix_(sym, sym)], H)
    if boundary_m == "periodic" and M <= 2:
        assert np.array_equal(symmetries[0], np.arange(N * M))


def test_m_mirror_sites_needs_a_mirror_even_m_diagonal():
    assert m_symmetries(2, Operator1D(np.array([1.0, 0.0, 0.0, 1.0]), "periodic")) == ()
    assert m_symmetries(2, Operator1D(np.array([1.0, 0.0, 0.0]), "dirichlet")) == ()
    assert len(m_symmetries(2, Operator1D(np.array([1.0, 0.0, 1.0]), "dirichlet"))) == 1


def test_m_symmetries_drop_the_half_turn_of_a_ring_whose_diagonal_is_not_translation_even():
    # mirror-even about the middle column 2 but not translation-even: the reflection alone
    (reflection,) = m_symmetries(2, Operator1D(np.array([1.0, 0.0, 0.0, 0.0]), "periodic"))
    assert reflection.tolist() == [0, 3, 2, 1, 4, 7, 6, 5]
    # translation-even but not mirror-even about the middle column 3: the half-turn alone
    (half_turn,) = m_symmetries(1, Operator1D(np.array([1.0, 0.0, 2.0, 1.0, 0.0, 2.0]), "periodic"))
    assert half_turn.tolist() == [3, 4, 5, 0, 1, 2]


@pytest.mark.parametrize("M, p", [(16, 2), (24, 4), (32, 4), (36, 6), (48, 8), (64, 8)])
def test_m_symmetries_rotate_a_ring_by_m_over_p(M, p):
    # p is the largest even divisor of M with M/p >= RING_CELL_SITES, or the half-turn's 2
    assert M // p >= RING_CELL_SITES and not any(M % q == 0 and M // q >= RING_CELL_SITES for q in range(p + 2, M, 2))
    N = 2
    a1 = Operator1D(np.random.default_rng(M).uniform(-2.0, 2.0, N), "periodic")
    reflection, rotation = m_symmetries(N, free_operator(M, "periodic"))
    assert reflection.tolist() == [n * M + (2 * (M // 2) - m) % M for n in range(N) for m in range(M)]
    assert rotation.tolist() == [n * M + (m + M // p) % M for n in range(N) for m in range(M)]
    H = dense_hamiltonian(a1, free_operator(M, "periodic"))
    for sym in (reflection, rotation):
        assert np.array_equal(H[np.ix_(sym, sym)], H)


def test_m_symmetries_keep_the_half_turn_of_a_ring_that_is_not_mirror_even():
    # period 6 along m, but not mirror-even about the middle column: D_4 has no reflection to stand on
    (half_turn,) = m_symmetries(1, Operator1D(np.tile([1.0, 2.0, 0.0, 0.0, 0.0, 0.0], 4), "periodic"))
    assert half_turn.tolist() == [(m + 12) % 24 for m in range(24)]


def test_apply_h2d_separates_on_tensor_states():
    rng = np.random.default_rng(3)
    a1 = build_operator_1d(sample_potential(PotentialSpec("constant", amplitude=1.0), (0, 5)))
    a2 = free_operator(7)
    chi = rng.standard_normal(5)
    phi = rng.standard_normal(7)
    out = apply_h2d(np.outer(chi, phi), a1, a2)
    expected = np.outer(a1.apply(chi), phi) + np.outer(chi, a2.apply(phi))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_energy_expectation_is_real_quadratic_form():
    rng = np.random.default_rng(4)
    a1 = free_operator(5)
    a2 = free_operator(5, boundary="periodic")
    amp = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = dense_hamiltonian(a1, a2)
    direct = np.vdot(amp.ravel(), H @ amp.ravel())
    assert abs(direct.imag) < 1e-12
    np.testing.assert_allclose(energy_expectation(amp, a1, a2), direct.real, atol=1e-12)


def test_norm_chain_inequalities():
    # sup <= max_m l2_n <= l2_n of sup_m <= l2 <= l1 on any state
    rng = np.random.default_rng(5)
    for _ in range(20):
        amp = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        chain = norm_chain(amp)
        eps = 1e-12
        assert all(low <= high + eps for low, high in zip(chain, chain[1:]))


def test_value_arrays_are_frozen():
    pot = sample_potential(PotentialSpec("constant", amplitude=1.0), (0, 4))
    assert not pot.flags.writeable
    op = build_operator_1d(pot)
    assert not op.diagonal.flags.writeable


def _array_functions(N, M):
    """Each function of a 2D state, as a call on the N x M array alone."""
    a1 = build_operator_1d(sample_potential(PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.42), (0, N)))
    plan = make_plan(a1, "dft_multiplier", M)
    a2 = plan.a2
    return {
        "apply_h2d": lambda psi: apply_h2d(psi, a1, a2),
        "energy_expectation": lambda psi: energy_expectation(psi, a1, a2),
        "evolve_2d_factorized": lambda psi: evolve_2d_factorized(psi, plan, 1.5),
        "evolve_2d_direct-dense": lambda psi: evolve_2d_direct(psi, a1, a2, 1.5, "dense"),
        "evolve_2d_direct-chebyshev": lambda psi: evolve_2d_direct(psi, a1, a2, 1.5, "chebyshev"),
        "n_fiber_isometry_defect": lambda psi: n_fiber_isometry_defect(plan, psi, 1.5),
        "spreading_moments": lambda psi: spreading_moments(psi),
    }


@pytest.mark.parametrize("name", list(_array_functions(2, 2)))
def test_array_functions_leave_their_input_unchanged(name):
    # a writeable state is the same array afterwards, and a read-only one gives the same result
    call = _array_functions(6, 8)[name]
    rng = np.random.default_rng(12)
    psi = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    kept = psi.copy()
    out = call(psi)
    assert np.array_equal(psi, kept)
    kept.setflags(write=False)
    if isinstance(out, np.ndarray):
        assert not np.shares_memory(out, psi)
        np.testing.assert_array_equal(call(kept), out)
    else:
        assert call(kept) == out


SHAPE_CHECKED = ["apply_h2d", "energy_expectation", "evolve_2d_factorized", "evolve_2d_direct-dense"]


@pytest.mark.parametrize("name", [*SHAPE_CHECKED, "evolve_2d_direct-chebyshev"])
@pytest.mark.parametrize("shape", [(8, 6), (48,), (6, 8, 1)])
def test_array_functions_refuse_a_state_off_the_operators_shape(name, shape):
    # the shape check is all that stands between a wrong array and a broadcast: transposed, flat, 3D
    call = _array_functions(6, 8)[name]
    with pytest.raises(ValueError, match=r"state shape \(.*\) does not match"):
        call(np.zeros(shape, dtype=complex))
