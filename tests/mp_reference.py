"""40-digit truth for the 2D delta measure on a small lattice, from mpmath, kept out of the package.

H = A1 (x) I + I (x) A2 with A1 a float chain and A2 the free ring of M
sites.  Its measure at the delta e_i (x) e_j is the product of the two 1D
measures, so the truth needs only A1's eigensystem: mpmath's ``eigsy`` of
A1's float matrix, whose entries are exact in mpmath, carried at DIGITS + 10
digits.  The ring's measure is its closed form, weight 1/M at
-2 cos(2 pi k / M) for each k, whatever the site j.  Atoms whose energies agree
to EXACT_GAP are one atom.
"""
import mpmath

DIGITS = 40
EXACT_GAP = mpmath.mpf(10) ** -DIGITS  # closer atoms are one energy: the ring's k and M - k


def _merged(atoms) -> list[tuple]:
    """(energy, weight) pairs sorted by energy, merged where the gap is at most EXACT_GAP."""
    merged = []
    for energy, weight in sorted(atoms):
        if merged and energy - merged[-1][0] <= EXACT_GAP:
            merged[-1] = (merged[-1][0], merged[-1][1] + weight)
        else:
            merged.append((energy, weight))
    return merged


def delta_measure_2d(a1, i: int, M: int) -> list[tuple]:
    """H's measure at e_i (x) e_(M // 2) as sorted (energy, weight) mpf pairs, to DIGITS digits."""
    with mpmath.workdps(DIGITS + 10):
        lam, vec = mpmath.eigsy(mpmath.matrix(a1.matrix().tolist()))
        chain = [(lam[k], vec[i, k] ** 2) for k in range(a1.size)]
        ring = [(-2 * mpmath.cos(2 * mpmath.pi * k / M), mpmath.mpf(1) / M) for k in range(M)]
        return _merged((e1 + e2, w1 * w2) for e1, w1 in chain for e2, w2 in ring)


def smallest_gap(truth) -> mpmath.mpf:
    """The least distance between two atoms of the truth."""
    return min(b[0] - a[0] for a, b in zip(truth, truth[1:]))


def discrepancy(measure, truth, cluster_gap: float = 1e-8) -> mpmath.mpf:
    """max |measure - truth| over energy clusters of the two atom sets together, in DIGITS-digit arithmetic.

    As spectral.atom_weight_discrepancy, but the float atoms enter exactly and
    the sums are carried in mpmath, so the rounding of the comparison itself
    stays far below the measure's own error.
    """
    with mpmath.workdps(DIGITS + 10):
        atoms = [(mpmath.mpf(float(e)), mpmath.mpf(float(w))) for e, w in zip(measure.energies, measure.weights)]
        atoms = sorted(atoms + [(e, -w) for e, w in truth])
        worst, energy, total = mpmath.mpf(0), None, mpmath.mpf(0)
        for e, w in atoms:
            if energy is not None and e - energy > cluster_gap:
                worst, total = max(worst, abs(total)), mpmath.mpf(0)
            energy, total = e, total + w
        return max(worst, abs(total))
