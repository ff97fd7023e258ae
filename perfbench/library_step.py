"""Library-only crosscheck step: two convolutions that bin masses onto a grid.

1. atom x density: the origin measure of a random chain (one atom per
   eigenvalue) convolved with the free-chain arcsine law on ``--bins`` bins;
2. density x density: that law on ``--bins`` bins convolved with the same
   law on ``--bins2`` bins, so the bin widths differ.

The arcsine law 1/(pi sqrt(4 - E^2)) on [-2, 2] is the local measure of the
free chain; its bins carry the exact masses of its distribution function
1/2 + arcsin(E/2)/pi.  Writes ``library.json`` with each mass defect
|mass(mu * nu) - mass(mu) mass(nu)|; any mass falling off the grid beyond
LOST_MASS_TOL raises, so the step exits non-zero.

The random potential has half-width IID_AMPLITUDE, as in the crosscheck
``convolve`` step.

Usage: python3 perfbench/library_step.py --sites 64 --bins 512 --bins2 300
       --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
import os

from workloads import IID_AMPLITUDE

LOST_MASS_TOL = 1e-12


def arcsine_law(bins: int):
    import numpy as np

    from chainlab.spectral import SpectralMeasure

    edges = np.linspace(-2.0, 2.0, bins + 1)
    masses = np.diff(0.5 + np.arcsin(np.clip(edges / 2.0, -1.0, 1.0)) / np.pi)
    return SpectralMeasure(np.empty(0), np.empty(0), grid_edges=edges, density=masses / np.diff(edges))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, required=True)
    parser.add_argument("--bins", type=int, required=True)
    parser.add_argument("--bins2", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import numpy as np

    from chainlab.operators import PotentialSpec, build_operator_1d, sample_potential
    from chainlab.spectral import convolve_measures, eigh_tridiagonal, spectral_measure_1d

    half = args.sites // 2
    spec = PotentialSpec("random_iid", amplitude=IID_AMPLITUDE, seed=args.seed)
    es = eigh_tridiagonal(build_operator_1d(sample_potential(spec, (-half, args.sites - half))))
    chi = np.zeros(args.sites, dtype=complex)
    chi[half] = 1.0
    origin = spectral_measure_1d(es, chi)
    law = arcsine_law(args.bins)

    report = {}
    for case, (mu, nu) in {
        "atom_density": (origin, law),
        "density_density": (law, arcsine_law(args.bins2)),
    }.items():
        conv = convolve_measures(mu, nu, mass_tol=LOST_MASS_TOL)
        report[case] = {
            "atoms": mu.atom_count + nu.atom_count,
            "mass_defect": abs(conv.total_mass() - mu.total_mass() * nu.total_mass()),
        }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "library.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
