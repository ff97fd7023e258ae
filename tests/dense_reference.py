"""Full-matrix references for the package's routes, kept out of the package.

The package never forms the N*M x N*M matrix of H: its dense routes solve
H's symmetry sectors from the stencil entries.  Tests that want all of H,
or numpy's eigh of all of it, to compare against build them here, and
record_eigh_rows logs eigh's inputs to show that no route gives it all of H.
Nor does it form the free chain's M x M basis: free_delta_measure reads one
row of it, and free_eigensystem writes all of it down for the tests.
"""
import numpy as np

from chainlab.operators import hamiltonian_2d_entries
from chainlab.spectral import EigenSystem, _free_basis_rows


def dense_hamiltonian(a1, a2) -> np.ndarray:
    """The (N*M, N*M) matrix of H: the scatter of hamiltonian_2d_entries, entries at one position added."""
    sites = a1.size * a2.size
    rows, cols, values = hamiltonian_2d_entries(a1, a2)
    return np.bincount(rows * sites + cols, values, sites * sites).reshape(sites, sites)


def full_eigensystem(h: np.ndarray) -> EigenSystem:
    """numpy's eigh of the whole symmetric matrix h."""
    lam, vec = np.linalg.eigh(h)
    return EigenSystem(lam, vec)


def free_eigensystem(op) -> EigenSystem:
    """The free chain op's whole closed-form eigensystem: every row of _free_basis_rows."""
    return EigenSystem(*_free_basis_rows(op, np.arange(op.size)), source=op)


def unit_vector(size: int, site: int) -> np.ndarray:
    """e_site among size sites."""
    vec = np.zeros(size)
    vec[site] = 1.0
    return vec


def record_eigh_rows(monkeypatch) -> list[int]:
    """Patch np.linalg.eigh to log the row count of every matrix it is given; returns the log."""
    rows = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return rows
