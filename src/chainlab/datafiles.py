"""On-disk formats: CSV for tables, JSON for reports, one binary snapshot format.

Every CSV file goes through one row writer (stdlib csv, "\n" line ends)
that takes its columns through .tolist(), so floats print by repr (the
shortest round-trip form) and rows keep a fixed order: identical inputs
produce byte-identical files.  The readers parse through csv.reader, the
writer's dialect, and name the line of any row they refuse.

A trajectory is a list of N x M state arrays, one per time, with the
window start (n0, m0), the physical site of index (0, 0), passed beside
them: the CSV rows and the binary header carry it, and
read_trajectory_binary returns it.  Both writers check, before the file is
opened, that there is one snapshot per time and that all share one shape.

Binary trajectory layout (little endian):
    8s  magic  b"CHAINLB1"
    I   version (1)
    I   dtype tag (1 = complex128)
    Q Q Q   T, N, M
    q q     n0, m0
    T float64 times, then T*N*M complex128 amplitudes, row-major (t, n, m).
"""
from __future__ import annotations

import csv
import json
import os
import struct

import numpy as np

from .diagnostics import DecayFit, DecayTrace
from .operators import Potential1D
from .spectral import SpectralMeasure

MAGIC = b"CHAINLB1"
_HEADER = struct.Struct("<8sII3Q2q")


def _rows(*columns):
    """The rows of equal-length columns, as Python ints, floats and strings."""
    return zip(*(np.asarray(c).tolist() for c in columns))


def _write_csv(path, header: str, rows) -> None:
    """The one CSV row writer: the comma-separated header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def write_potential_csv(potential: Potential1D, path) -> None:
    _write_csv(path, "n,V", _rows(range(potential.n0, potential.n0 + potential.size), potential.values))


def _read_csv(path, header: str, parse) -> list:
    """parse(fields) of each row of a file the row writer wrote under header.

    The rows go through csv.reader, the writer's dialect; a blank or short
    row, or one that parse refuses, raises ValueError naming its line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, [])
        if found != header.split(","):
            raise ValueError(f"unexpected header {','.join(found)!r} in {path}, expected {header!r}")
        out = []
        for fields in reader:
            try:
                if len(fields) != len(found):
                    raise ValueError(f"{len(fields)} fields, expected {len(found)}")
                out.append(parse(*fields))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return out


def read_potential_csv(path) -> Potential1D:
    rows = _read_csv(path, "n,V", lambda n, v: (int(n), float(v)))
    if not rows:
        raise ValueError("empty potential file")
    ns, vs = zip(*rows)
    if ns != tuple(range(ns[0], ns[0] + len(ns))):
        raise ValueError("potential sites must be contiguous")
    return Potential1D(np.array(vs), n0=ns[0])


def write_eigenvalues_csv(eigenvalues: np.ndarray, path) -> None:
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    _write_csv(path, "k,energy", _rows(range(eigenvalues.size), eigenvalues))


def write_measure_csv(measure: SpectralMeasure, path) -> None:
    """Rows: kind (atom|bin), energy (atom energy or bin left edge), weight re/im.

    Bin rows carry the integrated bin mass (density value times width).
    """
    if measure.density is not None and measure.density.size < 2:
        raise ValueError("cannot write a one-bin density: its bin row does not give the grid's width")
    w = measure.weights
    rows = list(_rows(np.full(w.size, "atom"), measure.energies, w.real, w.imag))
    if measure.density is not None:
        mass = measure.density * measure.bin_width
        rows += _rows(np.full(mass.size, "bin"), measure.grid_edges[:-1], mass.real, mass.imag)
    _write_csv(path, "kind,energy,weight_re,weight_im", rows)


def _measure_row(kind, energy, re, im):
    if kind not in ("atom", "bin"):
        raise ValueError(f"unknown row kind {kind!r}")
    return kind, float(energy), complex(float(re), float(im))


def read_measure_csv(path) -> SpectralMeasure:
    atoms_e, atoms_w, bins_e, bins_m = [], [], [], []
    for kind, energy, weight in _read_csv(path, "kind,energy,weight_re,weight_im", _measure_row):
        energies, weights = (atoms_e, atoms_w) if kind == "atom" else (bins_e, bins_m)
        energies.append(energy)
        weights.append(weight)
    edges = density = None
    if bins_e:
        if len(bins_e) < 2:
            raise ValueError("cannot infer the grid from a single bin")
        width = bins_e[1] - bins_e[0]
        edges = np.array(bins_e + [bins_e[-1] + width])
        density = np.array(bins_m) / width
    return SpectralMeasure(np.array(atoms_e), np.array(atoms_w), grid_edges=edges, density=density)


def _snapshot_shape(times, states) -> tuple[int, int]:
    """The (N, M) of a trajectory's snapshots: one per time, all of one 2D shape, or ValueError."""
    if len(states) != len(times) or not states:
        raise ValueError(f"need one state per time, got {len(states)} states for {len(times)} times")
    shape = np.shape(states[0])
    if len(shape) != 2 or any(np.shape(s) != shape for s in states):
        raise ValueError("all snapshots must share one N x M shape")
    return shape


def write_trajectory_csv(times, states, start, path) -> None:
    """One row per site of each N x M snapshot; start = (n0, m0) is the site of index (0, 0)."""
    N, M = _snapshot_shape(times, states)
    n0, m0 = start
    m = np.arange(m0, m0 + M)

    def rows():  # row-major (n, m), one line of fixed n at a time
        for t, state in zip(times, states):
            t_col = np.full(M, t, dtype=float)
            for n, amp in zip(range(n0, n0 + N), state):
                yield from _rows(t_col, np.full(M, n), m, amp.real, amp.imag)

    _write_csv(path, "t,n,m,re,im", rows())


def write_trajectory_binary(times, states, start, path) -> None:
    """The binary layout above; start = (n0, m0) is the site of index (0, 0)."""
    times = np.asarray(times, dtype=float)
    N, M = _snapshot_shape(times, states)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, 1, 1, times.size, N, M, *start))
        fh.write(times.astype("<f8").tobytes())
        for state in states:
            fh.write(np.asarray(state, dtype="<c16").tobytes())


def read_trajectory_binary(path) -> tuple[np.ndarray, list[np.ndarray], tuple[int, int]]:
    """The times, the N x M snapshots and the start (n0, m0) of a trajectory file.

    ValueError unless the file has exactly the 56 + 8 T + 16 T N M bytes its header gives.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise ValueError(f"trajectory file is cut: {size} bytes, fewer than the {_HEADER.size}-byte header")
        magic, version, dtype_tag, T, N, M, n0, m0 = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != 1 or dtype_tag != 1:
            raise ValueError(f"unsupported version/dtype ({version}, {dtype_tag})")
        expected = _HEADER.size + 8 * T + 16 * T * N * M
        if size != expected:
            raise ValueError(f"trajectory file of {T} snapshots of {N}x{M} sites needs {expected} bytes, has {size}")
        times = np.frombuffer(fh.read(8 * T), dtype="<f8")
        states = list(np.frombuffer(fh.read(16 * T * N * M), dtype="<c16").reshape(T, N, M))
    return times, states, (n0, m0)


def write_trace_csv(trace: DecayTrace, path) -> None:
    columns = (trace.times, trace.sup_norms, trace.l2n_supm, trace.supm_l2n, trace.l2_norms, trace.energies)
    _write_csv(path, "t,sup_norm,l2n_supm,supm_l2n,l2_norm,energy", _rows(*columns))


def write_fit_json(fit: DecayFit, path, **extra) -> None:
    """The fit, plus any extra keys describing the run (drifts, grid size)."""
    payload = {
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "residual": fit.residual,
        "window": [fit.t_lo, fit.t_hi],
        "n_samples": fit.n_samples,
        **extra,
    }
    write_json(payload, path)


def write_lyapunov_csv(energies, gammas, L: int, path) -> None:
    energies = np.asarray(energies, dtype=float)
    _write_csv(path, "energy,gamma,L", _rows(energies, np.asarray(gammas, dtype=float), np.full(energies.size, L)))


def write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")
