"""On-disk formats: CSV for tables, JSON for reports, one binary snapshot format.

Every CSV file goes through one row writer (stdlib csv, "\n" line ends)
that takes its columns through .tolist(), so floats print by repr (the
shortest round-trip form) and rows keep a fixed order: identical inputs
produce byte-identical files.  The readers parse through csv.reader, the
writer's dialect, and name the line of any row they refuse.

A potential is its values with n0, the site of the first, passed beside
them; read_potential_csv returns the pair and refuses non-finite values.

A measure file holds one row per atom under the header energy,weight: every
measure a command writes is atomic and real, so write_measure_csv refuses a
measure with a density, and read_measure_csv refuses any other header.

A trajectory is written as it is computed: the writers refuse no times
before they open the file, call state_at(t) once per time, in order, write
each N x M state and drop it before they ask for the next, and refuse one
not of the first one's shape as it arrives.  The window start (n0, m0), the
site of index (0, 0), is passed beside them: the CSV rows and the binary
header carry it, and read_trajectory_binary returns it.

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


def write_potential_csv(values, n0: int, path) -> None:
    _write_csv(path, "n,V", _rows(range(n0, n0 + len(values)), values))


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


def read_potential_csv(path) -> tuple[np.ndarray, int]:
    rows = _read_csv(path, "n,V", lambda n, v: (int(n), float(v)))
    if not rows:
        raise ValueError("empty potential file")
    ns, vs = zip(*rows)
    if ns != tuple(range(ns[0], ns[0] + len(ns))):
        raise ValueError("potential sites must be contiguous")
    if not np.all(np.isfinite(vs)):
        raise ValueError("potential values must be finite (l-infinity potentials only)")
    return np.array(vs), ns[0]


def write_eigenvalues_csv(eigenvalues: np.ndarray, path) -> None:
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    _write_csv(path, "k,energy", _rows(range(eigenvalues.size), eigenvalues))


def write_measure_csv(measure: SpectralMeasure, path) -> None:
    """One energy,weight row per atom; a measure with a density is refused."""
    if measure.density is not None:
        raise ValueError("cannot write a measure with a density: a measure file holds atom rows only")
    _write_csv(path, "energy,weight", _rows(measure.energies, measure.weights))


def read_measure_csv(path) -> SpectralMeasure:
    rows = _read_csv(path, "energy,weight", lambda energy, weight: (float(energy), float(weight)))
    return SpectralMeasure(*np.reshape(rows, (-1, 2)).T)


def _times(times) -> np.ndarray:
    """The times as float64; ValueError for none, as a trajectory holds at least one snapshot."""
    if len(times) == 0:
        raise ValueError("a trajectory needs at least one time")
    return np.asarray(times, dtype=float)


def _snapshots(times, state_at):
    """(t, state_at(t)) for each time, in order; ValueError, as it arrives, for one not N x M like the first."""
    shape = None
    for t in times:
        state = np.asarray(state_at(t), dtype="<c16", order="C")
        shape = shape or state.shape
        if len(shape) != 2 or state.shape != shape:
            raise ValueError(f"all snapshots must share one N x M shape: {state.shape} at t = {t:g}")
        yield t, state
        del state


def write_trajectory_csv(times, state_at, start, path) -> None:
    """One row per site of each N x M snapshot state_at(t); start = (n0, m0) is the site of index (0, 0)."""
    n0, m0 = start
    times = _times(times)

    def rows():  # row-major (n, m), one line of fixed n at a time
        for t, state in _snapshots(times, state_at):
            N, M = state.shape
            m, t_col = np.arange(m0, m0 + M), np.full(M, t, dtype=float)
            for n in range(N):
                yield from _rows(t_col, np.full(M, n0 + n), m, state[n].real, state[n].imag)
            del state

    _write_csv(path, "t,n,m,re,im", rows())


def write_trajectory_binary(times, state_at, start, path) -> None:
    """The binary layout above, N x M from the first snapshot; start = (n0, m0) is the site of index (0, 0)."""
    times = _times(times)
    with open(path, "wb") as fh:
        for _, state in _snapshots(times, state_at):
            if fh.tell() == 0:  # the header, once the first state gives N x M
                fh.write(_HEADER.pack(MAGIC, 1, 1, times.size, *state.shape, *start))
                fh.write(times.astype("<f8").data)
            fh.write(state.data)  # C-contiguous <c16: written with no copy
            del state


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


def write_trace_csv(trace, path) -> None:
    """The columns of a diagnostics.DecayTrace, the mixed norm under both of its headers."""
    columns = (trace.times, trace.sup_norms, trace.mixed_norms, trace.mixed_norms, trace.l2_norms, trace.energies)
    _write_csv(path, "t,sup_norm,l2n_supm,supm_l2n,l2_norm,energy", _rows(*columns))


def write_lyapunov_csv(energies, gammas, L: int, path) -> None:
    energies = np.asarray(energies, dtype=float)
    _write_csv(path, "energy,gamma,L", _rows(energies, np.asarray(gammas, dtype=float), np.full(energies.size, L)))


def write_json(payload, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")
