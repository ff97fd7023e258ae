"""Run one benchmark step in-process with a span around each layer call.

Usage: python3 perfbench/traced_step.py SPANS_JSON cli ARGS...
       python3 perfbench/traced_step.py SPANS_JSON library ARGS...

Imports every chainlab module (timed as ``import_s``), then wraps each
public function named in LAYERS in every chainlab namespace that bound it,
so calls made through ``from .x import f`` are caught as well.  The step
runs as ``chainlab.cli.main(ARGS)`` or ``library_step.main(ARGS)`` under
one root span.  Spans stay in memory and are written to SPANS_JSON when the
step ends; the originals are restored first.  A span is
[name, start, end, parent index, attrs], where attrs holds work counts
computed from the call's argument sizes.
"""
from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import os
import sys
import time

MODULES = ("operators", "spectral", "evolution", "diagnostics", "config", "datafiles", "verify", "cli")

LAYERS = {
    "operators": ("sample_potential", "apply_h2d", "hamiltonian_2d_dense", "energy_expectation"),
    "spectral": (
        "eigh_tridiagonal",
        "dense_eigensystem",
        "spectral_measure_1d",
        "convolve_measures",
        "atom_weight_discrepancy",
    ),
    "evolution": ("evolve_1d_eigen", "evolve_free_1d", "make_plan", "evolve_2d_factorized", "evolve_2d_direct"),
    "diagnostics": (
        "minimal_wrap_free_m",
        "record_decay",
        "fit_decay_exponent",
        "n_fiber_isometry_defect",
        "lyapunov_scan",
        "truncation_energies",
    ),
    "config": ("parse_config_file",),
    "verify": ("run_verification",),
}
WRITE_SPAN = "datafiles.write"  # every datafiles.write_* function
COUNTED = {  # spans whose arguments or result give a work count
    "spectral.dense_eigensystem",
    "spectral.convolve_measures",
    "evolution.evolve_2d_direct",
    "evolution.make_plan",
    "evolution.evolve_1d_eigen",
    "evolution.evolve_free_1d",
    "diagnostics.minimal_wrap_free_m",
    "diagnostics.lyapunov_scan",
    WRITE_SPAN,
}


def _sizes_of_convolution(mu, nu) -> int:
    """Masses binned onto the grid by one convolve_measures call."""
    count = 0
    if nu.density is not None:
        count += mu.atom_count * nu.density.size
    if mu.density is not None:
        count += nu.atom_count * mu.density.size
    if mu.density is not None and nu.density is not None:
        b1, b2 = mu.density.size, nu.density.size
        equal = abs(mu.bin_width - nu.bin_width) <= 1e-12 * mu.bin_width
        count += b1 + b2 - 1 if equal else b1 * b2
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._n_bases: set[int] = set()  # ids of n-direction eigensystems built by make_plan

    # -- work counts, from argument sizes --------------------------------------

    def _attrs(self, name: str, args: dict, result) -> dict | None:
        if name == "spectral.dense_eigensystem":
            return {"spectral.dense_eigh.n": len(args["matrix"])}
        if name == "evolution.evolve_2d_direct" and args["method"] == "dense":
            n, m = args["state"].shape
            return {"spectral.dense_eigh.n": n * m}
        if name == "spectral.convolve_measures":
            return {"spectral.deposits": _sizes_of_convolution(args["mu"], args["nu"])}
        if name == "evolution.make_plan" and result.es1 is not None:
            self._n_bases.add(id(result.es1))
        if name == "evolution.evolve_1d_eigen" and id(args["es"]) in self._n_bases:
            # V^T c and V (phase * c): two real N x N by complex N x K products, 4 N^2 K flops each
            es, chi = args["es"], args["chi"]
            k = chi.size // es.size
            return {"evolution.n_sweep.gflop": 8.0 * es.size**2 * k / 1e9}
        if name == "evolution.evolve_free_1d":
            return {"method": args["method"]}
        if name == "diagnostics.minimal_wrap_free_m":
            return {"diagnostics.wrap_free_m": int(result)}
        if name == "diagnostics.lyapunov_scan":
            return {"diagnostics.transfer_steps": int(args["L"]) * len(args["energies"])}
        if name == WRITE_SPAN:
            return {"datafiles.bytes": os.path.getsize(args["path"])}
        return None

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = self._attrs(name, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        namespaces = [m for n, m in sys.modules.items() if n == "chainlab" or n.startswith("chainlab.")]
        targets = []
        for module, names in LAYERS.items():
            mod = sys.modules[f"chainlab.{module}"]
            targets += [(f"{module}.{n}", getattr(mod, n)) for n in names if hasattr(mod, n)]
        datafiles = sys.modules["chainlab.datafiles"]
        targets += [(WRITE_SPAN, getattr(datafiles, n)) for n in dir(datafiles) if n.startswith("write_")]
        for name, original in targets:
            wrapper = self.wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


def _load_library_step():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "library_step.py")
    spec = importlib.util.spec_from_file_location("library_step", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: list[str]) -> int:
    spans_path, kind, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    for name in MODULES:
        importlib.import_module(f"chainlab.{name}")
    entry = sys.modules["chainlab.cli"].main if kind == "cli" else _load_library_step().main
    import_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = tracer.wrap("cli.main" if kind == "cli" else "bench.library", entry)(args)
    finally:
        tracer.restore()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit_code": rc, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
