"""The benchmark's span tracer and library step still run against the package.

perfbench/traced_step.py wraps chainlab's layer functions and reads work
counts off their bound arguments (``evolve_2d_direct``'s ``state`` and
``method``, ``evolve_1d_eigen``'s ``es`` and ``chi`` on ``make_plan``'s
``es1``, and each ``datafiles.write_*``'s ``path``), and
perfbench/library_step.py calls ``convolve_measures`` itself, so a rename
in the package fails here before it breaks a benchmark run or zeroes a
per-layer metric.  The steps run with bytecode writing off, leaving no
__pycache__ beside the benchmark.
"""
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chainlab import datafiles
from chainlab.evolution import evolve_2d_direct
from chainlab.operators import delta_state, free_operator

ROOT = Path(__file__).resolve().parent.parent
TRACED_STEP = ROOT / "perfbench" / "traced_step.py"
LIBRARY_STEP = ROOT / "perfbench" / "library_step.py"


def _run_step(tmp_path, *argv: str) -> None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _traced_spans(tmp_path, command: str, *args: str) -> dict:
    # decay-fit sizes its m-ring to the light cone itself: an --M of 4 would wrap by t = 40
    sizes = ("--N", "4") if command == "decay-fit" else ("--N", "4", "--M", "4")
    spans = tmp_path / "spans.json"
    _run_step(tmp_path, str(TRACED_STEP), str(spans), "cli", command, *sizes, *args, "--out", "out")
    return json.loads(spans.read_text())


def test_library_step_runs_at_the_self_test_sizes(tmp_path):
    sizes = ("--sites", "16", "--bins", "64", "--bins2", "40")  # the self-test's sizes
    _run_step(tmp_path, str(LIBRARY_STEP), *sizes, "--seed", "1", "--out", "out")
    report = json.loads((tmp_path / "out" / "library.json").read_text())
    assert report["atom_density"]["atoms"] == 16 and report["density_density"]["atoms"] == 0
    assert all(case["mass_defect"] <= 1e-10 for case in report.values())


@pytest.mark.parametrize(
    "command, layer",
    [("verify", "evolution.evolve_2d_direct"), ("convolve", "spectral.convolve_measures")],
)
def test_traced_command_exits_0_with_its_layer_spans(tmp_path, command, layer):
    # verify's propagator check calls evolve_2d_direct; convolve calls no propagator, so its span is the convolution
    result = _traced_spans(tmp_path, command)
    assert result["exit_code"] == 0
    names = [span[0] for span in result["spans"]]
    assert names[0] == "cli.main" and layer in names
    if command == "verify":
        direct = [span for span in result["spans"] if span[0] == "evolution.evolve_2d_direct"]
        assert len(direct) == 3  # one per check time, on the Chebyshev route


@pytest.mark.parametrize("binary", [False, True], ids=["csv", "binary"])
def test_traced_evolve_counts_the_bytes_of_its_trajectory(tmp_path, binary):
    # the tracer reads each datafiles.write_* call's `path` argument, so a renamed one fails here
    (tmp_path / "evolve.cfg").write_text(f"[output]\nbinary_snapshots = {str(binary).lower()}\n")
    result = _traced_spans(tmp_path, "evolve", "--config", "evolve.cfg", "--tmax", "1")
    assert result["exit_code"] == 0
    written = [span[4]["datafiles.bytes"] for span in result["spans"] if span[0] == "datafiles.write"]
    files = ("trajectory.bin" if binary else "trajectory.csv", "conservation.json")
    assert written == [(tmp_path / "out" / name).stat().st_size for name in files]


def test_traced_decay_fit_counts_its_n_sweep_flops(tmp_path):
    # the dispersion workload's command: the tracer keys the n-sweep count on make_plan's .es1 and reads
    # evolve_1d_eigen's es and chi, so a renamed field or parameter fails here
    result = _traced_spans(tmp_path, "decay-fit", "--tmax", "40")
    assert result["exit_code"] == 0
    counts = [span[4] for span in result["spans"] if span[0] == "evolution.evolve_1d_eigen"]
    assert counts and all(count["evolution.n_sweep.gflop"] > 0 for count in counts)


def _load_traced_step(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no __pycache__ beside the benchmark
    spec = importlib.util.spec_from_file_location("traced_step", TRACED_STEP)
    traced_step = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_step)
    return traced_step


# LAYERS names that the package no longer defines: their per-layer metrics read 0 until the tracer drops them
RETIRED_LAYERS = {"operators.hamiltonian_2d_dense", "spectral.dense_eigensystem", "diagnostics.n_fiber_isometry_defect"}

# the parameters Tracer._attrs reads off each layer's bound arguments
READ_PARAMETERS = {
    "evolution.evolve_2d_direct": {"state", "method"},
    "evolution.evolve_1d_eigen": {"es", "chi"},
    "evolution.evolve_free_1d": {"method"},
    "spectral.convolve_measures": {"mu", "nu"},
    "diagnostics.lyapunov_scan": {"L", "energies"},
}


def test_tracer_layers_and_the_parameters_it_reads_exist(monkeypatch):
    # a renamed layer or parameter would silently zero its per-layer metric; only the three retired names miss
    traced_step = _load_traced_step(monkeypatch)
    missing = set()
    for module, names in traced_step.LAYERS.items():
        mod = importlib.import_module(f"chainlab.{module}")
        missing |= {f"{module}.{name}" for name in names if not inspect.isfunction(getattr(mod, name, None))}
    assert missing == RETIRED_LAYERS
    for layer, parameters in READ_PARAMETERS.items():
        module, name = layer.split(".")
        fn = getattr(importlib.import_module(f"chainlab.{module}"), name)
        assert parameters <= set(inspect.signature(fn).parameters), layer
    writers = [getattr(datafiles, name) for name in dir(datafiles) if name.startswith("write_")]
    assert writers and all("path" in inspect.signature(write).parameters for write in writers)


def test_tracer_counts_the_dense_route_of_evolve_2d_direct(monkeypatch):
    # no command takes the dense route, so its work count is read here: _attrs binds state and method by name
    tracer = _load_traced_step(monkeypatch).Tracer()
    traced = tracer.wrap("evolution.evolve_2d_direct", evolve_2d_direct)
    traced(delta_state(4, 4), free_operator(4), free_operator(4, "periodic"), 1.0)
    traced(state=delta_state(4, 4), a1=free_operator(4), a2=free_operator(4), t=1.0, method="chebyshev")
    assert [span[4] for span in tracer.spans] == [{"spectral.dense_eigh.n": 16}, None]
