"""Importing chainlab loads none of scipy.interpolate, scipy.special, scipy.linalg.

Every CLI command runs in a fresh process, and those scipy packages take
longer to import than all of chainlab, so the code that needs them
(quasiperiodic profiles, dirichlet chains longer than NUMPY_EIGH_SITES)
imports them where it uses them.  The free m-factor needs none of them: its
eigenbasis is closed form and its Bessel values come from a numpy
recurrence, so decay-fit runs on numpy alone, and the dense measure oracle
uses numpy's eigh.

The API holds what the commands run: a census runs every command in-process
under sys.setprofile and names each public function, method or property
that none of them entered, but for four exempt names, each with its reason.
"""
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("operators", "spectral", "evolution", "diagnostics", "config", "datafiles", "verify", "cli")
DEFERRED = ("scipy.interpolate", "scipy.special", "scipy.linalg")
IID = ["--family", "random_iid", "--amplitude", "2", "--seed", "7"]


def _run(code: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def _loaded_after(argv, cwd, modules) -> str:
    """'<exit code> <modules among `modules` loaded>' after one CLI command in a fresh process."""
    code = (
        f"import sys\nfrom chainlab.cli import main\nrc = main({argv!r})\n"
        f"print(rc, [m for m in {modules!r} if m in sys.modules])\n"
    )
    return _run(code, cwd).splitlines()[-1]


def test_importing_every_module_defers_slow_scipy_packages():
    code = "".join(f"import chainlab.{m}\n" for m in MODULES)
    code += f"import sys\nprint(sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    assert _run(code, ROOT) == "[]"


def test_importing_the_package_loads_no_module():
    # numpy loads at a command's first import, so `chainlab --help` and argument errors never load it
    code = "import sys\nimport chainlab\nprint(sorted(m for m in sys.modules if m.startswith(('chainlab.', 'numpy'))))\n"
    assert _run(code, ROOT) == "[]"


def _public_members():
    """(module, label, member) for each public name a module defines, and for each public attribute of such a
    class (label Class.attr)."""
    for module in MODULES:
        mod = importlib.import_module(f"chainlab.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield module, name, obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    if not attr.startswith("_"):
                        yield module, f"{name}.{attr}", getattr(obj, attr)


def test_public_api_takes_no_tolerance_but_two():
    # each rule reads its one module constant (spectral.ATOM_MERGE_TOL, evolution.CHEB_TOL, ...)
    # at call time, and convolve_measures always bins on its default grid.  It keeps mass_tol, which the
    # benchmark's library step sets to 1e-12; CheckResult.tolerance is a field of verify's report, not a setting
    found = []
    for _, label, member in _public_members():
        try:
            params = inspect.signature(member).parameters
        except (TypeError, ValueError):  # not callable, or a built-in exception's constructor
            continue
        found += [f"{label}({p})" for p in params if "tol" in p or p in ("bins", "grid")]
    assert sorted(found) == ["CheckResult(tolerance)", "convolve_measures(mass_tol)"]


# public functions that no command runs, each kept for its reason
CENSUS_EXEMPT = {
    "datafiles.read_potential_csv": "the documented reader of potential.csv",
    "datafiles.read_measure_csv": "the documented reader of a measure CSV",
    "datafiles.read_trajectory_binary": "the documented reader of trajectory.bin",
    "config.write_config": "writes the config a run read, for its run manifest (ROADMAP item 13)",
}


def _code(member):
    """The code object a call of a public function, method or property runs; None for anything else."""
    func = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
    return getattr(inspect.unwrap(func), "__code__", None)  # unwrap: naming is a contextmanager


def test_every_public_function_is_run_by_a_command(tmp_path, monkeypatch):
    # the API holds what the commands run: the six commands (every m_method, both snapshot formats, a chain
    # past NUMPY_EIGH_SITES) and the benchmark's library step between them enter every public function,
    # method and property but the exempt ones.  A class with no public method (an exception, a record) adds none
    from chainlab.cli import main
    from chainlab.evolution import M_METHODS

    labels = {}
    for module, label, member in _public_members():
        code = _code(member)
        if code is not None and f"{module}.{label}" not in CENSUS_EXEMPT:
            labels[code] = f"{module}.{label}"
    monkeypatch.chdir(tmp_path)
    configs = {method: f"[lattice]\nm_method = {method}\n" for method in M_METHODS}
    configs["times"] = "[lattice]\nm_method = eigen\n[time]\ntimes = " + ", ".join(map(str, range(20, 70, 5))) + "\n"
    configs["binary"] = "[output]\nbinary_snapshots = true\n"
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    runs = [
        ["spectrum", "--N", "16"],
        ["spectrum", "--N", "600"],  # past NUMPY_EIGH_SITES: scipy's eigh_tridiagonal
        ["convolve", "--N", "8", "--M", "8", *IID],
        ["evolve", "--N", "4", "--M", "8", "--tmax", "1"],
        ["evolve", "--config", "binary.cfg", "--N", "4", "--M", "8", "--tmax", "1"],
        *(["decay-fit", "--config", f"{m}.cfg", "--N", "8", "--tmax", "40"] for m in M_METHODS),
        ["decay-fit", "--config", "times.cfg", "--N", "8"],
        ["lyapunov", "--length", "1000", "--count", "2"],
        *(["verify", "--config", f"{m}.cfg", "--N", "8", "--M", "64"] for m in M_METHODS),  # 64: wrap-free to t = 5
    ]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the library step imports its workloads module
    spec = importlib.util.spec_from_file_location("library_step", ROOT / "perfbench" / "library_step.py")
    library_step = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(library_step)

    entered, previous = set(), sys.getprofile()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code))
    try:
        exits = [main([*argv, "--out", f"out{k}"]) for k, argv in enumerate(runs)]
        library = ["--sites", "16", "--bins", "64", "--bins2", "40", "--seed", "1", "--out", "lib"]  # self-test sizes
        exits.append(library_step.main(library))
    finally:
        sys.setprofile(previous)
    assert exits == [0] * len(exits)
    assert sorted(label for code, label in labels.items() if code not in entered) == []


def test_no_module_imports_scipy_special():
    pattern = re.compile(r"^\s*(from|import)\s+scipy\.special\b|^\s*from\s+scipy\s+import\s+.*\bspecial\b", re.M)
    hits = [p.name for p in sorted((ROOT / "src" / "chainlab").glob("*.py")) if pattern.search(p.read_text())]
    assert hits == []


@pytest.mark.parametrize(
    "m_method, extra",
    [("dft_multiplier", []), ("bessel_kernel", []), ("eigen", ["--M", "1024"])],
    ids=["dft_multiplier", "bessel_kernel", "eigen"],
)
def test_decay_fit_runs_on_numpy_alone(tmp_path, m_method, extra):
    # the eigen step at M = 1024 once solved the free window with scipy's eigh_tridiagonal,
    # and the bessel step took J from scipy.special.jv
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[lattice]\nm_method = {m_method}\n")
    argv = ["decay-fit", "--config", str(cfg), "--N", "16", "--tmax", "40", *extra, "--out", "d"]
    assert _loaded_after(argv, tmp_path, ("scipy.linalg", "scipy.special")) == "0 []"


def test_short_chain_commands_never_load_scipy_linalg(tmp_path):
    # the free chain (a one-site chain) and verify at these sizes need only chains of
    # at most NUMPY_EIGH_SITES sites; convolve's dense oracle solves sectors of
    # H's m-axis symmetries with numpy's eigh, on a ring and on an even dirichlet window
    (tmp_path / "eigen.cfg").write_text("[lattice]\nm_method = eigen\n")
    commands = {
        "decay-fit-free-chain": ["decay-fit", "--tmax", "40", "--out", "f"],
        "verify": ["verify", "--N", "16", "--M", "16", "--out", "v"],
        "convolve": ["convolve", "--N", "8", "--M", "8", "--out", "c"],
        "convolve-eigen": ["convolve", "--config", "eigen.cfg", "--N", "8", "--M", "8", "--out", "e"],
    }
    loaded = {name: _loaded_after(argv, tmp_path, ("scipy.linalg",)) for name, argv in commands.items()}
    assert loaded == dict.fromkeys(commands, "0 []")


@pytest.mark.parametrize(
    "argv",
    [
        ["decay-fit", "--N", "8", "--tmax", "40"],
        ["spectrum", "--N", "8"],
        ["evolve", "--N", "4", "--M", "8", "--tmax", "1"],
        ["lyapunov", "--length", "1000", "--count", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_verify_check_leave_verify_unloaded(tmp_path, argv):
    # CheckFailure lives in cli, so only convolve and verify load chainlab.verify
    assert _loaded_after(argv + ["--out", "o"], tmp_path, ("chainlab.verify",)) == "0 []"


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--N", "8"], ["convolve", "--N", "8", "--M", "8"], ["verify", "--N", "8", "--M", "8"]],
    ids=lambda argv: argv[0],
)
def test_commands_without_a_decay_trace_leave_diagnostics_unloaded(tmp_path, argv):
    # datafiles names DecayTrace and DecayFit in annotations only
    assert _loaded_after(argv + ["--out", "o"], tmp_path, ("chainlab.diagnostics",)) == "0 []"



@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--N", "16", *IID],
        ["convolve", "--N", "8", "--M", "8", *IID],
        ["evolve", "--N", "4", "--M", "8", "--tmax", "1", *IID],
        ["decay-fit", "--N", "8", "--tmax", "40", *IID],
        ["lyapunov", "--length", "1000", "--count", "2", *IID],
        ["verify", "--N", "8", "--M", "8", "--family", "almost_mathieu", "--amplitude", "3", "--seed", "7"],
    ],
    ids=lambda argv: argv[0],
)
def test_random_iid_commands_leave_numpy_random_unloaded(tmp_path, argv):
    # a random_iid value is a hash of (seed, n) in uint64 arithmetic, with no generator; verify, run
    # as the benchmark runs it, draws its random test vectors from the same hash, keyed by --seed
    assert _loaded_after(argv + ["--out", "o"], tmp_path, ("numpy.random",)) == "0 []"
