"""Importing chainlab loads none of scipy.interpolate, scipy.special, scipy.linalg.

Every CLI command runs in a fresh process, and those scipy packages take
longer to import than all of chainlab, so the code that needs them
(quasiperiodic profiles, Bessel kernels, the Chebyshev propagator, chains
longer than NUMPY_EIGH_SITES, the dense measure oracle) imports them where
it uses them.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("operators", "spectral", "evolution", "diagnostics", "config", "datafiles", "verify", "cli")
DEFERRED = ("scipy.interpolate", "scipy.special", "scipy.linalg")


def _run(code: str, cwd) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_importing_every_module_defers_slow_scipy_packages():
    code = "".join(f"import chainlab.{m}\n" for m in MODULES)
    code += f"import sys\nprint(sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    assert _run(code, ROOT) == "[]"


def test_short_chain_commands_never_load_scipy_linalg(tmp_path):
    # decay-fit (default m_method, dft_multiplier; the free chain is a one-site
    # chain) and verify at these sizes need only chains of at most
    # NUMPY_EIGH_SITES sites; convolve's dense oracle needs LAPACK's dsytrd
    commands = {
        "decay-fit": ["decay-fit", "--N", "16", "--tmax", "40", "--out", "d"],
        "decay-fit-free-chain": ["decay-fit", "--tmax", "40", "--out", "f"],
        "verify": ["verify", "--N", "16", "--M", "16", "--out", "v"],
        "convolve": ["convolve", "--N", "8", "--M", "8", "--out", "c"],
    }
    loaded = {}
    for name, argv in commands.items():
        code = f"import sys\nfrom chainlab.cli import main\nrc = main({argv!r})\nprint(rc, 'scipy.linalg' in sys.modules)\n"
        loaded[name] = _run(code, tmp_path).splitlines()[-1]
    assert loaded == {
        "decay-fit": "0 False", "decay-fit-free-chain": "0 False", "verify": "0 False", "convolve": "0 True"
    }
