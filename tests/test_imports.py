"""Importing chainlab loads neither scipy.interpolate nor scipy.special.

Every CLI command runs in a fresh process, and those two scipy packages
take longer to import than all of chainlab, so the code that needs them
(quasiperiodic profiles, Bessel kernels, the Chebyshev propagator) imports
them where it uses them.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("operators", "spectral", "evolution", "diagnostics", "config", "datafiles", "verify", "cli")
DEFERRED = ("scipy.interpolate", "scipy.special")


def test_importing_every_module_defers_slow_scipy_packages():
    code = "".join(f"import chainlab.{m}\n" for m in MODULES)
    code += f"import sys\nprint(sorted(m for m in {DEFERRED!r} if m in sys.modules))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
