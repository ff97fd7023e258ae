"""Self-test of the benchmark; exits non-zero on any failure.

Usage, from the repository root (about two minutes):

    python3 perfbench/selftest.py

1. Smoke: every workload runs at tiny sizes with --trace 0 and --trace 1;
   the last stdout line must be correct and name exactly the metrics and
   units that BENCHMARK.json lists.
2. Corrupted artifact: one tiny trajectory experiment whose binary snapshot
   file is cut short before its gate runs must count as a failure.
3. Bare directory: run.py next to nothing but BENCHMARK.json and perfbench/
   must exit non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"not correct: {done.stderr.strip()[-300:]}")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: metric.get("unit") for name, metric in result.get("metrics", {}).items()}
    if got != want:
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want)) or 'units'}")
    if not trace and not all(metric["value"] > 0 for metric in result["metrics"].values()):
        errors.append("an end-to-end metric is not positive")
    return errors


def corrupted_artifact() -> list[str]:
    def truncate(steps):
        path = steps[1].out / "trajectory.bin"
        path.write_bytes(path.read_bytes()[:-16])

    runner = run.Runner("trajectory", 1, 0, smoke=True)
    clean = runner.experiment()
    broken = runner.experiment(tamper=truncate)
    runner.cleanup()
    fail_ratio = run.fail_ratio([clean, broken])
    errors = []
    if not clean.ok:
        errors.append(f"untouched experiment failed: {clean.failures}")
    if broken.ok or fail_ratio != 0.5:
        errors.append(f"truncated trajectory.bin not counted: fail_ratio {fail_ratio}")
    return errors


def bare_directory() -> list[str]:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"exit code {done.returncode}, stdout {done.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    checks = [(f"smoke {w} trace={t}", lambda w=w, t=t: smoke(w, t)) for w in run.WORKLOADS for t in (0, 1)]
    checks += [("corrupted artifact", corrupted_artifact), ("bare directory", bare_directory)]
    failed = 0
    for name, check in checks:
        errors = check()
        failed += bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}" + "".join(f"\n     {e}" for e in errors), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
