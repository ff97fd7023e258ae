"""chainlab benchmark: seeded experiments, timed end to end, with a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client runs experiments back to back.
An experiment is the workload's fixed sequence of steps (workloads.py), and
each step is a fresh Python process, as a CLI user pays import and start-up
on every command.  Each child gets PYTHONPATH=src and BLAS/OpenMP pools
pinned to the number of usable cores.

--trace 0 runs experiments until the next one would end after --seconds
(at least MIN_EXPERIMENTS) and reports
    wall_s       median wall time of one experiment (sample count = attempted)
    setup_s      median wall time of a fresh process importing every chainlab
                 module the steps load, over SETUP_REPEATS processes
    peak_rss_mb  median over experiments of the largest step ru_maxrss
--trace 1 runs one untraced experiment, two traced ones and one traced one
with BLAS at one thread, and reports the per-layer metrics of PER_LAYER.

An experiment fails when a step exits non-zero or a gate fails; the last
stdout line is {"correct", "attempted", "failed", "metrics"}.  Machine facts
and provenance go to .perfbench_out/results/ and to the line before it.
--smoke runs tiny sizes for the self-test (selftest.py).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from traced_step import MODULES
from workloads import WORKLOADS, Gate, params_for

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 9
MIN_EXPERIMENTS = 2  # wall_s is a median, so never one sample
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
SETUP_CODE = "import " + ", ".join(f"chainlab.{m}" for m in MODULES)
CLI_COMMANDS = ("convolve", "verify", "decay-fit", "evolve", "lyapunov")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# name -> unit; self_s is a span minus its child spans, summed over the experiment
PER_LAYER = {
    "operators.hamiltonian_2d_dense.self_s": "s",
    "operators.apply_h2d.calls": "count",
    "operators.energy_expectation.self_s": "s",
    "operators.sample_potential.self_s": "s",
    "spectral.dense_eigensystem.self_s": "s",
    "spectral.dense_eigensystem.self_s.serial": "s",
    "spectral.dense_eigh.n": "count",
    "spectral.convolve_measures.self_s": "s",
    "spectral.deposits": "count",
    "spectral.eigh_tridiagonal.calls": "count",
    "spectral.eigh_tridiagonal.self_s": "s",
    "spectral.spectral_measure_1d.self_s": "s",
    "spectral.atom_weight_discrepancy.self_s": "s",
    "evolution.evolve_2d_direct.calls": "count",
    "evolution.evolve_2d_direct.self_s": "s",
    "evolution.evolve_2d_factorized.calls": "count",
    "evolution.evolve_2d_factorized.self_s": "s",
    "evolution.make_plan.self_s": "s",
    "evolution.evolve_1d_eigen.self_s": "s",
    "evolution.evolve_1d_eigen.self_s.serial": "s",
    "evolution.n_sweep.gflop": "Gflop",
    "evolution.evolve_free_1d.self_s.dft_multiplier": "s",
    "evolution.evolve_free_1d.self_s.bessel_kernel": "s",
    "diagnostics.wrap_free_m": "sites",
    "diagnostics.record_decay.self_s": "s",
    "diagnostics.fit_decay_exponent.self_s": "s",
    "diagnostics.lyapunov_scan.self_s": "s",
    "diagnostics.transfer_steps": "count",
    "diagnostics.truncation_energies.self_s": "s",
    "diagnostics.n_fiber_isometry_defect.self_s": "s",
    "datafiles.write.self_s": "s",
    "datafiles.bytes": "B",
    "verify.run_verification.self_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS},
    "bench.library.wall_s": "s",
    "import_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}
MAX_COUNTS = {"diagnostics.wrap_free_m"}  # reported as the largest value, other counts as sums


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


# -- processes -----------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    exit_code: int
    max_rss_mb: float


def run_process(argv: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run argv to completion; wall time and peak RSS come from this child alone."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0)


# -- experiments ---------------------------------------------------------------


@dataclass
class Experiment:
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)  # per step: name, wall_s, rss, spans doc when traced

    @property
    def ok(self) -> bool:
        return not self.failures


def fail_ratio(experiments: list[Experiment]) -> float:
    """Failed experiments over attempted ones."""
    return sum(not e.ok for e in experiments) / len(experiments)


class Runner:
    """Runs one workload's experiments in a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, trace: int, smoke: bool):
        self.params = params_for(seed)
        self.dir = OUT / f"{workload}-s{seed}-t{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        inputs = self.dir / "inputs"
        inputs.mkdir(parents=True)
        self.steps, self.gate = WORKLOADS[workload](self.params, inputs, self.dir / "work", smoke)
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.cores = usable_cores()

    def experiment(self, threads: int | None = None, traced: bool = False, tamper=None) -> Experiment:
        env = child_env(threads or self.cores)
        exp = Experiment()
        logs = self.dir / "logs"
        logs.mkdir(exist_ok=True)
        for step in self.steps:
            shutil.rmtree(step.out, ignore_errors=True)
            step.out.mkdir(parents=True)
        for i, step in enumerate(self.steps):
            spans_path = logs / f"{i}-{step.name}.spans.json"
            spans_path.unlink(missing_ok=True)
            if traced:
                argv = [sys.executable, str(ROOT / "perfbench" / "traced_step.py"), str(spans_path), step.kind]
            elif step.kind == "cli":
                argv = [sys.executable, "-m", "chainlab.cli"]
            else:
                argv = [sys.executable, str(ROOT / "perfbench" / "library_step.py")]
            proc = run_process(argv + step.argv(), env, logs / f"{i}-{step.name}.log",
                               self.deadline - time.perf_counter())
            exp.wall_s += proc.wall_s
            exp.peak_rss_mb = max(exp.peak_rss_mb, proc.max_rss_mb)
            record = {"name": step.name, "wall_s": proc.wall_s, "max_rss_mb": proc.max_rss_mb,
                      "exit_code": proc.exit_code}
            if traced and spans_path.exists():
                record["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
            exp.steps.append(record)
            if proc.exit_code != 0:
                exp.failures.append(f"{step.name} exited {proc.exit_code} (log {logs.name}/{i}-{step.name}.log)")
                return exp
        if tamper is not None:
            tamper(self.steps)
        gate = Gate()
        try:
            self.gate(gate)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            gate.failures.append(f"artifact unreadable: {exc!r}")
        exp.failures += gate.failures
        return exp

    def cleanup(self) -> None:
        shutil.rmtree(self.dir / "work", ignore_errors=True)


def median_setup(cores: int) -> tuple[float, list[float]]:
    env = child_env(cores)
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = run_process([sys.executable, "-c", SETUP_CODE], env, Path(os.devnull), 60.0)
        if proc.exit_code != 0:
            raise RuntimeError(f"importing chainlab failed with exit code {proc.exit_code}")
        samples.append(proc.wall_s)
    return statistics.median(samples), samples


# -- trace aggregation -------------------------------------------------------------


def layer_profile(exp: Experiment) -> tuple[dict, Counter, list[str]]:
    """Per-layer self times, calls and computed counts of one traced experiment.

    Also checks, for each step, that import time plus the self times of all
    spans fit inside the step's wall time; what is left is unattributed_s.
    """
    times: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    problems = []
    for step in exp.steps:
        doc = step.get("trace")
        if doc is None:
            problems.append(f"{step['name']}: no spans written")
            continue
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        attributed = 0.0
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            self_s = (end - start) - child[i]
            if self_s < -1e-6:
                problems.append(f"{step['name']}: span {name} has negative self time {self_s:.3e}")
            attributed += self_s
            times[f"{name}.self_s"] += self_s
            counts[f"{name}.calls"] += 1
            for key, value in (attrs or {}).items():
                if key == "method":
                    times[f"{name}.self_s.{value}"] += self_s
                elif key == "datafiles.bytes" and parent >= 0 and spans[parent][0] == name:
                    continue  # a writer called by another writer: its bytes are already counted
                elif key in MAX_COUNTS:
                    counts[key] = max(counts[key], value)
                else:
                    counts[key] += value
        unattributed = step["wall_s"] - doc["import_s"] - attributed
        if unattributed < 0:
            problems.append(f"{step['name']}: import and span self times exceed the step wall time")
        times["import_s"] += doc["import_s"]
        times["unattributed_s"] += unattributed
    return times, counts, problems


def traced_metrics(runner: Runner) -> tuple[dict, list[Experiment], list[str], dict]:
    plain = runner.experiment()
    passes = [runner.experiment(traced=True), runner.experiment(traced=True)]
    serial = runner.experiment(threads=1, traced=True)
    experiments = [plain, *passes, serial]
    profiles = [layer_profile(e) for e in (*passes, serial)]
    problems = [p for _, _, probs in profiles for p in probs]
    first, second = profiles[0][1], profiles[1][1]
    if first != second:
        diff = sorted(k for k in set(first) | set(second) if first[k] != second[k])
        problems.append(f"counts differ between the two traced runs: {', '.join(diff)}")

    def mean_time(key: str) -> float:
        return statistics.fmean(times.get(key, 0.0) for times, _, _ in profiles[:2])

    values = {}
    for name, unit in PER_LAYER.items():
        if name.endswith(".serial"):
            values[name] = profiles[2][0].get(name.removesuffix(".serial"), 0.0)
        elif unit == "s":
            values[name] = mean_time(name)
        else:
            values[name] = first.get(name, 0)
    for command in CLI_COMMANDS:
        values[f"cli.{command}.wall_s"] = sum(s["wall_s"] for s in plain.steps if s["name"] == command)
    values["bench.library.wall_s"] = sum(s["wall_s"] for s in plain.steps if s["name"] == "library")
    values["trace_overhead_s"] = statistics.fmean(p.wall_s for p in passes) - plain.wall_s
    spans = {f"pass{i}": e.steps for i, e in enumerate(experiments)}
    return values, experiments, problems, spans


# -- provenance ------------------------------------------------------------------

PROBE = """
import json, ctypes, numpy, scipy, sys
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "blas" in l and ".so" in l}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads = getattr(lib, sym)()
            break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads_seen": threads}))
"""


def machine_facts(cores: int) -> dict:
    facts = {"nproc": cores, "blas_threads_pinned": cores, "machine": platform.machine(),
             "cpu": _cpu_model(), "platform": platform.platform()}
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(cores), cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode == 0:
        facts.update(json.loads(probe.stdout))
    else:
        facts["probe_error"] = probe.stderr.strip()[-500:]
    facts["chainlab_commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chainlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    facts["chainlab_src_sha256"] = digest.hexdigest()
    return facts


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout; see chainlab_src_sha256)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- entry point -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    runner = Runner(workload, seed, trace, smoke)
    facts = machine_facts(runner.cores)
    result = {"workload": workload, "seed": seed, "trace": trace, "smoke": smoke, "facts": facts,
              "params": vars(runner.params)}
    problems: list[str] = []
    if trace:
        values, experiments, problems, spans = traced_metrics(runner)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        setup_s, setup_samples = median_setup(runner.cores)
        start = time.perf_counter()
        experiments = []
        while True:
            experiments.append(runner.experiment())
            elapsed = time.perf_counter() - start
            typical = statistics.median(e.wall_s for e in experiments)
            if runner.deadline - time.perf_counter() < 2 * typical:
                break
            if len(experiments) >= MIN_EXPERIMENTS and elapsed + typical > seconds:
                break
        timed = [e for e in experiments if e.ok] or experiments
        values = {
            "wall_s": statistics.median(e.wall_s for e in timed),
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(e.peak_rss_mb for e in timed),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        result["setup_samples_s"] = setup_samples
        spans = None
    failed = sum(not e.ok for e in experiments)
    result.update({
        "correct": failed == 0 and not problems,
        "attempted": len(experiments),
        "failed": failed,
        "fail_ratio": fail_ratio(experiments),
        "trace_problems": problems,
        "experiments": [{"wall_s": e.wall_s, "peak_rss_mb": e.peak_rss_mb, "failures": e.failures,
                         "steps": [{k: v for k, v in s.items() if k != "trace"} for s in e.steps]}
                        for e in experiments],
        "metrics": metrics,
    })
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-t{trace}{'-smoke' if smoke else ''}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    runner.cleanup()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chainlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chainlab" / "cli.py").is_file():
        print(f"error: no chainlab sources under {ROOT / 'src'}; run from a chainlab checkout", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    for exp in result["experiments"]:
        for failure in exp["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    for problem in result["trace_problems"]:
        print(f"TRACE CHECK: {problem}", file=sys.stderr)
    if not args.trace:
        wall = result["metrics"]["wall_s"]["value"]
        print(f"{args.workload}: wall_s {wall:.4f} s (median of n={result['attempted']}), "
              f"setup_s {result['metrics']['setup_s']['value']:.4f} s, "
              f"peak_rss_mb {result['metrics']['peak_rss_mb']['value']:.1f} MB, "
              f"fail_ratio {result['failed']}/{result['attempted']} = {result['fail_ratio']:g}")
    print(json.dumps({"provenance": result["facts"], "params": result["params"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
