"""The four benchmark workloads: the steps of one experiment and its gates.

Each workload is one of the paper's features run as a fixed sequence of
steps.  A step is a fresh Python process, either ``python3 -m chainlab.cli``
or this benchmark's own ``library_step.py`` for work the CLI cannot express.
Every experiment ends with correctness gates that read the step artifacts;
an experiment fails when a step exits non-zero or any gate fails.

Inputs come only from the workload seed (see ``params_for``): the phase of
the cosine potential, the seed of the random potential and the seed of the
``verify`` suite.  ``smoke`` selects tiny sizes for the self-test; the gates
stay the same.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MASS_TOL = 1e-10  # convolution mass defect (crosscheck)
EXPONENT_BAND = (-0.45, -0.25)  # criterion-4 band for the sup-norm decay exponent
EXPONENT_AGREEMENT = 1e-8  # dft_multiplier against bessel_kernel on one wrap-free grid
ROUTE_AGREEMENT = 1e-10  # eigen against dft_multiplier sup norms at shared times (relative)
DRIFT_TOL = 1e-9  # l2 and energy drift recomputed from trace.csv
SUBCRITICAL_GAMMA = 0.02  # |gamma| bound at a = 1 (criterion 7)
SUPERCRITICAL_SHARE = 0.05  # gamma within 5% of log(a / 2) at a = 3 (criterion 7)
IID_AMPLITUDE = 2.0  # half-width of the random_iid potential
EVOLVE_SNAPSHOTS = 11  # `evolve --tmax` samples 11 times
BINARY_HEADER_BYTES = 56  # datafiles binary trajectory header: 8s I I 3Q 2q


@dataclass(frozen=True)
class Params:
    """Everything a workload takes from its seed."""

    seed: int
    theta: float
    iid_seed: int
    verify_seed: int


def params_for(seed: int) -> Params:
    rng = random.Random(seed)
    return Params(seed, rng.uniform(0.0, 2.0 * math.pi), rng.randrange(2**31), rng.randrange(2**31))


@dataclass(frozen=True)
class Step:
    """One process of an experiment: a CLI command or the library step."""

    name: str  # the CLI command, or "library"
    args: tuple[str, ...]  # arguments after `-m chainlab.cli` or after library_step.py
    out: Path

    @property
    def kind(self) -> str:
        return "library" if self.name == "library" else "cli"

    def argv(self) -> list[str]:
        head = [] if self.kind == "library" else [self.name]
        return head + list(self.args) + ["--out", str(self.out)]


def _cli(name: str, out: Path, *args) -> Step:
    return Step(name, tuple(str(a) for a in args), out)


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_config(path: Path, theta: float, **sections) -> Path:
    lines = ["[potential]", "family = almost_mathieu", "amplitude = 3", f"theta = {theta!r}"]
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class Gate:
    """Collects failure messages of one experiment's correctness checks."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


# -- crosscheck: small lattices against the dense oracle ---------------------


def crosscheck(p: Params, inputs: Path, work: Path, smoke: bool):
    n_conv, n_ver = (8, 8) if smoke else (48, 32)
    sites, bins, bins2 = (16, 64, 40) if smoke else (64, 512, 300)
    steps = [
        _cli("convolve", work / "convolve", "--N", n_conv, "--M", n_conv, "--family", "random_iid",
             "--amplitude", IID_AMPLITUDE, "--seed", p.iid_seed),
        _cli("verify", work / "verify", "--N", n_ver, "--M", n_ver, "--family", "almost_mathieu",
             "--amplitude", 3, "--theta", repr(p.theta), "--seed", p.verify_seed),
        Step("library", ("--sites", str(sites), "--bins", str(bins), "--bins2", str(bins2),
                         "--seed", str(p.iid_seed)), work / "library"),
    ]

    def gate(g: Gate) -> None:
        report = _read_json(steps[0].out / "report.json")
        g.check(report["compared_to_direct"] is True, "convolve: no dense cross-check ran")
        g.check(report.get("max_atom_weight_discrepancy", math.inf) <= report.get("tolerance", 0.0),
                f"convolve: discrepancy {report.get('max_atom_weight_discrepancy')} vs direct route")
        g.check(report["mass_defect"] <= MASS_TOL, f"convolve: mass defect {report['mass_defect']:.3e}")
        g.check(_read_json(steps[1].out / "verify.json")["all_passed"] is True, "verify: a check failed")
        lib = _read_json(steps[2].out / "library.json")
        g.check(lib["atom_density"]["atoms"] == sites, f"library: {lib['atom_density']['atoms']} atoms, want {sites}")
        for case in ("atom_density", "density_density"):
            defect = lib[case]["mass_defect"]
            g.check(defect <= MASS_TOL, f"library {case}: mass defect {defect:.3e}")

    return steps, gate


# -- dispersion: long-time decay on wrap-free grids ---------------------------
#
# The sup norm of a delta state is |u(t)|_inf |w(t)|_inf: a localized n-part
# that beats in time times the free m-part that decays like <t>^(-1/3).  Over
# [20, 200] the beats tilt the fitted slope out of the criterion-4 band for a
# few percent of phases (about 3% in a scan of 20000), so the two long steps
# fit over their whole window [20, 800], where the scan stayed inside the band
# for every phase.  The eigen step samples the first part of that time grid
# and is checked against the dft_multiplier route at the shared times.


def _read_trace(path: Path) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in ("t", "sup_norm", "l2_norm", "energy")}


def _relative_drift(values: list[float], floor: float) -> float:
    return max(abs(v - values[0]) for v in values) / max(floor, abs(values[0]))


def dispersion(p: Params, inputs: Path, work: Path, smoke: bool):
    n, tmax = (16, 200) if smoke else (128, 800)
    samples = 25  # decay-fit samples a geometric grid from 20 to --tmax
    grid = [20.0 * (tmax / 20.0) ** (k / (samples - 1)) for k in range(samples)]
    shared = [t for t in grid if t <= 200.0]  # keeps the eigen grid at M = 1024
    steps = []
    for method in ("dft_multiplier", "bessel_kernel"):
        cfg = _write_config(inputs / f"decay_{method}.ini", p.theta,
                            lattice={"m_method": method}, time={"fit_hi": tmax})
        steps.append(_cli("decay-fit", work / method, "--config", cfg, "--N", n, "--tmax", tmax))
    cfg = _write_config(inputs / "decay_eigen.ini", p.theta, lattice={"m_method": "eigen"}, time={"times": ", ".join(map(repr, shared))})
    steps.append(_cli("decay-fit", work / "eigen", "--config", cfg, "--N", n))

    def gate(g: Gate) -> None:
        traces = {}
        for step in steps:
            method = step.out.name
            traces[method] = trace = _read_trace(step.out / "trace.csv")
            l2_drift = _relative_drift(trace["l2_norm"], 0.0)
            energy_drift = _relative_drift(trace["energy"], 1.0)
            g.check(l2_drift <= DRIFT_TOL, f"decay-fit {method}: l2 drift {l2_drift:.3e}")
            g.check(energy_drift <= DRIFT_TOL, f"decay-fit {method}: energy drift {energy_drift:.3e}")
        exponents = [_read_json(step.out / "fit.json")["exponent"] for step in steps[:2]]
        lo, hi = EXPONENT_BAND
        for step, exponent in zip(steps, exponents):
            g.check(lo <= exponent <= hi, f"decay-fit {step.out.name}: exponent {exponent:+.4f} outside [{lo}, {hi}]")
        gap = abs(exponents[0] - exponents[1])
        g.check(gap <= EXPONENT_AGREEMENT, f"decay-fit: dft and bessel exponents differ by {gap:.3e}")
        dft = dict(zip(traces["dft_multiplier"]["t"], traces["dft_multiplier"]["sup_norm"]))
        eigen = traces["eigen"]
        g.check(len(eigen["t"]) == len(shared), f"decay-fit eigen: {len(eigen['t'])} samples, want {len(shared)}")
        for t, sup in zip(eigen["t"], eigen["sup_norm"]):
            match = min(dft, key=lambda s: abs(s - t))
            g.check(abs(match - t) <= 1e-9 * t, f"decay-fit eigen: time {t!r} not on the dft grid")
            off = abs(sup / dft[match] - 1.0)
            g.check(off <= ROUTE_AGREEMENT, f"decay-fit eigen: sup norm at t={t:g} off the dft route by {off:.3e}")

    return steps, gate


# -- trajectory: full-state snapshots written to disk -------------------------


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            lines += chunk.count(b"\n")
    return lines


def trajectory(p: Params, inputs: Path, work: Path, smoke: bool):
    (n1, m1, t1), (n2, m2, t2) = ((8, 64, 10), (8, 128, 20)) if smoke else ((64, 512, 100), (128, 2048, 400))
    binary = _write_config(inputs / "binary.ini", p.theta, output={"binary_snapshots": "true"})
    steps = [
        _cli("evolve", work / "csv", "--family", "almost_mathieu", "--amplitude", 3, "--theta", repr(p.theta),
             "--N", n1, "--M", m1, "--tmax", t1),
        _cli("evolve", work / "binary", "--config", binary, "--N", n2, "--M", m2, "--tmax", t2),
    ]

    def gate(g: Gate) -> None:
        for step in steps:
            cons = _read_json(step.out / "conservation.json")
            g.check(cons["passed"] is True, f"evolve {step.out.name}: conservation failed")
            g.check(cons["snapshots"] == EVOLVE_SNAPSHOTS, f"evolve {step.out.name}: {cons['snapshots']} snapshots")
        rows = _count_lines(steps[0].out / "trajectory.csv")
        want_rows = 1 + EVOLVE_SNAPSHOTS * n1 * m1
        g.check(rows == want_rows, f"trajectory.csv: {rows} lines, want {want_rows}")
        size = (steps[1].out / "trajectory.bin").stat().st_size
        want_size = BINARY_HEADER_BYTES + EVOLVE_SNAPSHOTS * (8 + 16 * n2 * m2)
        g.check(size == want_size, f"trajectory.bin: {size} bytes, want {want_size}")

    return steps, gate


# -- localization: transfer-matrix scans in both regimes ----------------------


def localization(p: Params, inputs: Path, work: Path, smoke: bool):
    length, count = (20000, 2) if smoke else (10**6, 8)
    steps = [
        _cli("lyapunov", work / f"a{a}", "--family", "almost_mathieu", "--amplitude", a,
             "--theta", repr(p.theta), "--length", length, "--count", count)
        for a in (1, 3)
    ]

    def gammas(step: Step) -> list[float]:
        with open(step.out / "lyapunov.csv", encoding="utf-8", newline="") as fh:
            return [float(r["gamma"]) for r in csv.DictReader(fh)]

    def gate(g: Gate) -> None:
        sub, sup = gammas(steps[0]), gammas(steps[1])
        g.check(len(sub) == count and len(sup) == count, "lyapunov: wrong number of energies")
        worst = max(abs(v) for v in sub)
        g.check(worst <= SUBCRITICAL_GAMMA, f"lyapunov a=1: |gamma| up to {worst:.4f}")
        target = math.log(1.5)
        worst = max(abs(v - target) for v in sup) / target
        g.check(worst <= SUPERCRITICAL_SHARE, f"lyapunov a=3: gamma off log(1.5) by {100 * worst:.2f}%")

    return steps, gate


WORKLOADS = {
    "crosscheck": crosscheck,
    "dispersion": dispersion,
    "trajectory": trajectory,
    "localization": localization,
}
