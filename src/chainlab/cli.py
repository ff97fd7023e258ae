"""Batch experiment harness.

One subcommand per process; artifacts are CSV series plus JSON summaries in
the output directory.  Heavy numerical imports happen after --threads is
applied so BLAS/OpenMP pools honor the requested width.

Exit codes: 0 success, 1 validation error, 2 numerical check failure,
3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_COMMANDS = ("spectrum", "convolve", "evolve", "decay-fit", "lyapunov", "verify")

# each flag is one config key, written over the --config file's
_FLAG_KEYS = {
    "family": ("potential", "family"),
    "amplitude": ("potential", "amplitude"),
    "omega": ("potential", "omega"),
    "theta": ("potential", "theta"),
    "seed": ("potential", "seed"),
    "N": ("lattice", "n"),
    "M": ("lattice", "m"),
    "out": ("output", "directory"),
}

DEFAULT_EVOLVE_TMAX = 10.0
DECAY_N_DEFAULT = 128
DECAY_SAMPLES = 25


class CheckFailure(RuntimeError):
    """A numerical check came out above tolerance: exit 2, after the artifacts are written."""


class _Parser(argparse.ArgumentParser):
    """Argument errors are validation failures: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainlab",
        description="Numerical laboratory for 2D lattice Schrodinger operators "
        "with a potential constant along one direction.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "spectrum": "eigenvalues and the local spectral measure of the 1D chain",
        "convolve": "2D spectral measure via convolution, checked against the dense route",
        "evolve": "factorized time evolution with trajectory snapshots",
        "decay-fit": "sup-norm decay trace and power-law fit",
        "lyapunov": "transfer-matrix growth-rate scan over on-spectrum energies",
        "verify": "run the invariant suite and report per-check residuals",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", metavar="PATH", help="experiment config file")
        p.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, metavar="U64", help="seed for random potentials")
        p.add_argument("--threads", type=int, metavar="K", help="BLAS/OpenMP thread count")
        p.add_argument("--N", type=int, help="sites along the potential direction")
        p.add_argument("--M", type=int, help="sites along the free direction")
        p.add_argument("--tmax", type=float, help="largest evolution time, in place of [time] times")
        p.add_argument("--family", metavar="NAME", help="potential family: one of operators.FAMILIES but explicit")
        p.add_argument("--amplitude", type=float, help="potential coupling strength")
        p.add_argument("--omega", type=float, help="quasiperiodic frequency")
        p.add_argument("--theta", type=float, help="quasiperiodic phase")
        if name == "lyapunov":
            p.add_argument("--length", type=int, default=10**6, help="transfer-matrix product length")
            p.add_argument("--count", type=int, default=8, help="number of sampled energies")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be positive", file=sys.stderr)
            return 1
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    from .operators import FAMILIES  # numpy loads here, once the thread variables are set

    families = tuple(f for f in FAMILIES if f != "explicit")  # explicit takes its values from a file
    if args.family not in (None, *families):
        parser.error(f"argument --family: invalid choice: {args.family!r}, not one of {families}")
    try:
        return _run(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError is one
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    from .config import parse_config, parse_config_file

    flags = {key: getattr(args, flag) for flag, key in _FLAG_KEYS.items() if getattr(args, flag) is not None}
    cfg = parse_config_file(args.config, flags) if args.config else parse_config("", flags)
    if args.tmax is not None and cfg.times is not None and args.command in ("evolve", "decay-fit"):
        raise ValueError("--tmax cannot be combined with [time] times: give one or the other")
    os.makedirs(cfg.output_dir, exist_ok=True)
    handler = {
        "spectrum": _cmd_spectrum,
        "convolve": _cmd_convolve,
        "evolve": _cmd_evolve,
        "decay-fit": _cmd_decay_fit,
        "lyapunov": _cmd_lyapunov,
        "verify": _cmd_verify,
    }[args.command]
    return handler(cfg, args)


def _out(cfg, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def _cmd_spectrum(cfg, args) -> int:
    from . import datafiles
    from .operators import delta_vector
    from .spectral import eigh_tridiagonal, max_atom_weight, spectral_measure_1d

    N, _ = cfg.lattice()
    pot, a1 = cfg.chain_operator(N)
    es = eigh_tridiagonal(a1)
    mu = spectral_measure_1d(es, delta_vector(N, cfg.n0, "n0"), merge_tol=cfg.tolerances.atom_merge)
    datafiles.write_potential_csv(pot, _out(cfg, "potential.csv"))
    datafiles.write_eigenvalues_csv(es.eigenvalues, _out(cfg, "eigenvalues.csv"))
    datafiles.write_measure_csv(mu, _out(cfg, "measure_delta.csv"))
    datafiles.write_json(
        {
            "family": cfg.potential.family,
            "N": N,
            "boundary": cfg.boundary_n,
            "energy_min": float(es.eigenvalues[0]),
            "energy_max": float(es.eigenvalues[-1]),
            "atom_count": mu.atom_count,
            "total_mass": float(mu.total_mass().real),
            "max_atom_weight": max_atom_weight(mu),
        },
        _out(cfg, "summary.json"),
    )
    print(f"spectrum: {N} eigenvalues in [{es.eigenvalues[0]:.6f}, {es.eigenvalues[-1]:.6f}]")
    return 0


def _cmd_convolve(cfg, args) -> int:
    from . import datafiles
    from .operators import origin_index
    from .spectral import atom_weight_discrepancy
    from .verify import delta_crosscheck

    N, M = cfg.lattice()
    plan = cfg.plan(N, M)
    i, j = origin_index("n0", cfg.n0, N), origin_index("m0", cfg.m0, M)
    mu1, mu2, conv, mass_defect, direct, sizes = delta_crosscheck(plan, i, j, cfg.tolerances.atom_merge)
    datafiles.write_measure_csv(mu1, _out(cfg, "measure_n.csv"))
    datafiles.write_measure_csv(mu2, _out(cfg, "measure_m.csv"))
    datafiles.write_measure_csv(conv, _out(cfg, "convolution.csv"))
    report = {
        "N": N,
        "M": M,
        "atoms": conv.atom_count,
        "mass_defect": mass_defect,
        "compared_to_direct": direct is not None,
    }
    if direct is None:
        datafiles.write_json(report, _out(cfg, "report.json"))
        print(f"convolve: {conv.atom_count} atoms, lattice too large for the direct 2D route")
        return 0
    datafiles.write_measure_csv(direct, _out(cfg, "direct_2d.csv"))
    discrepancy = atom_weight_discrepancy(conv, direct)
    report["max_atom_weight_discrepancy"] = discrepancy
    report["tolerance"] = cfg.tolerances.measure_match
    datafiles.write_json(report, _out(cfg, "report.json"))
    oracle = f"{'a sector' if len(sizes) == 1 else 'sectors'} of {' and '.join(map(str, sizes))} of {N * M} sites"
    print(f"convolve: max atom-weight discrepancy vs direct route {discrepancy:.3e}, dense oracle on {oracle}")
    if discrepancy > cfg.tolerances.measure_match:
        raise CheckFailure(
            f"convolution vs direct 2D measure: discrepancy {discrepancy:.3e} "
            f"exceeds {cfg.tolerances.measure_match:.1e}"
        )
    return 0


def _evolve_times(cfg, args):
    import numpy as np

    if cfg.times is not None:
        return np.asarray(cfg.times, dtype=float)
    if args.tmax is not None:
        if not 0 < args.tmax < np.inf:
            raise ValueError("--tmax must be positive and finite")
        return np.linspace(0.0, args.tmax, 11)
    return np.linspace(0.0, DEFAULT_EVOLVE_TMAX, 11)


def _conserved(l2_drift: float, energy_drift: float, tol: float) -> bool:
    """The one conservation verdict: both drifts within tol (a NaN drift fails)."""
    return l2_drift <= tol and energy_drift <= tol


def _check_conservation(l2_drift: float, energy_drift: float, tol: float) -> None:
    if not _conserved(l2_drift, energy_drift, tol):
        raise CheckFailure(f"conservation: l2 drift {l2_drift:.3e}, energy drift {energy_drift:.3e} exceed {tol:.1e}")


def _cmd_evolve(cfg, args) -> int:
    import numpy as np

    from . import datafiles
    from .diagnostics import conservation_defects
    from .evolution import evolve_2d_factorized
    from .operators import delta_state, energy_expectation, origin_index

    N, M = cfg.lattice()
    psi0 = delta_state(N, M, cfg.n0, cfg.m0)
    start = (-origin_index("n0", cfg.n0, N), -origin_index("m0", cfg.m0, M))
    plan = cfg.plan(N, M)
    a1, a2 = plan.a1_operator(), plan.a2_operator()
    times = _evolve_times(cfg, args)

    states = [evolve_2d_factorized(psi0, plan, t) for t in times]
    l2_drift, energy_drift = conservation_defects(
        np.array([np.linalg.norm(s) for s in states]),
        np.array([energy_expectation(s, a1, a2) for s in states]),
    )

    keep = slice(None, None, cfg.snapshot_every)
    if cfg.binary_snapshots:
        datafiles.write_trajectory_binary(times[keep], states[keep], start, _out(cfg, "trajectory.bin"))
    else:
        datafiles.write_trajectory_csv(times[keep], states[keep], start, _out(cfg, "trajectory.csv"))
    tol = cfg.tolerances.conservation
    datafiles.write_json(
        {
            "l2_drift": l2_drift,
            "energy_drift": energy_drift,
            "tolerance": tol,
            "passed": _conserved(l2_drift, energy_drift, tol),
            "t_max": float(times[-1]),
            "snapshots": len(states[keep]),
        },
        _out(cfg, "conservation.json"),
    )
    print(f"evolve: {len(times)} steps to t={times[-1]:g}, l2 drift {l2_drift:.3e}, energy drift {energy_drift:.3e}")
    _check_conservation(l2_drift, energy_drift, tol)
    return 0


def _cmd_decay_fit(cfg, args) -> int:
    import numpy as np

    from . import datafiles
    from .diagnostics import MIN_FIT_SAMPLES, conservation_defects, fit_decay_exponent, fit_samples
    from .diagnostics import minimal_wrap_free_m, record_decay
    from .operators import delta_vector

    fit_lo, fit_hi = cfg.fit_window
    t_hi = args.tmax if args.tmax is not None else fit_hi
    if cfg.times is not None:
        times = np.asarray(cfg.times, dtype=float)
        n_fit = len(set(times[fit_samples(times, fit_lo, fit_hi)]))  # a repeated time adds no sample
        if n_fit < MIN_FIT_SAMPLES:
            window = f"the fit window [fit_lo = {fit_lo:g}, fit_hi = {fit_hi:g}]"
            raise ValueError(f"[time] times: {n_fit} distinct in {window}, the fit needs {MIN_FIT_SAMPLES}")
    else:
        if not fit_lo < t_hi < np.inf:
            raise ValueError(f"--tmax must be finite and exceed the fit window start {fit_lo:g}")
        if fit_lo <= 0:
            raise ValueError(f"[time] fit_lo = {fit_lo:g}: the geometric time grid needs a positive fit window start")
        times = np.geomspace(fit_lo, t_hi, DECAY_SAMPLES)
    t_max = float(times[-1])

    if cfg.M is not None:
        M = cfg.M
    else:
        need = minimal_wrap_free_m(t_max, support_width=1, tail_tol=cfg.tolerances.tail_mass)
        M = 1 << (need - 1).bit_length()

    # a zero potential and no N: the free chain, run as the one-site chain
    free_chain = cfg.potential.family == "constant" and cfg.potential.amplitude == 0.0 and cfg.N is None
    N = 1 if free_chain else cfg.N or DECAY_N_DEFAULT
    chi, phi = delta_vector(N, cfg.n0, "n0"), delta_vector(M, cfg.m0, "m0")
    plan = cfg.plan(N, M)

    trace = record_decay(plan, chi, phi, times)
    # --tmax ends the fit window; otherwise the config's window, cut at the last sample
    fit = fit_decay_exponent(trace, fit_lo, t_max if args.tmax is not None else min(fit_hi, t_max))
    l2_drift, energy_drift = conservation_defects(trace.l2_norms, trace.energies)
    tol = cfg.tolerances.conservation
    datafiles.write_trace_csv(trace, _out(cfg, "trace.csv"))
    datafiles.write_fit_json(
        fit,
        _out(cfg, "fit.json"),
        l2_drift=l2_drift,
        energy_drift=energy_drift,
        tolerance=tol,
        m_size=M,
    )
    mode = "free chain" if free_chain else f"{plan.n_size} x {M} lattice"
    print(f"decay-fit: {mode}, exponent {fit.exponent:+.4f} over [{fit.t_lo:g}, {fit.t_hi:g}]")
    _check_conservation(l2_drift, energy_drift, tol)
    return 0


def _cmd_lyapunov(cfg, args) -> int:
    import numpy as np

    from . import datafiles
    from .diagnostics import TRUNCATION_SITES, lyapunov_scan, truncation_energies

    need, values = max(args.length, TRUNCATION_SITES), cfg.potential.values
    if cfg.potential.family == "explicit" and len(values) < need:
        raise ValueError(
            f"[potential] values cover n in [0, {len(values)}), but lyapunov reads [0, {need}): "
            f"--length {args.length} sites and the {TRUNCATION_SITES}-site truncation"
        )
    energies = truncation_energies(cfg.potential, count=args.count)
    gammas = lyapunov_scan(cfg.potential, energies, L=args.length)
    datafiles.write_lyapunov_csv(energies, gammas, args.length, _out(cfg, "lyapunov.csv"))
    datafiles.write_json(
        {
            "family": cfg.potential.family,
            "amplitude": cfg.potential.amplitude,
            "length": args.length,
            "count": args.count,
            "gamma_min": float(np.min(gammas)),
            "gamma_max": float(np.max(gammas)),
            "gamma_mean": float(np.mean(gammas)),
        },
        _out(cfg, "summary.json"),
    )
    print(f"lyapunov: {args.count} energies, gamma in [{np.min(gammas):.6f}, {np.max(gammas):.6f}]")
    return 0


def _cmd_verify(cfg, args) -> int:
    from . import datafiles
    from .operators import DENSE_SITE_CAP
    from .verify import run_verification, verification_report

    results = run_verification(cfg)
    datafiles.write_json(verification_report(results), _out(cfg, "verify.json"))
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name:32s} residual {r.residual:.3e}  tol {r.tolerance:.1e}")
    if "convolution_identity" not in {r.name for r in results}:
        N, M = cfg.lattice()
        print(f"skip  {'convolution_identity':32s} N*M = {N * M} above DENSE_SITE_CAP = {DENSE_SITE_CAP}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise CheckFailure("invariants failed: " + ", ".join(failed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
