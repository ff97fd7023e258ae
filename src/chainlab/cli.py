"""Batch experiment harness.

One subcommand per process; artifacts are CSV series plus JSON summaries in
the output directory.  Numerical imports wait for the first command
import, so --help and argument errors never load numpy.  The BLAS/OpenMP
thread count is the environment's (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and their siblings), set before the run.

Exit codes: 0 success, 1 validation error, 2 numerical check failure,
3 I/O error.
"""
from __future__ import annotations

import argparse
import os
import sys

_COMMON_FLAGS = ("config", "out", "seed", "family", "amplitude", "omega", "theta")
_FLAGS = {  # flag: (the config key it writes over the --config file's, or None; add_argument keywords)
    "config": (None, dict(metavar="PATH", help="experiment config file")),
    "out": (("output", "directory"), dict(metavar="DIR", help="output directory (overrides config)")),
    "seed": (("potential", "seed"), dict(type=int, metavar="U64", help="seed for random potentials")),
    "family": (
        ("potential", "family"),
        dict(metavar="NAME", help="potential family: one of operators.FAMILIES but explicit"),
    ),
    "amplitude": (("potential", "amplitude"), dict(type=float, help="potential coupling strength")),
    "omega": (("potential", "omega"), dict(type=float, help="quasiperiodic frequency")),
    "theta": (("potential", "theta"), dict(type=float, help="quasiperiodic phase")),
    "N": (("lattice", "n"), dict(type=int, help="sites along the potential direction")),
    "M": (("lattice", "m"), dict(type=int, help="sites along the free direction")),
    "tmax": (None, dict(type=float, help="largest evolution time, in place of [time] times")),
    "length": (None, dict(type=int, default=10**6, help="transfer-matrix product length")),
    "count": (None, dict(type=int, default=8, help="number of sampled energies")),
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


class _CommandParser(_Parser):
    """A command's parser refuses a flag the command does not take itself, so the usage it prints is the command's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, unread = super().parse_known_args(args, namespace)
        if unread:
            self.error(f"unrecognized arguments: {' '.join(unread)}")
        return namespace, unread


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chainlab",
        description="Numerical laboratory for 2D lattice Schrodinger operators "
        "with a potential constant along one direction.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command", parser_class=_CommandParser)
    parser.commands = sub.choices  # command name: its parser, whose usage lists the command's flags
    for name, (help_line, flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in (*_COMMON_FLAGS, *flags):
            p.add_argument(f"--{flag}", **_FLAGS[flag][1])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .operators import FAMILIES  # numpy loads here, so --help and argument errors never load it

    families = tuple(f for f in FAMILIES if f != "explicit")  # explicit takes its values from a file
    if args.family not in (None, *families):
        message = f"argument --family: invalid choice: {args.family!r}, not one of {families}"
        parser.commands[args.command].error(message)
    try:
        return _run(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # ConfigError is a ValueError; MemoryError: a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    from .config import parse_config, parse_config_file

    given = {flag: value for flag, value in vars(args).items() if value is not None}
    flags = {key: given[flag] for flag, (key, _) in _FLAGS.items() if key and flag in given}
    cfg = parse_config_file(args.config, flags) if args.config else parse_config("", flags)
    if "tmax" in given and cfg.times is not None:
        raise ValueError("--tmax cannot be combined with [time] times: give one or the other")
    _, _, handler = _COMMANDS[args.command]
    return handler(cfg, args)


def _out(cfg, name: str) -> str:
    """The path of an artifact; the output directory is made at the first write, so a refusal leaves none."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _cmd_spectrum(cfg, args) -> int:
    from . import datafiles
    from .config import naming
    from .operators import delta_vector
    from .spectral import eigh_tridiagonal, max_atom_weight, spectral_measure_1d

    N, _ = cfg.lattice()
    a1, i = cfg.chain_operator(N), cfg.origin(N)
    with naming("[lattice] n"):  # a ring above DENSE_SITE_CAP has no eigensolve
        es = eigh_tridiagonal(a1)
    mu = spectral_measure_1d(es, delta_vector(N, i))
    datafiles.write_potential_csv(a1.diagonal, -i, _out(cfg, "potential.csv"))
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
            "total_mass": mu.total_mass(),
            "max_atom_weight": max_atom_weight(mu),
        },
        _out(cfg, "summary.json"),
    )
    print(f"spectrum: {N} eigenvalues in [{es.eigenvalues[0]:.6f}, {es.eigenvalues[-1]:.6f}]")
    return 0


def _cmd_convolve(cfg, args) -> int:
    from . import datafiles
    from .spectral import MEASURE_MATCH_TOL, atom_weight_discrepancy
    from .verify import delta_crosscheck

    N, M = cfg.lattice()
    mu1, mu2, conv, mass_defect, direct, sizes = delta_crosscheck(cfg.plan(N, M), cfg.origin(N))
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
    report["tolerance"] = MEASURE_MATCH_TOL
    datafiles.write_json(report, _out(cfg, "report.json"))
    listed = ", ".join(map(str, sizes[:-1])) + " and " * (len(sizes) > 1) + str(sizes[-1])
    oracle = f"{'a sector' if len(sizes) == 1 else 'sectors'} of {listed} of {N * M} sites"
    print(f"convolve: max atom-weight discrepancy vs direct route {discrepancy:.3e}, dense oracle on {oracle}")
    if not discrepancy <= MEASURE_MATCH_TOL:  # a NaN discrepancy fails
        raise CheckFailure(
            f"convolution vs direct 2D measure: discrepancy {discrepancy:.3e} exceeds {MEASURE_MATCH_TOL:.1e}"
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
    from .config import naming
    from .evolution import CONSERVATION_TOL, check_wrap_free, conservation_defects, evolve_2d_factorized
    from .evolution import light_cone_reach
    from .operators import delta_state, energy_expectation

    N, M = cfg.lattice()
    plan, i = cfg.plan(N, M), cfg.origin(N)
    psi0 = delta_state(N, M, i)
    a1, a2 = plan.a1, plan.a2
    times = _evolve_times(cfg, args)

    if plan.m_method == "bessel_kernel":  # the m-window must hold the light cone at the last time, before any sweep
        with naming("[time] times" if cfg.times is not None else "--tmax"):
            light_cone_reach(times[-1])
        with naming("[lattice] m"):
            check_wrap_free(psi0, times[-1], ring=False)
    samples = []  # the norm and energy of each state, for the conservation audit

    def state_at(t):  # the writer calls it once per time, in order, and writes each state before the next
        state = evolve_2d_factorized(psi0, plan, t)
        samples.append((np.linalg.norm(state), energy_expectation(state, a1, a2)))
        return state

    write = datafiles.write_trajectory_binary if cfg.binary_snapshots else datafiles.write_trajectory_csv
    write(times, state_at, (-i, -(M // 2)), _out(cfg, "trajectory.bin" if cfg.binary_snapshots else "trajectory.csv"))
    l2_drift, energy_drift = conservation_defects(
        *np.array(samples).T, np.linalg.norm(psi0), energy_expectation(psi0, a1, a2)
    )
    datafiles.write_json(
        {
            "l2_drift": l2_drift,
            "energy_drift": energy_drift,
            "tolerance": CONSERVATION_TOL,
            "passed": _conserved(l2_drift, energy_drift, CONSERVATION_TOL),
            "t_max": float(times[-1]),
            "snapshots": len(times),
        },
        _out(cfg, "conservation.json"),
    )
    print(f"evolve: {len(times)} steps to t={times[-1]:g}, l2 drift {l2_drift:.3e}, energy drift {energy_drift:.3e}")
    _check_conservation(l2_drift, energy_drift, CONSERVATION_TOL)
    return 0


def _cmd_decay_fit(cfg, args) -> int:
    import numpy as np

    from . import datafiles
    from .config import naming
    from .diagnostics import MIN_FIT_SAMPLES, fit_decay_exponent, fit_samples, minimal_wrap_free_m, record_decay
    from .evolution import CONSERVATION_TOL, conservation_defects, light_cone_reach
    from .operators import delta_vector

    fit_lo, fit_hi = cfg.fit_lo, cfg.fit_hi
    t_hi = args.tmax if args.tmax is not None else fit_hi
    if cfg.times is not None:
        times = np.asarray(cfg.times, dtype=float)
        _, n_fit = fit_samples(times, fit_lo, fit_hi)
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
    time_key = "[time] times" if cfg.times is not None else "--tmax" if args.tmax is not None else "[time] fit_hi"
    with naming(time_key):
        light_cone_reach(t_max)

    if cfg.M is not None:
        M = cfg.M
    else:
        need = minimal_wrap_free_m(t_max)
        M = max(2, 1 << (need - 1).bit_length())  # the floor of [lattice] m

    # a zero potential and no N: the free chain, run as the one-site chain
    free_chain = cfg.potential.family == "constant" and cfg.potential.amplitude == 0.0 and cfg.N is None
    N = 1 if free_chain else cfg.N or DECAY_N_DEFAULT
    plan = cfg.plan(N, M)

    chi = delta_vector(N, cfg.origin(N))
    with naming("[lattice] m"):  # an m-extent the light cone outgrows by t_max is refused
        trace = record_decay(plan, chi, delta_vector(M), times)
    with naming(time_key):  # the fit window ends at --tmax or fit_hi, cut at the last sample
        fit = fit_decay_exponent(trace, fit_lo, min(t_hi, t_max))
    l2_drift, energy_drift = conservation_defects(trace.l2_norms, trace.energies, trace.psi0_l2, trace.psi0_energy)
    datafiles.write_trace_csv(trace, _out(cfg, "trace.csv"))
    datafiles.write_json(
        {
            "exponent": fit.exponent,
            "prefactor": fit.prefactor,
            "residual": fit.residual,
            "window": [fit.t_lo, fit.t_hi],
            "n_samples": fit.n_samples,
            "l2_drift": l2_drift,
            "energy_drift": energy_drift,
            "tolerance": CONSERVATION_TOL,
            "m_size": M,
        },
        _out(cfg, "fit.json"),
    )
    mode = "free chain" if free_chain else f"{plan.n_size} x {M} lattice"
    print(f"decay-fit: {mode}, exponent {fit.exponent:+.4f} over [{fit.t_lo:g}, {fit.t_hi:g}]")
    _check_conservation(l2_drift, energy_drift, CONSERVATION_TOL)
    return 0


def _cmd_lyapunov(cfg, args) -> int:
    import numpy as np

    from . import datafiles
    from .config import naming
    from .diagnostics import TRUNCATION_SITES, lyapunov_scan, truncation_energies

    need, values = max(args.length, TRUNCATION_SITES), cfg.potential.values
    if cfg.potential.family == "explicit" and len(values) < need:
        raise ValueError(
            f"[potential] values cover n in [0, {len(values)}), but lyapunov reads [0, {need}): "
            f"--length {args.length} sites and the {TRUNCATION_SITES}-site truncation"
        )
    with naming("--count"):  # the library's refusals name its parameters, the command's name its flags
        energies = truncation_energies(cfg.potential, count=args.count)
    with naming("--length"):
        gammas = lyapunov_scan(cfg.potential, energies, L=args.length)
    if not np.all(np.isfinite(gammas)):
        raise ValueError("[potential] amplitude: |E - V_n| passes the float64 range, so no growth rate is finite")
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


# each command: its help line, the flags it takes beyond _COMMON_FLAGS (argparse refuses any other) and its handler
_COMMANDS = {
    "spectrum": ("eigenvalues and the local spectral measure of the 1D chain", ("N",), _cmd_spectrum),
    "convolve": ("2D spectral measure via convolution, checked against the dense route", ("N", "M"), _cmd_convolve),
    "evolve": ("factorized time evolution with trajectory snapshots", ("N", "M", "tmax"), _cmd_evolve),
    "decay-fit": ("sup-norm decay trace and power-law fit", ("N", "M", "tmax"), _cmd_decay_fit),
    "lyapunov": ("transfer-matrix growth-rate scan over on-spectrum energies", ("length", "count"), _cmd_lyapunov),
    "verify": ("run the invariant suite and report per-check residuals", ("N", "M"), _cmd_verify),
}


if __name__ == "__main__":
    raise SystemExit(main())
