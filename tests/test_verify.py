"""The verify suite: one oracle per check and no eigh of all of H, no silent drops above the cap,
the bessel_kernel m-window rule, and the fault screen that the suite's checks answer to."""
import dataclasses
import json

import numpy as np
import pytest

from chainlab import cli, evolution, operators, verify
from chainlab.config import ExperimentConfig
from chainlab.evolution import PropagatorPlan
from chainlab.operators import Operator1D, PotentialSpec, build_operator_1d
from chainlab.spectral import EigenSystem


def _record_dense_solves(monkeypatch):
    """Patch verify.dense_measure and np.linalg.eigh to log their calls: ("dense_measure",) and ("eigh", rows)."""
    calls = []
    dense_measure, eigh = verify.dense_measure, np.linalg.eigh

    def counted_measure(*args, **kwargs):
        calls.append(("dense_measure",))
        return dense_measure(*args, **kwargs)

    def counted_eigh(a, *args, **kwargs):
        calls.append(("eigh", np.shape(a)[0]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(verify, "dense_measure", counted_measure)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return calls


# verify.json's checks in order, at a lattice within DENSE_SITE_CAP
VERIFY_CHECKS = [
    "separability_pure_tensor",
    "h2d_hermitian",
    "eigen_residual_n",
    "eigen_gram_n",
    "measure_mass_delta",
    "convolution_identity",
    "factorization_vs_direct",
    "unitarity",
    "energy_conservation",
]


@pytest.mark.parametrize(
    "m_method, N, M",
    [("dft_multiplier", 16, 16), ("eigen", 16, 16), ("bessel_kernel", 8, 96)],
)
def test_verify_solves_each_dense_h_once(monkeypatch, m_method, N, M):
    # the convolution check reads H's entry list once through dense_measure,
    # which solves only sectors of H's m-axis symmetries; the propagator check
    # takes the Chebyshev route, so no eigh ever sees all N*M rows of H
    calls = _record_dense_solves(monkeypatch)
    results = verify.run_verification(ExperimentConfig(N=N, M=M, m_method=m_method))
    assert all(r.passed for r in results)
    assert [r.name for r in results] == VERIFY_CHECKS
    assert calls.count(("dense_measure",)) == 1
    rows = [c[1] for c in calls if c[0] == "eigh"]  # A1 and H's sectors
    assert rows and max(rows) < N * M


def test_cli_verify_above_the_dense_cap_keeps_its_oracle_free_checks(monkeypatch, tmp_path, capsys):
    # 128 x 128 sites exceed DENSE_SITE_CAP: the Chebyshev route is the propagator oracle at every size,
    # and stdout names the check left out, with N*M and the cap; verify.json only lists the checks run
    calls = _record_dense_solves(monkeypatch)
    out = tmp_path / "v"
    assert cli.main(["verify", "--N", "128", "--M", "128", "--out", str(out)]) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines() if line.startswith("skip")]
    assert len(skipped) == 1 and skipped[0].startswith("skip  convolution_identity")
    assert "N*M = 16384 above DENSE_SITE_CAP = 4096" in skipped[0]
    assert calls and all(c[0] == "eigh" and c[1] < 128 * 128 for c in calls)  # A1 alone
    with open(out / "verify.json") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert list(checks) == [name for name in VERIFY_CHECKS if name != "convolution_identity"]  # needs the dense H
    assert all(c["passed"] for c in checks.values())


@pytest.mark.parametrize("m_method, N, M", [("dft_multiplier", 16, 16), ("eigen", 12, 48)])
def test_verify_and_convolve_run_one_crosscheck(tmp_path, m_method, N, M):
    # both commands take the centred delta through verify.delta_crosscheck, so their residuals are the same floats
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(f"[lattice]\nm_method = {m_method}\n")
    argv = ["--config", str(cfg), "--family", "almost_mathieu", "--amplitude", "3", "--N", str(N), "--M", str(M)]
    assert cli.main(["verify", *argv, "--out", str(tmp_path / "v")]) == 0
    assert cli.main(["convolve", *argv, "--out", str(tmp_path / "c")]) == 0
    with open(tmp_path / "v" / "verify.json") as fh:
        residuals = {c["name"]: c["residual"] for c in json.load(fh)["checks"]}
    with open(tmp_path / "c" / "report.json") as fh:
        report = json.load(fh)
    assert residuals["convolution_identity"] == report["max_atom_weight_discrepancy"]


def test_delta_crosscheck_rejects_a_site_off_the_lattice():
    plan = ExperimentConfig().plan(4, 6)
    for i, j in ((-1, 0), (4, 0), (0, -1), (0, 6)):
        with pytest.raises(ValueError, match=rf"site \({i}, {j}\) is outside the 4 x 6 lattice"):
            verify.delta_crosscheck(plan, i, j, 1e-9)


def _bessel_config(tmp_path):
    path = tmp_path / "bessel.cfg"
    path.write_text("[lattice]\nm_method = bessel_kernel\n")
    return str(path)


def test_cli_verify_under_bessel_kernel_passes(tmp_path):
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", _bessel_config(tmp_path), "--N", "8", "--M", "96", "--out", str(out)]) == 0
    with open(out / "verify.json") as fh:
        report = json.load(fh)
    assert report["all_passed"] is True
    assert "unitarity" in [c["name"] for c in report["checks"]]


def test_cli_verify_under_bessel_kernel_names_the_minimal_window(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", _bessel_config(tmp_path), "--N", "8", "--M", "16", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "m-window of 16 sites" in err and "at least 81 sites" in err
    assert not (out / "verify.json").exists()


# -- fault screen -----------------------------------------------------------------
#
# Each fault is a small error patched into one route that verify checks.  Every
# fault must fail some check on some config (a config on which run_verification
# raises does not count), and every check must be the only one to fail under
# some fault on some config: a check that fails only where another one fails
# too adds nothing to the suite.

_AMO = PotentialSpec("almost_mathieu", amplitude=3.0)
SCREEN_CONFIGS = {
    "dft_multiplier-32x32": ExperimentConfig(potential=_AMO, N=32, M=32),
    "eigen-16x16": ExperimentConfig(potential=_AMO, N=16, M=16, m_method="eigen"),
    "bessel_kernel-8x96": ExperimentConfig(potential=_AMO, N=8, M=96, m_method="bessel_kernel"),
}


def _sweep_time(sweep, scale):
    def install(monkeypatch):
        run = getattr(PropagatorPlan, sweep)
        monkeypatch.setattr(PropagatorPlan, sweep, lambda plan, a, t: run(plan, a, scale * t))

    return install


def _sweep_output(sweep, edit):
    """A fault that passes the sweep's output through edit(plan, out)."""

    def install(monkeypatch):
        run = getattr(PropagatorPlan, sweep)
        monkeypatch.setattr(PropagatorPlan, sweep, lambda plan, a, t: edit(plan, run(plan, a, t)))

    return install


def _a1_eigensystem(edit):
    """A fault that edits copies of A1's eigenvalues and eigenvector columns in place."""

    def install(monkeypatch):
        solve = evolution.eigh_tridiagonal

        def faulty(a1):
            es = solve(a1)
            lam, vec = es.eigenvalues.copy(), es.eigenvectors.copy()
            edit(lam, vec)
            return EigenSystem(lam, vec, es.source)

        monkeypatch.setattr(evolution, "eigh_tridiagonal", faulty)

    return install


def _shift_one_eigenvalue(lam, vec):
    lam[lam.size // 2] += 1e-8


def _scale_two_columns(lam, vec):
    vec[:, 0] *= 1 + 1e-8
    vec[:, 1] *= 1 - 1e-8


def _rotate_two_columns(pick, angle):
    """An edit that rotates the two eigenvector columns pick(vec) into each other by angle."""

    def edit(lam, vec):
        cols = list(pick(vec))
        c, s = np.cos(angle), np.sin(angle)
        vec[:, cols] = vec[:, cols] @ np.array([[c, -s], [s, c]])

    return edit


def _measure(builder, **edits):
    """A fault that passes the named fields of the measure verify.<builder> returns through their edits."""

    def install(monkeypatch):
        build = getattr(verify, builder)

        def faulty(*args, **kwargs):
            mu = build(*args, **kwargs)
            return dataclasses.replace(mu, **{field: edit(getattr(mu, field)) for field, edit in edits.items()})

        monkeypatch.setattr(verify, builder, faulty)

    return install


def _a2_part_of_h(a2_part):
    """A fault that takes apply_h2d's A2 term from a2_part(a2, amp)."""

    def install(monkeypatch):
        def faulty(state, a1, a2):
            return a1.apply(state) + a2_part(a2, state)

        for module in (operators, evolution, verify):  # each calls apply_h2d by its own name
            monkeypatch.setattr(module, "apply_h2d", faulty)

    return install


def _one_way_ring_seam(monkeypatch):
    apply = Operator1D.apply

    def faulty(op, vec):
        out = apply(op, vec)
        if op.boundary == "periodic":  # the hop from site M - 1 to site 0 is 1 - 1e-8; the one back stays 1
            out[0] += 1e-8 * np.asarray(vec)[-1]
        return out

    monkeypatch.setattr(Operator1D, "apply", faulty)


FAULTS = {
    "n_sweep_time": _sweep_time("n_sweep", 1 + 1e-9),
    "m_sweep_time": _sweep_time("m_sweep", 1 + 1e-6),
    "m_sweep_backwards": _sweep_time("m_sweep", -1.0),
    "n_sweep_output": _sweep_output("n_sweep", lambda plan, out: (1 + 1e-8) * out),
    "n_sweep_output_by_2e-9": _sweep_output("n_sweep", lambda plan, out: (1 + 2e-9) * out),
    "m_sweep_output": _sweep_output("m_sweep", lambda plan, out: (1 + 1e-8) * out),
    "m_sweep_leaks_a2": _sweep_output("m_sweep", lambda plan, out: out + 1e-9 * plan.a2_operator().apply(out.T).T),
    "a1_eigenvalue": _a1_eigensystem(_shift_one_eigenvalue),
    "a1_eigenvector_norms": _a1_eigensystem(_scale_two_columns),
    "a1_eigenvector_rotation": _a1_eigensystem(_rotate_two_columns(lambda vec: (0, -1), 1e-6)),
    "a1_end_eigenvector_rotation": _a1_eigensystem(  # the columns peaking at the chain's two ends
        _rotate_two_columns(lambda vec: (np.abs(vec[0]).argmax(), np.abs(vec[-1]).argmax()), 3e-9)
    ),
    "a2_delta_weights": _measure("free_delta_measure", weights=lambda w: (1 + 1e-8) * w),
    "a2_delta_energies": _measure("free_delta_measure", energies=lambda e: e + 1e-6),
    "convolution_masses": _measure("convolve_measures", weights=lambda w: (1 + 1e-8) * w),
    "convolution_masses_by_5e-10": _measure("convolve_measures", weights=lambda w: (1 + 5e-10) * w),
    "h_a2_part": _a2_part_of_h(lambda a2, amp: (1 + 1e-8) * a2.apply(amp.T).T),
    "h_m_hop_wraps": _a2_part_of_h(  # a ring's stencil on every m-axis, so a dirichlet window wraps
        lambda a2, amp: build_operator_1d(size=a2.size, boundary="periodic").apply(amp.T).T
    ),
    "one_way_ring_seam": _one_way_ring_seam,
}


def _failed_checks(cfg):
    """The names of the checks that fail on cfg, or None when run_verification raises."""
    try:
        return [r.name for r in verify.run_verification(cfg) if not r.passed]
    except ValueError:
        return None


@pytest.fixture(scope="module")
def screen():
    """{fault: {config: _failed_checks under the fault}}."""
    table = {}
    for fault, install in FAULTS.items():
        with pytest.MonkeyPatch.context() as monkeypatch:
            install(monkeypatch)
            table[fault] = {name: _failed_checks(cfg) for name, cfg in SCREEN_CONFIGS.items()}
    return table


@pytest.mark.parametrize("config", SCREEN_CONFIGS)
def test_fault_screen_configs_pass_without_a_fault(config):
    assert _failed_checks(SCREEN_CONFIGS[config]) == []


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_screen_every_fault_fails_a_check(screen, fault):
    assert any(screen[fault].values()), f"{fault} fails no check: {screen[fault]}"


@pytest.mark.parametrize("check", VERIFY_CHECKS)
def test_fault_screen_every_check_is_alone_to_fail_on_some_fault(screen, check):
    alone = [(fault, config) for fault, row in screen.items() for config, failed in row.items() if failed == [check]]
    assert alone, f"every fault that fails {check} fails another check too: {screen}"


def test_fault_screen_unnormalized_eigenvectors_fail_eigen_gram_n_on_the_ring(screen):
    # two eigenvector columns off unit norm by 1e-8: on the 32 x 32 ring no other check sees it
    assert screen["a1_eigenvector_norms"]["dft_multiplier-32x32"] == ["eigen_gram_n"]
