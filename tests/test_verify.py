"""The verify suite: one oracle per check and no eigh of all of H, no silent drops above the cap,
and the bessel_kernel m-window rule."""
import json

import numpy as np
import pytest

from chainlab import cli, verify
from chainlab.config import ExperimentConfig


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
    "convolution_mass_product",
    "mass_multiplicativity_random",
    "factorization_vs_direct",
    "unitarity",
    "energy_conservation",
    "sweep_order_swap",
    "mixed_norm_chain",
    "n_fiber_isometry",
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
    assert "convolution_identity" not in checks  # needs the dense 2D operator
    for name in ("factorization_vs_direct", "convolution_mass_product"):
        assert checks[name]["passed"] is True


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
    assert residuals["convolution_mass_product"] == report["mass_defect"]


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
