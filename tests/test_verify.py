"""The verify suite: one dense solve, no silent drops above the cap, and the bessel_kernel m-window rule."""
import json

import pytest

from chainlab import cli, verify
from chainlab.config import ExperimentConfig


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize(
    "m_method, N, M",
    [("dft_multiplier", 16, 16), ("eigen", 16, 16), ("bessel_kernel", 8, 96)],
)
def test_verify_solves_each_dense_h_once(monkeypatch, m_method, N, M):
    # the dense H is built from the plan's A2, so one solve serves both dense checks
    solves = _count_calls(monkeypatch, "dense_eigensystem")
    results = verify.run_verification(ExperimentConfig(N=N, M=M, m_method=m_method))
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "convolution_identity" in names and "factorization_vs_direct" in names
    assert len(solves) == 1


def test_cli_verify_above_the_dense_cap_keeps_its_oracle_free_checks(tmp_path):
    # 128 x 128 sites exceed DENSE_SITE_CAP: the Chebyshev route stands in for the dense propagator
    out = tmp_path / "v"
    assert cli.main(["verify", "--N", "128", "--M", "128", "--out", str(out)]) == 0
    with open(out / "verify.json") as fh:
        checks = {c["name"]: c for c in json.load(fh)["checks"]}
    assert "convolution_identity" not in checks  # needs the dense 2D eigensystem
    for name in ("factorization_vs_direct", "convolution_mass_product"):
        assert checks[name]["passed"] is True


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
