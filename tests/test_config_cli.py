import json

import numpy as np
import pytest

from chainlab import cli, datafiles
from chainlab.config import (
    ConfigError,
    ExperimentConfig,
    Tolerances,
    parse_config,
    write_config,
)
from chainlab.operators import PotentialSpec, delta_state, sample_potential
from chainlab.spectral import SpectralMeasure


# -- config parsing -------------------------------------------------------------


def test_empty_config_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_round_trip_rich_config():
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.25, seed=7),
        N=48,
        M=96,
        boundary_n="dirichlet",
        boundary_m="periodic",
        n0=-10,
        m0=-48,
        m_method="dft_multiplier",
        times=(0.0, 1.0, 2.5),
        fit_window=(10.0, 150.0),
        snapshot_every=2,
        output_dir="artifacts",
        binary_snapshots=True,
        tolerances=Tolerances(atom_merge=1e-8, conservation=1e-7),
    )
    assert parse_config(write_config(cfg)) == cfg


def test_round_trip_explicit_values():
    cfg = ExperimentConfig(
        potential=PotentialSpec("explicit", amplitude=1.0, values=(0.5, -1.25, 3.0))
    )
    again = parse_config(write_config(cfg))
    assert again.potential.values == (0.5, -1.25, 3.0)


def test_write_config_to_file(tmp_path):
    path = tmp_path / "exp.cfg"
    cfg = ExperimentConfig(N=8, M=8)
    write_config(cfg, path)
    assert parse_config(path.read_text()) == cfg


def test_unknown_section_is_named():
    with pytest.raises(ConfigError, match="wrong"):
        parse_config("[wrong]\nx = 1\n")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="walrus"):
        parse_config("[lattice]\nwalrus = 1\n")


def test_bad_value_names_section_and_key():
    with pytest.raises(ConfigError, match=r"\[lattice\] n"):
        parse_config("[lattice]\nn = banana\n")


def test_time_grid_from_bounds_linear():
    cfg = parse_config("[time]\nt_lo = 0.0\nt_hi = 4.0\nsamples = 5\nspacing = linear\n")
    np.testing.assert_allclose(cfg.times, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_time_grid_geometric_default():
    cfg = parse_config("[time]\nt_lo = 1.0\nt_hi = 100.0\nsamples = 3\n")
    np.testing.assert_allclose(cfg.times, [1.0, 10.0, 100.0])


def test_geometric_grid_needs_positive_start():
    with pytest.raises(ConfigError, match="t_lo"):
        parse_config("[time]\nt_lo = 0.0\nt_hi = 4.0\n")


def test_descending_times_rejected():
    with pytest.raises(ConfigError):
        parse_config("[time]\ntimes = 2.0, 1.0\n")


def test_config_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(N=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(boundary_m="moebius")
    with pytest.raises(ConfigError):
        ExperimentConfig(snapshot_every=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(fit_window=(30.0, 20.0))


def test_seed_coherence():
    # a seed on the potential wins; a bare experiment seed propagates down
    cfg = ExperimentConfig(potential=PotentialSpec("random_iid", amplitude=1.0, seed=5), seed=9)
    assert cfg.seed == 5
    cfg = ExperimentConfig(seed=9)
    assert cfg.potential.seed == 9


# -- data files -----------------------------------------------------------------


def test_potential_csv_round_trip(tmp_path):
    pot = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=2), (-5, 9))
    path = tmp_path / "potential.csv"
    datafiles.write_potential_csv(pot, path)
    again = datafiles.read_potential_csv(path)
    assert again.n0 == -5
    np.testing.assert_array_equal(again.values, pot.values)


def test_atomic_measure_csv_round_trip(tmp_path):
    mu = SpectralMeasure.from_atoms([-1.0, 0.25], [0.5, 0.5 + 0.125j])
    path = tmp_path / "measure.csv"
    datafiles.write_measure_csv(mu, path)
    again = datafiles.read_measure_csv(path)
    np.testing.assert_array_equal(again.energies, mu.energies)
    np.testing.assert_array_equal(again.weights, mu.weights)


def test_binned_measure_csv_round_trip(tmp_path):
    edges = np.linspace(-2.0, 2.0, 17)
    dens = np.arange(16, dtype=float) / 16.0
    mu = SpectralMeasure(np.array([0.5]), np.array([0.25 + 0j]), grid_edges=edges, density=dens)
    path = tmp_path / "measure.csv"
    datafiles.write_measure_csv(mu, path)
    again = datafiles.read_measure_csv(path)
    np.testing.assert_allclose(again.grid_edges, edges, atol=1e-15)
    np.testing.assert_allclose(again.density, dens, atol=1e-15)
    np.testing.assert_array_equal(again.energies, mu.energies)


def test_trajectory_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    states = []
    for _ in range(3):
        amp = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        states.append(delta_state(4, 6).with_amplitudes(amp))
    times = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary(times, states, path)
    t2, s2 = datafiles.read_trajectory_binary(path)
    np.testing.assert_array_equal(t2, times)
    assert len(s2) == 3
    for a, b in zip(states, s2):
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert (a.n0, a.m0) == (b.n0, b.m0)


def test_write_json_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "x.json"
    datafiles.write_json({"b": 1, "a": 2}, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')


# -- command-line harness ----------------------------------------------------------


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_cli_verify_passes_on_free_lattice(tmp_path):
    out = tmp_path / "v"
    assert cli.main(["verify", "--N", "8", "--M", "8", "--out", str(out)]) == 0
    report = _read_json(out / "verify.json")
    assert report["all_passed"] is True
    assert len(report["checks"]) >= 14


def test_cli_spectrum_artifacts_and_determinism(tmp_path):
    args = ["spectrum", "--family", "almost_mathieu", "--amplitude", "3", "--N", "24"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    for name in ("potential.csv", "eigenvalues.csv", "measure_delta.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = _read_json(out1 / "summary.json")
    assert summary["N"] == 24
    assert abs(summary["total_mass"] - 1.0) < 1e-12


def test_cli_convolve_checks_against_direct_route(tmp_path):
    out = tmp_path / "c"
    rc = cli.main(
        ["convolve", "--family", "almost_mathieu", "--amplitude", "3", "--out", str(out)]
    )
    assert rc == 0
    report = _read_json(out / "report.json")
    assert report["compared_to_direct"] is True
    assert report["max_atom_weight_discrepancy"] <= 1e-10
    assert (out / "direct_2d.csv").exists()


def test_cli_convolve_fails_on_impossible_tolerance(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("[tolerances]\nmeasure_match = 1e-22\n")
    out = tmp_path / "c"
    rc = cli.main(["convolve", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    # the report is still written for post-mortem
    assert (out / "report.json").exists()


def test_cli_evolve_conserves(tmp_path):
    out = tmp_path / "e"
    rc = cli.main(["evolve", "--tmax", "4", "--out", str(out)])
    assert rc == 0
    report = _read_json(out / "conservation.json")
    assert report["passed"] is True
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,n,m,re,im"


def test_cli_evolve_binary_snapshots(tmp_path):
    cfg = tmp_path / "bin.cfg"
    cfg.write_text("[output]\nbinary_snapshots = true\n[time]\ntimes = 0.0, 1.0, 2.0\n")
    out = tmp_path / "e"
    assert cli.main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    times, states = datafiles.read_trajectory_binary(out / "trajectory.bin")
    np.testing.assert_array_equal(times, [0.0, 1.0, 2.0])
    assert states[0].shape == (16, 16)
    assert abs(np.linalg.norm(states[-1].amplitudes) - 1.0) < 1e-12


def test_cli_decay_fit_free_chain(tmp_path):
    out = tmp_path / "d"
    rc = cli.main(["decay-fit", "--tmax", "40", "--out", str(out)])
    assert rc == 0
    fit = _read_json(out / "fit.json")
    assert -0.45 <= fit["exponent"] <= -0.25
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[0] == "t,sup_norm,l2n_supm,supm_l2n,l2_norm,energy"
    assert len(trace_lines) == 26  # header + 25 samples
    assert fit["m_size"] == 256  # wrap-free M for t = 40, rounded up to a power of two
    assert fit["tolerance"] == 1e-9
    assert 0.0 <= fit["l2_drift"] <= 1e-9 and 0.0 <= fit["energy_drift"] <= 1e-9


def test_cli_decay_fit_fails_on_impossible_conservation_tolerance(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("[tolerances]\nconservation = 1e-30\n")
    out = tmp_path / "d"
    rc = cli.main(["decay-fit", "--config", str(cfg), "--tmax", "40", "--out", str(out)])
    assert rc == 2
    fit = _read_json(out / "fit.json")  # written before the check, for post-mortem
    assert fit["tolerance"] == 1e-30
    assert max(fit["l2_drift"], fit["energy_drift"]) > 1e-30


def test_cli_lyapunov_scan(tmp_path):
    out = tmp_path / "l"
    rc = cli.main(
        [
            "lyapunov",
            "--family",
            "almost_mathieu",
            "--amplitude",
            "3",
            "--length",
            "20000",
            "--count",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = (out / "lyapunov.csv").read_text().splitlines()
    assert rows[0] == "energy,gamma,L"
    assert len(rows) == 4
    summary = _read_json(out / "summary.json")
    assert summary["gamma_min"] > 0.3


def test_cli_seed_override_controls_random_potential(tmp_path):
    base = ["spectrum", "--family", "random_iid", "--amplitude", "1", "--N", "16"]
    out1, out2, out3 = (tmp_path / x for x in "abc")
    assert cli.main(base + ["--seed", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(out2)]) == 0
    assert cli.main(base + ["--seed", "1", "--out", str(out3)]) == 0
    a = (out1 / "potential.csv").read_bytes()
    b = (out2 / "potential.csv").read_bytes()
    c = (out3 / "potential.csv").read_bytes()
    assert a != b and a == c


def test_cli_validation_exit_codes(tmp_path):
    assert cli.main(["spectrum", "--N", "1", "--out", str(tmp_path / "x")]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "bogus"])
    assert exc.value.code == 1


def test_cli_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    assert cli.main(["spectrum", "--out", str(blocker / "sub")]) == 3
