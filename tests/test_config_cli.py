import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from chainlab import cli, datafiles, diagnostics
from chainlab.config import (
    ConfigError,
    ExperimentConfig,
    Tolerances,
    parse_config,
    write_config,
)
from chainlab.operators import PotentialSpec, cosine_profile, delta_state, free_operator, sample_potential
from chainlab.spectral import SpectralMeasure, eigh_tridiagonal, spectral_measure_1d
from dense_reference import record_eigh_rows


# -- config parsing -------------------------------------------------------------


def test_empty_config_gives_defaults():
    assert parse_config("") == ExperimentConfig()


def test_round_trip_rich_config():
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3.0, theta=0.25, seed=7),
        N=48,
        M=96,
        boundary_n="dirichlet",
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


RICH_TEXT = """\
[potential]
family = almost_mathieu
amplitude = 3.0
omega = 0.6180339887498949
theta = 0.25
seed = 7

[lattice]
n = 48
m = 96
boundary_n = dirichlet
n0 = -10
m0 = -48
m_method = dft_multiplier

[time]
times = 0.0, 1.0, 2.5
fit_lo = 10.0
fit_hi = 150.0
snapshot_every = 2

[output]
directory = artifacts
binary_snapshots = true

[tolerances]
atom_merge = 1e-08
mass_conservation = 1e-10
measure_match = 1e-10
factorization = 1e-08
conservation = 1e-07
tail_mass = 1e-10
"""


def test_write_config_text_of_the_rich_config_is_pinned():
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3, theta=0.25, seed=7),  # amplitude 3 is written 3.0
        N=48,
        M=96,
        n0=-10,
        m0=-48,
        times=(0, 1, 2.5),
        fit_window=(10, 150),
        snapshot_every=2,
        output_dir="artifacts",
        binary_snapshots=True,
        tolerances=Tolerances(atom_merge=1e-8, conservation=1e-7),
    )
    assert write_config(cfg) == RICH_TEXT
    assert write_config(parse_config(RICH_TEXT)) == RICH_TEXT


def test_round_trip_sets_every_key_to_a_non_default_value():
    cfg = ExperimentConfig(
        potential=PotentialSpec(
            "quasiperiodic", amplitude=1.5, omega=0.3, theta=-0.7, profile=cosine_profile(16), seed=11,
            values=(1.0, -2.0),
        ),
        N=12,
        M=20,
        boundary_n="periodic",
        n0=-3,
        m0=-7,
        m_method="eigen",
        times=(0.5, 2.0),
        fit_window=(1.0, 9.0),
        snapshot_every=3,
        output_dir="elsewhere",
        binary_snapshots=True,
        tolerances=Tolerances(
            atom_merge=2e-9, mass_conservation=2e-10, measure_match=3e-10, factorization=4e-8, conservation=5e-9,
            tail_mass=6e-10,
        ),
    )
    text = write_config(cfg)
    assert parse_config(text) == cfg
    # every one of the 19 keys and 6 tolerances is written, none with its default line
    lines = [line for line in text.splitlines() if " = " in line]
    assert len(lines) == 25
    assert not set(lines) & set(write_config(ExperimentConfig()).splitlines())


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
    # boundary_m is gone: m_method alone fixes the m-operator
    for key in ("walrus", "boundary_m"):
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[lattice\]"):
            parse_config(f"[lattice]\n{key} = periodic\n")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert (cfg.potential.family, cfg.N, cfg.M, cfg.m_method) == ("almost_mathieu", 64, 256, "dft_multiplier")
    assert cfg.tolerances.tail_mass == 1e-10


@pytest.mark.parametrize(
    "key, value",
    [("tail_mass", "2"), ("tail_mass", "0"), ("tail_mass", "nan"), ("conservation", "-1")],
)
def test_out_of_range_tolerance_is_named_before_any_artifact(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=rf"\[tolerances\] {key}"):
        parse_config(f"[tolerances]\n{key} = {value}\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[tolerances]\n{key} = {value}\n")
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--config", str(cfg), "--tmax", "40", "--out", str(out)]) == 1
    assert f"[tolerances] {key}" in capsys.readouterr().err
    assert not out.exists()


def test_tolerance_ranges_keep_their_edges():
    assert Tolerances(atom_merge=0.0).atom_merge == 0.0
    with pytest.raises(ConfigError, match=r"\[tolerances\] atom_merge"):
        Tolerances(atom_merge=-1e-9)
    with pytest.raises(ConfigError, match=r"\[tolerances\] measure_match"):
        Tolerances(measure_match=0.0)
    with pytest.raises(ConfigError, match=r"\[tolerances\] factorization"):
        Tolerances(factorization=float("inf"))


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


@pytest.mark.parametrize(
    "text, key",
    [
        ("t_hi = 50\nsamples = 5\n", "t_hi"),
        ("samples = 5\n", "samples"),
        ("spacing = linear\n", "spacing"),
    ],
)
def test_time_range_keys_without_t_lo_rejected(text, key):
    with pytest.raises(ConfigError, match=rf"\[time\] {key} needs t_lo"):
        parse_config("[time]\n" + text)


@pytest.mark.parametrize(
    "text, key",
    [
        ("times = 1, 2\nt_lo = 3\nt_hi = 9\n", "t_lo"),
        ("times = 1, 2\nsamples = 5\n", "samples"),
        ("times = 1, 2\nspacing = linear\n", "spacing"),
    ],
)
def test_time_range_keys_beside_times_rejected(text, key):
    with pytest.raises(ConfigError, match=rf"\[time\] {key} cannot be combined with times"):
        parse_config("[time]\n" + text)


@pytest.mark.parametrize(
    "text, key",
    [
        ("t_lo = 1\nt_hi = 9\nsamples = -1\n", "samples"),
        ("t_lo = 1\nt_hi = 9\nsamples = 0\n", "samples"),
        ("t_lo = 9\nt_hi = 1\n", "t_hi"),
        ("t_lo = 1\nt_hi = inf\n", "t_hi"),
        ("t_lo = -1\nt_hi = 4\nspacing = linear\n", "t_lo"),
    ],
    ids=["samples-negative", "samples-zero", "t_lo-above-t_hi", "t_hi-inf", "t_lo-negative"],
)
def test_time_range_keys_name_themselves(text, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way to the refusal
        with pytest.raises(ConfigError, match=rf"^\[time\] {key} must") as exc:
            parse_config("[time]\n" + text)
    assert "np.float64" not in str(exc.value)


def test_descending_times_rejected():
    with pytest.raises(ConfigError):
        parse_config("[time]\ntimes = 2.0, 1.0\n")


def test_config_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(N=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(boundary_n="moebius")
    with pytest.raises(ConfigError):
        ExperimentConfig(snapshot_every=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(fit_window=(30.0, 20.0))


@pytest.mark.parametrize(
    "m_method, boundary", [("dft_multiplier", "periodic"), ("bessel_kernel", "dirichlet"), ("eigen", "dirichlet")]
)
def test_config_plan_takes_a2_from_m_method(m_method, boundary):
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3.0),
        m_method=m_method,
        tolerances=Tolerances(tail_mass=1e-6),
    )
    plan = cfg.plan(8, 12)
    assert plan.a2_operator().boundary == boundary
    np.testing.assert_array_equal(plan.a1_operator().diagonal, cfg.chain_operator(8)[1].diagonal)
    assert plan.tail_tol == 1e-6
    assert cfg.plan(1, 12).n_size == 1


_PROFILE = ", ".join(repr(0.1 * k) for k in range(16))
_FAMILY, _SEED = ("potential", "family"), ("potential", "seed")


@pytest.mark.parametrize(
    "text, overrides, potential",
    [
        (f"[potential]\nfamily = quasiperiodic\namplitude = 1.5\nprofile = {_PROFILE}\n",
         {_FAMILY: "almost_mathieu"}, PotentialSpec("almost_mathieu", amplitude=1.5)),
        ("[potential]\nfamily = explicit\nvalues = 0.5, -1.0\n",
         {_FAMILY: "constant", ("potential", "amplitude"): 2.0}, PotentialSpec("constant", amplitude=2.0)),
        ("[potential]\nfamily = explicit\nvalues = 0.5, -1.0\n",
         {_FAMILY: "explicit", ("potential", "theta"): 0.5}, PotentialSpec("explicit", theta=0.5, values=(0.5, -1.0))),
        ("", {_FAMILY: "random_iid"}, PotentialSpec("random_iid", seed=0)),
        ("[potential]\nseed = 4\n", {_FAMILY: "random_iid"}, PotentialSpec("random_iid", seed=4)),
        ("", {_FAMILY: "random_iid", _SEED: 3}, PotentialSpec("random_iid", seed=3)),
        ("[potential]\nfamily = random_iid\n", {_SEED: 5}, PotentialSpec("random_iid", seed=5)),
    ],
    ids=["switch-drops-profile", "switch-drops-values", "same-family-keeps-values", "iid-runs-seed-0",
         "iid-keeps-the-text-seed", "iid-takes-the-override-seed", "overrides-complete-the-text"],
)
def test_overrides_are_keys_written_over_the_text(text, overrides, potential):
    cfg = parse_config(text, overrides)
    assert cfg.potential == potential


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


def test_csv_round_trip_of_every_row_kind(tmp_path):
    pot = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=4), (-3, 5))
    edges = np.linspace(-1.0, 3.0, 9)
    density = np.arange(8) / 7.0 + 0.5j
    mu = SpectralMeasure(np.array([-2.5, 0.1]), np.array([0.25 + 0.5j, 1e-300 + 0j]), grid_edges=edges, density=density)
    datafiles.write_potential_csv(pot, tmp_path / "potential.csv")
    datafiles.write_measure_csv(mu, tmp_path / "measure.csv")
    kinds = [line.split(",")[0] for line in (tmp_path / "measure.csv").read_text().splitlines()[1:]]
    assert kinds == ["atom"] * 2 + ["bin"] * 8
    pot_again = datafiles.read_potential_csv(tmp_path / "potential.csv")  # n,V rows
    assert pot_again.n0 == -3
    np.testing.assert_array_equal(pot_again.values, pot.values)
    again = datafiles.read_measure_csv(tmp_path / "measure.csv")
    np.testing.assert_array_equal(again.energies, mu.energies)  # atom rows
    np.testing.assert_array_equal(again.weights, mu.weights)
    np.testing.assert_array_equal(again.grid_edges[:-1], edges[:-1])  # bin rows: left edges and masses
    np.testing.assert_allclose(again.density * again.bin_width, density * mu.bin_width, rtol=1e-15)


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("n,V\n0,1.5\n\n", 3, "0 fields, expected 2"),
        ("n,V\n0,1.5\n1\n2,0.5\n", 3, "1 fields, expected 2"),
        ("n,V\n0,1.5\n1,x\n", 3, "could not convert string to float"),
        ("kind,energy,weight_re,weight_im\natom,0.0,1.0,0.0\nbin,0.0,1.0\n", 3, "3 fields, expected 4"),
        ("kind,energy,weight_re,weight_im\natom,0.0,1.0,0.0\n\n", 3, "0 fields, expected 4"),
        ("kind,energy,weight_re,weight_im\nmass,0.0,1.0,0.0\n", 2, "unknown row kind 'mass'"),
    ],
    ids=["potential-blank", "potential-short", "potential-float", "measure-short", "measure-blank", "measure-kind"],
)
def test_csv_readers_name_the_bad_line(tmp_path, body, line, message):
    path = tmp_path / "table.csv"
    path.write_text(body)
    read = datafiles.read_potential_csv if body.startswith("n,V") else datafiles.read_measure_csv
    with pytest.raises(ValueError, match=rf"line {line}: .*{message}"):
        read(path)


def test_csv_readers_refuse_a_wrong_header(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("n,W\n0,1.5\n")
    with pytest.raises(ValueError, match="unexpected header 'n,W'.*expected 'n,V'"):
        datafiles.read_potential_csv(path)


def test_measure_writer_refuses_a_one_bin_density(tmp_path):
    mu = SpectralMeasure(np.zeros(0), np.zeros(0), grid_edges=np.array([0.0, 1.0]), density=np.array([1.0]))
    path = tmp_path / "measure.csv"
    with pytest.raises(ValueError, match="one-bin density"):
        datafiles.write_measure_csv(mu, path)
    assert not path.exists()


def test_trajectory_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    states = [rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(3)]
    times = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary(times, states, (-2, -3), path)
    t2, s2, start = datafiles.read_trajectory_binary(path)
    np.testing.assert_array_equal(t2, times)
    assert len(s2) == 3 and start == (-2, -3)
    for a, b in zip(states, s2):
        np.testing.assert_array_equal(a, b)


def test_trajectory_csv_rows_carry_the_window_start(tmp_path):
    # the site of index (i, j) is (n0 + i, m0 + j)
    state = np.arange(6).reshape(2, 3) * (1 + 2j)
    path = tmp_path / "traj.csv"
    datafiles.write_trajectory_csv([0.5], [state], (-1, 4), path)
    sites = [(n, m) for n in (-1, 0) for m in (4, 5, 6)]
    want = [f"0.5,{n},{m},{v.real!r},{v.imag!r}" for (n, m), v in zip(sites, state.ravel().tolist())]
    assert path.read_text().splitlines() == ["t,n,m,re,im", *want]


@pytest.mark.parametrize("write", ["write_trajectory_csv", "write_trajectory_binary"])
@pytest.mark.parametrize(
    "times, shapes, message",
    [
        ([0.0, 1.0, 2.0], [(4, 6)], "need one state per time, got 1 states for 3 times"),
        ([0.0], [(4, 6), (4, 6)], "need one state per time, got 2 states for 1 times"),
        ([], [], "need one state per time, got 0 states for 0 times"),
        ([0.0, 1.0], [(4, 6), (4, 7)], "all snapshots must share one N x M shape"),
        ([0.0], [(24,)], "all snapshots must share one N x M shape"),
    ],
)
def test_trajectory_writers_refuse_mismatched_snapshots(tmp_path, write, times, shapes, message):
    path = tmp_path / "traj"  # refused before the file is opened
    with pytest.raises(ValueError, match=message):
        getattr(datafiles, write)(times, [np.zeros(shape, dtype=complex) for shape in shapes], (0, 0), path)
    assert not path.exists()


@pytest.mark.parametrize("cut", ["header", "times", "last-snapshot", "trailing"])
def test_binary_trajectory_reader_rejects_a_file_of_the_wrong_length(tmp_path, cut):
    # 3 snapshots of 4 x 6 sites: 56 + 8 * 3 + 16 * 3 * 24 = 1232 bytes
    states = [delta_state(4, 6)] * 3
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary([0.0, 0.5, 1.0], states, (-2, -3), path)
    whole = path.read_bytes()
    assert len(whole) == 1232
    data = {"header": whole[:10], "times": whole[:60], "last-snapshot": whole[:-5], "trailing": whole + b"junk"}[cut]
    path.write_bytes(data)
    if cut == "header":
        message = "trajectory file is cut: 10 bytes, fewer than the 56-byte header"
    else:
        message = f"trajectory file of 3 snapshots of 4x6 sites needs 1232 bytes, has {len(data)}"
    with pytest.raises(ValueError, match=message):
        datafiles.read_trajectory_binary(path)


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
    assert len(report["checks"]) == 9


def _assert_deterministic(args, tmp_path, capsys):
    """Two runs of one command write the same files, byte for byte, and print the same lines."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert capsys.readouterr().out == stdout1
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    return out1


def test_cli_spectrum_artifacts_and_determinism(tmp_path, capsys):
    args = ["spectrum", "--family", "almost_mathieu", "--amplitude", "3", "--N", "24"]
    out1 = _assert_deterministic(args, tmp_path, capsys)
    assert sorted(p.name for p in out1.iterdir()) == [
        "eigenvalues.csv", "measure_delta.csv", "potential.csv", "summary.json"
    ]
    summary = _read_json(out1 / "summary.json")
    assert summary["N"] == 24
    assert abs(summary["total_mass"] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "args, config",
    [
        (["convolve", "--family", "random_iid", "--amplitude", "2", "--seed", "11", "--N", "12", "--M", "12"], None),
        (["verify", "--family", "almost_mathieu", "--amplitude", "3", "--N", "8", "--M", "8"], None),
        (["evolve", "--family", "almost_mathieu", "--amplitude", "3", "--N", "8", "--M", "16", "--tmax", "2"], None),
        (["decay-fit", "--family", "almost_mathieu", "--amplitude", "3", "--N", "16", "--tmax", "40"], None),
        (["decay-fit", "--tmax", "40"], None),
        (["decay-fit", "--family", "almost_mathieu", "--amplitude", "3", "--N", "16", "--tmax", "40"],
         "[lattice]\nm_method = eigen\n"),
    ],
    ids=["convolve", "verify", "evolve", "decay-fit", "decay-fit-free-chain", "decay-fit-eigen"],
)
def test_cli_artifacts_are_deterministic(tmp_path, capsys, args, config):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        args = args + ["--config", str(path)]
    _assert_deterministic(args, tmp_path, capsys)


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


def _warm_peak(tmp_path, argv) -> tuple[int, Path]:
    """tracemalloc's peak over a second, warm run of a command, and that run's output directory.

    The first run keeps imports and first-call setup out of the peak.
    """
    import tracemalloc

    assert cli.main([*argv, "--out", str(tmp_path / "warm")]) == 0
    out = tmp_path / "traced"
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def _sector_run(tmp_path, monkeypatch, argv) -> tuple[int, list[int], Path]:
    """_warm_peak of a command, and the row count of every np.linalg.eigh input of its traced run, in order."""
    rows = record_eigh_rows(monkeypatch)
    peak, out = _warm_peak(tmp_path, argv)
    half = len(rows) // 2
    assert rows[:half] == rows[half:]  # the warm run and the traced run solve the same blocks
    return peak, rows[half:], out


def _sector_bound(sizes: list[int], N: int, M: int) -> int:
    """A traced peak for a command whose dense oracle solves blocks of the given sizes one at a time.

    At most one block and its eigenvectors are alive, 2 d^2 float64 for the
    largest d.  The margin is 64 complex N x M arrays for what the command
    holds beside them: H's entry list (5 N M entries of 24 B, under two
    such arrays), its sorted copy, the measures and the states.  An N*M x
    N*M matrix alone would exceed the bound at 48 x 48 sizes.
    """
    return 2 * max(sizes) ** 2 * np.dtype(float).itemsize + 64 * N * M * np.dtype(complex).itemsize


def test_cli_convolve_solves_two_quarter_sectors_of_h_on_a_ring(tmp_path, capsys, monkeypatch):
    """On a ring the reflection about the delta and the half-turn split H; the delta has a part in two sectors.

    Per n the 48 m-sites form 11 orbits of four, {0, 24} (the delta's) and
    {12, 36}, which the reflection times the half-turn fixes; the two
    sectors take 13 and 12 orbits, 624 and 576 of the 2304 sites.  Each
    block is scattered from H's entries and solved alone: H is never formed.
    """
    argv = ["convolve", "--N", "48", "--M", "48", "--family", "random_iid"]
    peak, rows, out = _sector_run(tmp_path, monkeypatch, argv)
    assert _read_json(out / "report.json")["compared_to_direct"] is True
    assert "dense oracle on sectors of 624 and 576 of 2304 sites" in capsys.readouterr().out
    assert rows == [48, 624, 576]  # A1, then the two sectors; nothing of 2304 rows
    assert peak <= _sector_bound([624, 576], 48, 48)  # 8.2 MiB


def test_cli_convolve_solves_one_sector_at_a_time_on_an_even_window(tmp_path, capsys, monkeypatch):
    """On an even dirichlet window the reflection moves every site: the delta is half even and half odd.

    Both sectors of 1152 sites are solved, each block built just before its
    eigh and dropped after, so the peak holds one block and its
    eigenvectors: holding both blocks at once would add a third d^2 and
    break the bound.  LAPACK's eigh workspace is malloc'd outside
    tracemalloc's view, so the bound speaks for numpy's arrays only.
    """
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("[lattice]\nm_method = eigen\n")
    peak, rows, out = _sector_run(tmp_path, monkeypatch, ["convolve", "--config", str(cfg), "--N", "48", "--M", "48"])
    assert _read_json(out / "report.json")["compared_to_direct"] is True
    assert "dense oracle on sectors of 1152 and 1152 of 2304 sites" in capsys.readouterr().out
    assert rows == [48, 1152, 1152]
    assert peak <= _sector_bound([1152, 1152], 48, 48)  # 22.5 MiB


@pytest.mark.parametrize("size, sectors", [(32, [288, 256]), (48, [624, 576])])
def test_cli_verify_solves_only_sectors_of_h(tmp_path, monkeypatch, size, sectors):
    """verify's dense oracle is convolve's: the two sectors of H's m-axis symmetries the centre site has a part in."""
    peak, rows, out = _sector_run(tmp_path, monkeypatch, ["verify", "--N", str(size), "--M", str(size)])
    checks = _read_json(out / "verify.json")["checks"]
    assert "convolution_identity" in [c["name"] for c in checks]
    assert rows == [size, *sectors]  # A1, then the sectors; nothing of N*M rows
    assert peak <= _sector_bound(sectors, size, size)


@pytest.mark.parametrize("command, N", [("convolve", 16), ("verify", 2)])
@pytest.mark.parametrize("m_method", ["dft_multiplier", "bessel_kernel", "eigen"])
def test_cli_convolve_and_verify_build_no_m_basis(tmp_path, m_method, command, N):
    """Above the dense cap convolve and verify read the m-measure off one row of A2's basis, never the M x M table."""
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[lattice]\nm_method = {m_method}\n")
    peak, out = _warm_peak(tmp_path, [command, "--config", str(cfg), "--N", str(N), "--M", "4096"])
    if command == "convolve":
        assert _read_json(out / "report.json")["compared_to_direct"] is False
    else:
        assert _read_json(out / "verify.json")["all_passed"] is True
    assert peak < 4096**2 * np.dtype(float).itemsize  # 128 MiB


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
    times, states, start = datafiles.read_trajectory_binary(out / "trajectory.bin")
    np.testing.assert_array_equal(times, [0.0, 1.0, 2.0])
    assert states[0].shape == (16, 16) and start == (-8, -8)  # the centred window
    assert abs(np.linalg.norm(states[-1]) - 1.0) < 1e-12


def test_cli_evolve_honours_tail_mass_under_bessel(tmp_path):
    # a looser kernel tail narrows the bessel margin: 76 sites hold t = 5 at tail_mass = 1e-6,
    # while the default 1e-10 needs more
    cfg = tmp_path / "bessel.cfg"
    cfg.write_text("[lattice]\nm_method = bessel_kernel\n[tolerances]\ntail_mass = 1e-6\n")
    out = tmp_path / "e"
    argv = ["evolve", "--config", str(cfg), "--N", "8", "--M", "76", "--tmax", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    assert _read_json(out / "conservation.json")["passed"] is True
    cfg.write_text("[lattice]\nm_method = bessel_kernel\n")
    assert cli.main(argv) == 1


def _assert_eigen_convolve_m_delta(tmp_path, capsys, lattice, index):
    """convolve under eigen at 8 x 12: the m-measure is the dirichlet chain's at the index, and the dense check passes.

    An even window's reflection moves every site, so the oracle solves both of its sectors.
    """
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("[lattice]\nm_method = eigen\n" + lattice)
    out = tmp_path / "c"
    assert cli.main(["convolve", "--config", str(cfg), "--N", "8", "--M", "12", "--out", str(out)]) == 0
    assert "dense oracle on sectors of 48 and 48 of 96 sites" in capsys.readouterr().out
    phi = np.zeros(12, dtype=complex)
    phi[index] = 1.0
    want = spectral_measure_1d(eigh_tridiagonal(free_operator(12, "dirichlet")), phi)
    got = datafiles.read_measure_csv(out / "measure_m.csv")
    np.testing.assert_allclose(got.energies, want.energies, rtol=0, atol=1e-15)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-15)
    report = _read_json(out / "report.json")
    assert report["compared_to_direct"] is True
    assert report["max_atom_weight_discrepancy"] <= report["tolerance"]


def test_cli_convolve_under_eigen_uses_the_dirichlet_m_window(tmp_path, capsys):
    _assert_eigen_convolve_m_delta(tmp_path, capsys, "", 6)


def test_cli_convolve_puts_the_m_delta_at_m0(tmp_path, capsys):
    _assert_eigen_convolve_m_delta(tmp_path, capsys, "m0 = -2\n", 2)


@pytest.mark.parametrize(
    "command, lattice, window",
    [
        (["convolve", "--N", "8", "--M", "12"], "m0 = -20\n", "m0 = -20: the window [-20, -9] of 12 sites"),
        (["spectrum", "--N", "8"], "n0 = -20\n", "n0 = -20: the window [-20, -13] of 8 sites"),
        (["evolve", "--N", "8", "--M", "12"], "m0 = -20\n", "m0 = -20: the window [-20, -9] of 12 sites"),
        (["decay-fit", "--N", "8", "--tmax", "40"], "n0 = -20\n", "n0 = -20: the window [-20, -13] of 8 sites"),
        (["verify", "--N", "8", "--M", "8"], "n0 = -20\n", "n0 = -20: the window [-20, -13] of 8 sites"),
    ],
)
def test_cli_origin_outside_the_window_is_a_validation_error(tmp_path, capsys, command, lattice, window):
    cfg = tmp_path / "origin.cfg"
    cfg.write_text("[lattice]\n" + lattice)
    out = tmp_path / "o"
    assert cli.main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    assert f"{window} misses the origin" in capsys.readouterr().err
    assert not any(out.glob("*.json"))  # no centred measure written in its place


def test_cli_free_chain_decay_fit_places_its_delta_as_lattice_mode_does(tmp_path, monkeypatch):
    from chainlab import diagnostics

    starts = {}
    record = diagnostics.record_decay

    def spy(plan, chi, phi, times):
        starts[plan.n_size] = chi, phi
        return record(plan, chi, phi, times)

    monkeypatch.setattr(diagnostics, "record_decay", spy)
    cfg = tmp_path / "m0.cfg"
    cfg.write_text("[lattice]\nm0 = -3\n")
    run = ["decay-fit", "--config", str(cfg), "--tmax", "40", "--out"]
    assert cli.main(run + [str(tmp_path / "free")]) == 0
    assert cli.main(run + [str(tmp_path / "lattice"), "--N", "8"]) == 0
    (free_chi, free_phi), (lattice_chi, lattice_phi) = starts[1], starts[8]
    assert np.flatnonzero(free_chi).tolist() == [0] and np.flatnonzero(lattice_chi).tolist() == [4]
    assert np.flatnonzero(free_phi).tolist() == np.flatnonzero(lattice_phi).tolist() == [3]  # m0 = -3
    # on the ring a moved delta decays as the centred one does, up to rounding
    assert cli.main(["decay-fit", "--tmax", "40", "--out", str(tmp_path / "centred")]) == 0
    moved, centred = (np.loadtxt(tmp_path / d / "trace.csv", delimiter=",", skiprows=1) for d in ("free", "centred"))
    np.testing.assert_allclose(moved, centred, rtol=0, atol=1e-14)
    # the free chain is the one-site window [n0, n0 + 1), which must hold n = 0
    cfg.write_text("[lattice]\nn0 = -3\n")
    assert cli.main(run + [str(tmp_path / "bad")]) == 1


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


@pytest.mark.parametrize("m_method", ["dft_multiplier", "bessel_kernel", "eigen"])
def test_cli_decay_fit_forms_no_n_by_m_array(tmp_path, m_method):
    """decay-fit evolves the two 1D factors of its delta: its traced peak stays below one N x M array.

    Under eigen no M x M basis is formed either: at M = 4096 one would be 128 MiB.
    """
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[lattice]\nm_method = {m_method}\n")
    peak, out = _warm_peak(tmp_path, ["decay-fit", "--config", str(cfg), "--N", "128", "--tmax", "800"])
    m_size = _read_json(out / "fit.json")["m_size"]
    assert m_size == 4096
    assert peak < 128 * m_size * np.dtype(complex).itemsize  # 8 MiB


@pytest.mark.parametrize("command", ["evolve", "decay-fit"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_non_finite_times_are_a_config_error(tmp_path, capsys, command, bad):
    cfg = tmp_path / "times.cfg"
    cfg.write_text(f"[time]\ntimes = 0, 1, {bad}\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert "[time] times must be finite" in capsys.readouterr().err
    assert not out.exists()  # rejected at parse time, before the output directory


@pytest.mark.parametrize("key, bad", [("fit_hi", "inf"), ("fit_lo", "nan"), ("fit_hi", "nan")])
def test_cli_non_finite_fit_window_is_a_config_error(tmp_path, capsys, key, bad):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(f"[time]\n{key} = {bad}\n")
    out = tmp_path / "o"
    assert cli.main(["decay-fit", "--config", str(cfg), "--N", "8", "--out", str(out)]) == 1
    assert f"[time] {key} must be finite" in capsys.readouterr().err
    assert not out.exists()  # rejected at parse time, before the output directory


@pytest.mark.parametrize("command", ["evolve", "decay-fit"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_non_finite_tmax_is_a_validation_error(tmp_path, capsys, command, bad):
    out = tmp_path / "o"
    assert cli.main([command, "--tmax", bad, "--out", str(out)]) == 1
    assert "--tmax must be" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_cli_decay_fit_tmax_ends_the_fit_window(tmp_path):
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--tmax", "1000", "--out", str(out)]) == 0
    fit = _read_json(out / "fit.json")
    assert (fit["window"], fit["n_samples"]) == ([20.0, 1000.0], 25)
    assert -0.40 <= fit["exponent"] <= -0.28  # the free-chain band of criterion 4


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


def test_cli_lyapunov_refuses_more_energies_than_it_can_sample(tmp_path, capsys):
    out = tmp_path / "l"
    assert cli.main(["lyapunov", "--length", "1000", "--count", "429", "--out", str(out)]) == 1
    assert "count = 429 exceeds the 428 mid-spectrum eigenvalues" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists()


@pytest.mark.parametrize("count", [0, -1])
def test_cli_lyapunov_refuses_a_count_below_1(tmp_path, capsys, count):
    out = tmp_path / "l"
    assert cli.main(["lyapunov", "--length", "1000", "--count", str(count), "--out", str(out)]) == 1
    assert f"count = {count} must be positive" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists()


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


def test_cli_seed_alone_reseeds_a_random_iid_config(tmp_path):
    base = "[potential]\nfamily = random_iid\namplitude = 1\n"
    for seed in (1, 2):
        (tmp_path / f"s{seed}.cfg").write_text(base + f"seed = {seed}\n")
    runs = {
        "file1": ["--config", str(tmp_path / "s1.cfg")],
        "file2": ["--config", str(tmp_path / "s2.cfg")],
        "file1-seed2": ["--config", str(tmp_path / "s1.cfg"), "--seed", "2"],
    }
    for name, args in runs.items():
        assert cli.main(["spectrum", "--N", "16", *args, "--out", str(tmp_path / name)]) == 0
    potential = {name: (tmp_path / name / "potential.csv").read_bytes() for name in runs}
    assert potential["file1-seed2"] == potential["file2"] != potential["file1"]


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--amplitude", "inf", "amplitude must be finite"),
        ("--seed", "-1", "seed must be nonnegative, got -1"),
        ("--seed", str(2**64), f"seed must lie below 2^64, got {2**64}"),
    ],
    ids=["amplitude", "seed", "seed-2^64"],
)
def test_cli_refused_flag_names_its_key(tmp_path, capsys, flag, value, message):
    out = tmp_path / "s"
    assert cli.main(["spectrum", flag, value, "--out", str(out)]) == 1
    assert f"error: [potential]: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, text, message",
    [
        ("spectrum", ["--N", "1"], "", "[lattice] n must be at least 2, got 1"),
        ("spectrum", ["--M", "1"], "", "[lattice] m must be at least 2, got 1"),
        ("spectrum", [], "[lattice]\nboundary_n = moebius\n", "[lattice] boundary_n must be one of"),
        ("spectrum", [], "[lattice]\nm_method = fft\n", "[lattice] m_method must be one of"),
        ("spectrum", [], "[time]\nfit_lo = 30\nfit_hi = 20\n", "[time] fit_lo = 30.0 and fit_hi = 20.0 must"),
        ("spectrum", [], "[time]\nfit_lo = -1\n", "[time] fit_lo = -1.0 and fit_hi = 200.0 must"),
        ("spectrum", [], "[time]\nsnapshot_every = 0\n", "[time] snapshot_every must be at least 1, got 0"),
        ("decay-fit", ["--N", "8"], "[time]\nfit_lo = 0\n", "[time] fit_lo = 0: the geometric time grid"),
    ],
    ids=["n", "m", "boundary_n", "m_method", "fit_lo-above-fit_hi", "fit_lo-negative", "snapshot_every",
         "fit_lo-zero-decay-fit"],
)
def test_cli_config_refusal_names_its_key(tmp_path, capsys, command, flags, text, message):
    # [time] times and a non-finite fit_lo or fit_hi are refused by name in the tests above
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_cli_explicit_potential_outside_its_values_names_the_keys(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text("[potential]\nfamily = explicit\nvalues = 1, 2, 3\n")
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: [potential] values cover n in [0, 3), but [lattice] n = 16 and n0 put the window at [-8, 7]" in err
    assert not any(out.iterdir())
    cfg.write_text("[potential]\nfamily = explicit\nvalues = 1, 2, 3\n[lattice]\nn = 3\nn0 = 0\n")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0


def test_cli_family_flag_refuses_explicit(tmp_path, capsys):
    # explicit takes its values from a config file, which a family flag would drop
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "explicit", "--out", str(tmp_path / "s")])
    assert exc.value.code == 1
    assert "invalid choice: 'explicit'" in capsys.readouterr().err
    assert cli.main(["spectrum", "--family", "almost_mathieu", "--N", "8", "--out", str(tmp_path / "s")]) == 0


def test_cli_threads_sets_the_five_thread_variables(tmp_path, monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "1")  # restored after the test
    assert cli.main(["spectrum", "--threads", "3", "--N", "8", "--out", str(tmp_path / "s")]) == 0
    assert {name: os.environ[name] for name in names} == dict.fromkeys(names, "3")


def test_cli_threads_below_1_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--threads", "0", "--out", str(out)]) == 1
    assert "error: --threads must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_failure_exits_2_after_writing_verify_json(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("[tolerances]\nconservation = 1e-30\n")
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", str(cfg), "--N", "8", "--M", "8", "--out", str(out)]) == 2
    report = _read_json(out / "verify.json")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["all_passed"] is False and "energy_conservation" in failed
    assert f"check failed: invariants failed: {', '.join(failed)}" in capsys.readouterr().err


def test_cli_evolve_defaults_to_eleven_times_up_to_10(tmp_path):
    out = tmp_path / "e"
    assert cli.main(["evolve", "--N", "4", "--M", "8", "--out", str(out)]) == 0
    report = _read_json(out / "conservation.json")
    assert (report["t_max"], report["snapshots"]) == (10.0, 11)
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert sorted({float(row.split(",")[0]) for row in rows}) == np.linspace(0.0, 10.0, 11).tolist()


def test_cli_decay_fit_samples_the_config_times_without_tmax(tmp_path):
    # the dispersion benchmark's eigen step: [time] times and no --tmax
    times = [20.0 * 1.2**k for k in range(10)]
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("[lattice]\nm_method = eigen\n[time]\ntimes = " + ", ".join(map(repr, times)) + "\n")
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--config", str(cfg), "--N", "16", "--out", str(out)]) == 0
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == times
    fit = _read_json(out / "fit.json")
    assert (fit["window"], fit["n_samples"]) == ([20.0, times[-1]], 10)


@pytest.mark.parametrize("command", ["evolve", "decay-fit"])
@pytest.mark.parametrize(
    "time_section", ["times = 0, 1, 2", "t_lo = 20\nt_hi = 200\nsamples = 9"], ids=["times", "range"]
)
def test_cli_refuses_tmax_beside_config_times(tmp_path, capsys, command, time_section):
    # --tmax would replace the config's times unread: the pair is refused before the output directory is made
    cfg = tmp_path / "times.cfg"
    cfg.write_text(f"[time]\n{time_section}\n")
    out = tmp_path / "d"
    assert cli.main([command, "--config", str(cfg), "--N", "8", "--tmax", "4", "--out", str(out)]) == 1
    assert "--tmax cannot be combined with [time] times" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "times",
    ["1, 2, 3, 4, 5, 6, 7, 8, 9, 10", "10, 20", "1, 5, 10, 21", "10, 20, 20, 20, 20, 20, 20, 20, 20"],
    ids=["before", "at", "one-inside", "repeated"],
)
def test_cli_decay_fit_refuses_times_that_end_by_fit_lo(tmp_path, capsys, monkeypatch, times):
    # the default fit window starts at fit_lo = 20: a grid with fewer than MIN_FIT_SAMPLES
    # distinct times from there on leaves too little to fit, and is refused before any trace
    calls = []
    monkeypatch.setattr(diagnostics, "record_decay", lambda *args: calls.append(args))
    cfg = tmp_path / "early.cfg"
    cfg.write_text(f"[time]\ntimes = {times}\n")
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--config", str(cfg), "--N", "8", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "[time] times" in err and "fit_lo = 20" in err
    assert calls == [] and not any(out.iterdir())


def test_cli_lyapunov_length_below_the_minimum_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "l"
    assert cli.main(["lyapunov", "--length", "999", "--count", "2", "--out", str(out)]) == 1
    assert "transfer length 999 is below the minimum 1000" in capsys.readouterr().err
    assert not (out / "lyapunov.csv").exists()


def test_cli_lyapunov_refuses_explicit_values_short_of_its_window(tmp_path, capsys, monkeypatch):
    # the scan reads [0, --length) and the energies come from a 512-site truncation;
    # values short of either are refused by key before any eigensolve or scan
    calls = []
    monkeypatch.setattr(diagnostics, "truncation_energies", lambda *args, **kw: calls.append(args))
    monkeypatch.setattr(diagnostics, "lyapunov_scan", lambda *args, **kw: calls.append(args))
    cfg = tmp_path / "explicit.cfg"
    out = tmp_path / "l"
    for values, need in ((3, 1000), (999, 1000), (1000, 1200)):
        cfg.write_text("[potential]\nfamily = explicit\nvalues = " + ", ".join(["0.5"] * values) + "\n")
        argv = ["lyapunov", "--config", str(cfg), "--length", str(need), "--count", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        assert f"error: [potential] values cover n in [0, {values}), but lyapunov reads [0, {need})" in (
            capsys.readouterr().err
        )
    assert calls == [] and not any(out.iterdir())
    monkeypatch.undo()
    assert cli.main(["lyapunov", "--config", str(cfg), "--length", "1000", "--count", "2", "--out", str(out)]) == 0


def test_cli_validation_exit_codes(tmp_path):
    assert cli.main(["spectrum", "--N", "1", "--out", str(tmp_path / "x")]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "bogus"])
    assert exc.value.code == 1


def test_cli_io_error_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    assert cli.main(["spectrum", "--out", str(blocker / "sub")]) == 3
