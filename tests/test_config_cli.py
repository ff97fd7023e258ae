import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chainlab import cli, datafiles, diagnostics
from chainlab.config import (
    ConfigError,
    ExperimentConfig,
    naming,
    parse_config,
    write_config,
)
from chainlab.operators import PotentialSpec, delta_state, delta_vector, free_operator, sample_potential
from chainlab.spectral import SpectralMeasure, eigh_tridiagonal, spectral_measure_1d
from chainlab.verify import delta_crosscheck
from dense_reference import cosine_samples, record_eigh_rows


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
        m_method="dft_multiplier",
        times=(0.0, 1.0, 2.5),
        fit_lo=10.0,
        fit_hi=150.0,
        output_dir="artifacts",
        binary_snapshots=True,
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
m_method = dft_multiplier

[time]
times = 0.0, 1.0, 2.5
fit_lo = 10.0
fit_hi = 150.0

[output]
directory = artifacts
binary_snapshots = true
"""


def test_write_config_text_of_the_rich_config_is_pinned():
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3, theta=0.25, seed=7),  # amplitude 3 is written 3.0
        N=48,
        M=96,
        n0=-10,
        times=(0, 1, 2.5),
        fit_lo=10,
        fit_hi=150,
        output_dir="artifacts",
        binary_snapshots=True,
    )
    assert write_config(cfg) == RICH_TEXT
    assert write_config(parse_config(RICH_TEXT)) == RICH_TEXT


def test_round_trip_sets_every_key_to_a_non_default_value():
    cfg = ExperimentConfig(
        potential=PotentialSpec(
            "quasiperiodic", amplitude=1.5, omega=0.3, theta=-0.7, profile=cosine_samples(16), seed=11,
            values=(1.0, -2.0),
        ),
        N=12,
        M=20,
        boundary_n="periodic",
        n0=-3,
        m_method="eigen",
        times=(0.5, 2.0),
        fit_lo=1.0,
        fit_hi=9.0,
        output_dir="elsewhere",
        binary_snapshots=True,
    )
    text = write_config(cfg)
    assert parse_config(text) == cfg
    # every one of the 17 keys is written, none with its default line
    lines = [line for line in text.splitlines() if " = " in line]
    assert len(lines) == 17
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


# keys that are gone: the [time] range t_lo/t_hi/samples/spacing (write times instead), snapshot_every
# (evolve writes every state), the [tolerances] section (each check's threshold is a module constant)
# and [lattice] m0 (the m-delta is the middle column: V is constant along m)
REMOVED_KEYS = [
    ("lattice", "m0"),
    *(("time", key) for key in ("t_lo", "t_hi", "samples", "spacing", "snapshot_every")),
    *(("tolerances", key) for key in
      ("atom_merge", "mass_conservation", "measure_match", "factorization", "conservation", "tail_mass")),
]


# boundary_m is gone: m_method alone fixes the m-operator
@pytest.mark.parametrize("section, key", [("lattice", "walrus"), ("lattice", "boundary_m"), *REMOVED_KEYS])
def test_unknown_key_is_named(section, key):
    if section == "tolerances":
        unknown = r"unknown section \[tolerances\]"
    else:
        unknown = rf"unknown key '{key}' in section \[{section}\]"
    with pytest.raises(ConfigError, match=unknown):
        parse_config(f"[{section}]\n{key} = 1\n")


def test_config_keys_are_the_model_only():
    # four sections and 17 keys; a check's threshold is a module constant, and the plan carries no tolerance
    from chainlab import config
    from chainlab.evolution import PropagatorPlan

    assert len(config._KEYS) == 17
    assert {name.partition("]")[0] + "]" for name in config._KEYS} == {"[potential]", "[lattice]", "[time]", "[output]"}
    assert [f.name for f in dataclasses.fields(PropagatorPlan)] == ["a1", "es1", "m_method", "m_size"]


def test_cli_refuses_a_removed_key_before_any_artifact(tmp_path, capsys):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("[tolerances]\nconservation = 1e-30\n")
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--config", str(cfg), "--tmax", "40", "--out", str(out)]) == 1
    assert "unknown section [tolerances]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, size",
    [
        (["verify", "--N", "4", "--M", "4", "--amplitude", "1e15"], "3.55 PiB"),  # a Chebyshev order of 5e14
        (["decay-fit", "--N", "4", "--tmax", "1e15"], "64.0 PiB"),  # a default M of 2^52
    ],
    ids=["verify", "decay-fit"],
)
def test_cli_refuses_a_size_too_large_to_allocate(tmp_path, capsys, argv, size):
    # the allocation fails at once, so no memory limit is needed: one error line, exit 1, no output directory
    out = tmp_path / "d"
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Unable to allocate {size}") and err.count("\n") == 1
    assert not out.exists()


def test_cli_spectrum_refuses_a_tridiagonal_solve_that_does_not_converge(tmp_path, capsys, monkeypatch):
    # a dirichlet chain past NUMPY_EIGH_SITES goes to scipy; its LinAlgError is a ValueError, named by the key
    import scipy.linalg

    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue 7 did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", diverge)
    out = tmp_path / "d"
    assert cli.main(["spectrum", "--N", "600", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: [lattice] n: eigenvalue 7 did not converge\n"
    assert not out.exists()


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert (cfg.potential.family, cfg.N, cfg.M, cfg.m_method) == ("almost_mathieu", 64, 256, "dft_multiplier")


def test_readme_examples_parse():
    # CI runs these lines through the installed console script; here each must at least parse, as written
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nExamples:\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("chainlab ")]
    assert [argv[1] for argv in lines] == ["verify", "spectrum", "evolve", "decay-fit", "lyapunov"]
    parser = cli.build_parser()
    for argv in lines:
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1] and args.out == argv[-1]


def test_readme_names_the_flags_of_the_cli_table():
    # the usage block names exactly the common flags, and each row of the flag table a command's own
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    usage = readme.split("```\nchainlab <command>", 1)[1].split("```", 1)[0]
    assert re.findall(r"\[--(\w+)", usage) == list(cli._COMMON_FLAGS)
    table = readme.split("| its own flags", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for row in table.splitlines()[2:]:
        commands, flags = row.strip("|").split("|")
        for command in re.findall(r"`([\w-]+)`", commands):
            rows[command] = tuple(re.findall(r"`--(\w+)", flags))
    assert rows == {name: flags for name, (_, flags, _) in cli._COMMANDS.items()}


def test_bad_value_names_section_and_key():
    with pytest.raises(ConfigError, match=r"\[lattice\] n"):
        parse_config("[lattice]\nn = banana\n")


def test_descending_times_rejected():
    with pytest.raises(ConfigError):
        parse_config("[time]\ntimes = 2.0, 1.0\n")


def test_config_invariants():
    with pytest.raises(ConfigError):
        ExperimentConfig(N=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(boundary_n="moebius")
    with pytest.raises(ConfigError):
        ExperimentConfig(fit_lo=30.0, fit_hi=20.0)


def test_naming_prefixes_a_value_error_with_the_key():
    with pytest.raises(ConfigError, match=r"^\[lattice\] m: too small$") as info:
        with naming("[lattice] m"):
            raise ValueError("too small")
    assert info.value.__cause__ is None and info.value.__suppress_context__


@pytest.mark.parametrize("kind", [MemoryError, cli.CheckFailure])
def test_naming_passes_other_exceptions_unchanged(kind):
    exc = kind("no key prefix")
    with pytest.raises(kind) as info:
        with naming("--length"):
            raise exc
    assert info.value is exc and str(exc) == "no key prefix"


@pytest.mark.parametrize(
    "m_method, boundary", [("dft_multiplier", "periodic"), ("bessel_kernel", "dirichlet"), ("eigen", "dirichlet")]
)
def test_config_plan_takes_a2_from_m_method(m_method, boundary):
    cfg = ExperimentConfig(
        potential=PotentialSpec("almost_mathieu", amplitude=3.0),
        m_method=m_method,
    )
    plan = cfg.plan(8, 12)
    assert plan.a2.boundary == boundary
    np.testing.assert_array_equal(plan.a1.diagonal, cfg.chain_operator(8).diagonal)
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
    datafiles.write_potential_csv(pot, -5, path)
    values, n0 = datafiles.read_potential_csv(path)
    assert n0 == -5
    np.testing.assert_array_equal(values, pot)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_potential_csv_reader_refuses_a_non_finite_value(tmp_path, bad):
    path = tmp_path / "potential.csv"
    path.write_text(f"n,V\n-1,0.5\n0,{bad}\n")
    with pytest.raises(ValueError, match=r"potential values must be finite"):
        datafiles.read_potential_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [("n,V\n", "empty potential file"), ("n,V\n0,1.5\n2,0.5\n", "potential sites must be contiguous")],
    ids=["empty", "gap"],
)
def test_potential_csv_reader_refuses_an_empty_or_gapped_file(tmp_path, body, message):
    path = tmp_path / "potential.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        datafiles.read_potential_csv(path)


def test_atomic_measure_csv_round_trip(tmp_path):
    mu = SpectralMeasure.from_atoms([-1.0, 0.25], [0.5, -0.125])
    path = tmp_path / "measure.csv"
    datafiles.write_measure_csv(mu, path)
    assert path.read_text() == "energy,weight\n-1.0,0.5\n0.25,-0.125\n"
    again = datafiles.read_measure_csv(path)
    np.testing.assert_array_equal(again.energies, mu.energies)
    np.testing.assert_array_equal(again.weights, mu.weights)


def test_csv_round_trip_of_a_potential_and_a_measure(tmp_path):
    pot = sample_potential(PotentialSpec("random_iid", amplitude=1.0, seed=4), (-3, 5))
    mu = SpectralMeasure(np.array([-2.5, 0.1]), np.array([0.25, 1e-300]))
    datafiles.write_potential_csv(pot, -3, tmp_path / "potential.csv")
    datafiles.write_measure_csv(mu, tmp_path / "measure.csv")
    pot_again, n0 = datafiles.read_potential_csv(tmp_path / "potential.csv")  # n,V rows
    assert n0 == -3
    np.testing.assert_array_equal(pot_again, pot)
    again = datafiles.read_measure_csv(tmp_path / "measure.csv")  # energy,weight rows
    np.testing.assert_array_equal(again.energies, mu.energies)
    np.testing.assert_array_equal(again.weights, mu.weights)
    assert again.density is None


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("n,V\n0,1.5\n\n", 3, "0 fields, expected 2"),
        ("n,V\n0,1.5\n1\n2,0.5\n", 3, "1 fields, expected 2"),
        ("n,V\n0,1.5\n1,x\n", 3, "could not convert string to float"),
        ("energy,weight\n0.0,1.0\n0.5\n", 3, "1 fields, expected 2"),
        ("energy,weight\n0.0,1.0\n\n", 3, "0 fields, expected 2"),
        ("energy,weight\n0.0,1.0\n0.5,0.25,0.0\n", 3, "3 fields, expected 2"),
        ("energy,weight\n0.0,1.0\n0.5,0.25j\n", 3, "could not convert string to float"),
    ],
    ids=[
        "potential-blank", "potential-short", "potential-float", "measure-short", "measure-blank", "measure-long",
        "measure-complex",
    ],
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
    # the four-column measure file of earlier versions, whose weight_im column was always 0.0
    path.write_text("kind,energy,weight_re,weight_im\natom,0.0,1.0,0.0\n")
    with pytest.raises(ValueError, match="unexpected header 'kind,energy,weight_re,weight_im'.*expected 'energy,weight'"):
        datafiles.read_measure_csv(path)


def test_measure_writer_refuses_a_density(tmp_path):
    mu = SpectralMeasure([0.5], [0.5], grid_edges=np.linspace(0.0, 1.0, 5), density=np.full(4, 0.5))
    path = tmp_path / "measure.csv"
    with pytest.raises(ValueError, match="^cannot write a measure with a density: a measure file holds atom rows"):
        datafiles.write_measure_csv(mu, path)
    assert not path.exists()


def test_trajectory_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    states = [rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)) for _ in range(3)]
    times = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary(times, dict(zip(times, states)).get, (-2, -3), path)
    t2, s2, start = datafiles.read_trajectory_binary(path)
    np.testing.assert_array_equal(t2, times)
    assert len(s2) == 3 and start == (-2, -3)
    for a, b in zip(states, s2):
        np.testing.assert_array_equal(a, b)


def test_trajectory_csv_rows_carry_the_window_start(tmp_path):
    # the site of index (i, j) is (n0 + i, m0 + j)
    state = np.arange(6).reshape(2, 3) * (1 + 2j)
    path = tmp_path / "traj.csv"
    datafiles.write_trajectory_csv([0.5], lambda t: state, (-1, 4), path)
    sites = [(n, m) for n in (-1, 0) for m in (4, 5, 6)]
    want = [f"0.5,{n},{m},{v.real!r},{v.imag!r}" for (n, m), v in zip(sites, state.ravel().tolist())]
    assert path.read_text().splitlines() == ["t,n,m,re,im", *want]


@pytest.mark.parametrize("write", ["write_trajectory_csv", "write_trajectory_binary"])
def test_trajectory_writers_ask_for_each_time_once_in_order(tmp_path, write):
    # one state per time holds by construction: a repeated time is one more snapshot, asked for again
    asked = []

    def state_at(t):
        asked.append(t)
        return np.full((2, 3), t, dtype=complex)

    times = [0.0, 0.0, 2.0, 0.5]
    getattr(datafiles, write)(times, state_at, (0, 0), tmp_path / "traj")
    assert asked == times


@pytest.mark.parametrize("write", ["write_trajectory_csv", "write_trajectory_binary"])
@pytest.mark.parametrize(
    "times, shapes, message",
    [
        ([0.0, 1.0], [(4, 6), (4, 7)], "all snapshots must share one N x M shape: (4, 7) at t = 1"),
        ([0.0], [(24,)], "all snapshots must share one N x M shape: (24,) at t = 0"),
    ],
)
def test_trajectory_writers_refuse_mismatched_snapshots(tmp_path, write, times, shapes, message):
    # refused as it arrives: the file holds what was written before it, the CSV header line or the binary
    # header and times, then the snapshots before the refused one; nothing in the binary file if it is the first
    path = tmp_path / "traj"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        getattr(datafiles, write)(times, lambda t: np.ones(shapes[times.index(t)], dtype=complex), (0, 0), path)
    kept = len(times) - 1  # the snapshots before the refused one
    if write == "write_trajectory_csv":
        assert len(path.read_text().splitlines()) == 1 + kept * 24
    elif kept:
        header = datafiles._HEADER.pack(datafiles.MAGIC, 1, 1, len(times), 4, 6, 0, 0)
        assert path.read_bytes() == header + np.array(times).tobytes() + np.ones((kept, 4, 6), complex).tobytes()
    else:
        assert path.read_bytes() == b""


def test_binary_trajectory_writes_a_transposed_state_row_major(tmp_path):
    # the writer hands each state's buffer to the file with no copy, so a state not C-contiguous is made so first
    state = (np.arange(12) * (1 + 1j)).reshape(4, 3)
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary([0.0], lambda t: np.asfortranarray(state), (0, 0), path)
    np.testing.assert_array_equal(datafiles.read_trajectory_binary(path)[1][0], state)


@pytest.mark.parametrize("write", ["write_trajectory_csv", "write_trajectory_binary"])
def test_trajectory_writers_refuse_no_times_before_opening_the_file(tmp_path, write):
    # a binary file of no snapshots would be 0 bytes, which read_trajectory_binary refuses
    asked = []
    with pytest.raises(ValueError, match="^a trajectory needs at least one time$"):
        getattr(datafiles, write)([], asked.append, (0, 0), tmp_path / "traj")
    assert asked == [] and not (tmp_path / "traj").exists()


@pytest.mark.parametrize("cut", ["header", "times", "last-snapshot", "trailing"])
def test_binary_trajectory_reader_rejects_a_file_of_the_wrong_length(tmp_path, cut):
    # 3 snapshots of 4 x 6 sites: 56 + 8 * 3 + 16 * 3 * 24 = 1232 bytes
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary([0.0, 0.5, 1.0], lambda t: delta_state(4, 6), (-2, -3), path)
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


@pytest.mark.parametrize(
    "at, patch, message",
    [
        (0, b"CHAINLB0", "bad magic b'CHAINLB0'"),
        (8, (2).to_bytes(4, "little"), "unsupported version/dtype (2, 1)"),
        (12, (0).to_bytes(4, "little"), "unsupported version/dtype (1, 0)"),
    ],
    ids=["magic", "version", "dtype"],
)
def test_binary_trajectory_reader_rejects_a_foreign_header(tmp_path, at, patch, message):
    path = tmp_path / "traj.bin"
    datafiles.write_trajectory_binary([0.0], lambda t: delta_state(2, 3), (0, -1), path)
    data = bytearray(path.read_bytes())
    data[at : at + len(patch)] = patch
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        datafiles.read_trajectory_binary(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "[output]\nbinary_snapshots = maybe\n",
            "[output] binary_snapshots: cannot parse 'maybe' (not a boolean: 'maybe')",
        ),
        ("family = constant\n", "malformed config: File contains no section headers."),
    ],
    ids=["not-a-boolean", "no-section"],
)
def test_parse_config_refuses_what_it_cannot_read(text, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        parse_config(text)


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


def test_cli_spectrum_summary_reads_the_measure_it_writes(tmp_path):
    # the free ring's eigenvalue pairs at +-sqrt(2) differ by rounding and merge into one atom of
    # measure_delta.csv; the summary's largest weight must be one of its rows
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("[lattice]\nboundary_n = periodic\n")
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", str(cfg), "--N", "8", "--out", str(out)]) == 0
    mu = datafiles.read_measure_csv(out / "measure_delta.csv")
    summary = _read_json(out / "summary.json")
    assert summary["atom_count"] == mu.atom_count
    assert summary["max_atom_weight"] == float(np.abs(mu.weights).max())


_MEASURE_CONFIG = "[potential]\nfamily = almost_mathieu\namplitude = 3.0\n\n[lattice]\nn = 12\nm = 12\n"


@pytest.fixture(scope="module")
def measure_artifacts(tmp_path_factory):
    """The measure CSVs spectrum and convolve write on one config, and the same measures built in memory."""
    tmp = tmp_path_factory.mktemp("measures")
    (tmp / "m.cfg").write_text(_MEASURE_CONFIG)
    for command in ("spectrum", "convolve"):
        assert cli.main([command, "--config", str(tmp / "m.cfg"), "--out", str(tmp / command)]) == 0
    cfg = parse_config(_MEASURE_CONFIG)
    N, M = cfg.lattice()
    i = cfg.origin(N)
    mu1, mu2, conv, _, direct, _ = delta_crosscheck(cfg.plan(N, M), i)
    return tmp, {
        "spectrum/measure_delta.csv": spectral_measure_1d(eigh_tridiagonal(cfg.chain_operator(N)), delta_vector(N, i)),
        "convolve/measure_n.csv": mu1,
        "convolve/measure_m.csv": mu2,
        "convolve/convolution.csv": conv,
        "convolve/direct_2d.csv": direct,
    }


@pytest.mark.parametrize(
    "artifact",
    [
        "spectrum/measure_delta.csv",
        "convolve/measure_n.csv",
        "convolve/measure_m.csv",
        "convolve/convolution.csv",
        "convolve/direct_2d.csv",
    ],
)
def test_read_measure_csv_reads_back_every_measure_artifact(measure_artifacts, artifact):
    # floats are written by repr, so the file holds the measure in memory bit for bit
    tmp, measures = measure_artifacts
    assert (tmp / artifact).read_text().startswith("energy,weight\n")
    want, got = measures[artifact], datafiles.read_measure_csv(tmp / artifact)
    assert got.atom_count == want.atom_count > 1
    np.testing.assert_array_equal(got.energies, want.energies)
    np.testing.assert_array_equal(got.weights, want.weights)
    assert got.density is None and want.density is None


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


@pytest.mark.parametrize("N", ["8", "600"])
def test_cli_spectrum_runs_at_an_amplitude_whose_atom_sum_overflows(tmp_path, N):
    # the N eigenvalues at 1e308 + O(1) merge into one atom, whose energy sum passes the float64 maximum
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--family", "constant", "--amplitude", "1e308", "--N", N, "--out", str(out)]) == 0
    summary = _read_json(out / "summary.json")
    assert summary["atom_count"] == 1 and summary["energy_min"] == summary["energy_max"] == 1e308


@pytest.mark.xfail(
    strict=True,
    reason="the atom-weight discrepancy at amplitude 1e7 is 7.6e-10, above the hand-set MEASURE_MATCH_TOL = 1e-10; "
    "a bound computed from the routes' rounding (ROADMAP item 1) must replace it",
)
def test_cli_convolve_passes_at_a_large_amplitude(tmp_path):
    argv = ["convolve", "--N", "8", "--M", "8", "--family", "almost_mathieu", "--amplitude", "1e7"]
    assert cli.main([*argv, "--out", str(tmp_path / "c")]) == 0


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


def test_cli_convolve_fails_on_impossible_tolerance(tmp_path, monkeypatch):
    from chainlab import spectral

    monkeypatch.setattr(spectral, "MEASURE_MATCH_TOL", 1e-22)
    out = tmp_path / "c"
    rc = cli.main(["convolve", "--out", str(out)])
    assert rc == 2
    # the report is still written for post-mortem
    assert (out / "report.json").exists()


def test_cli_convolve_fails_a_nan_discrepancy(tmp_path, capsys, monkeypatch):
    # one verdict rule with _conserved and CheckResult.passed: a NaN is not within the tolerance
    from chainlab import spectral

    monkeypatch.setattr(spectral, "atom_weight_discrepancy", lambda mu, nu: float("nan"))
    out = tmp_path / "c"
    assert cli.main(["convolve", "--N", "8", "--M", "8", "--out", str(out)]) == 2
    assert "check failed: convolution vs direct 2D measure: discrepancy nan" in capsys.readouterr().err
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


@pytest.mark.parametrize(
    "size, sectors, listed",
    [(16, [80, 64], "80 and 64 of 256"), (48, [192, 144, 288, 288, 288], "192, 144, 288, 288 and 288 of 2304")],
)
def test_cli_convolve_solves_the_dihedral_sectors_of_h_on_a_ring(tmp_path, capsys, monkeypatch, size, sectors, listed):
    """On a ring the reflection about the delta and the rotation by M/p split H; eigh sees each block alone.

    At M = 16 the rotation is the half-turn (p = 2, since 16/4 < RING_CELL_SITES):
    per n, 3 orbits of four and two of two, and the delta has a part in the
    sectors of 5 and 4 orbits.  At M = 48, p = 8: per n, rho's cycles are
    the residues mod 6, which s pairs as {1, 5} and {2, 4} and keeps 0 (the
    delta's) and 3; the delta has a part in two of the four one-dimensional
    sectors (4 and 3 columns per n) and in the three two-dimensional ones
    (6 columns per n each).  No block exceeds 288 rows, and H is never formed.
    """
    argv = ["convolve", "--N", str(size), "--M", str(size), "--family", "random_iid"]
    peak, rows, out = _sector_run(tmp_path, monkeypatch, argv)
    assert _read_json(out / "report.json")["compared_to_direct"] is True
    assert f"dense oracle on sectors of {listed} sites" in capsys.readouterr().out
    assert rows == [size, *sectors]  # A1, then the sectors
    assert max(rows) <= 288
    assert peak <= _sector_bound(sectors, size, size)


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


@pytest.mark.parametrize("size, sectors", [(32, [160, 128, 256]), (48, [192, 144, 288, 288, 288])])
def test_cli_verify_solves_only_sectors_of_h(tmp_path, monkeypatch, size, sectors):
    """verify's dense oracle is convolve's: the sectors of H's m-axis symmetries the centre site has a part in."""
    peak, rows, out = _sector_run(tmp_path, monkeypatch, ["verify", "--N", str(size), "--M", str(size)])
    checks = _read_json(out / "verify.json")["checks"]
    assert "convolution_identity" in [c["name"] for c in checks]
    assert rows == [size, *sectors]  # A1, then the sectors; nothing of N*M rows
    assert peak <= _sector_bound(sectors, size, size)


@pytest.mark.parametrize("command, N", [("convolve", 16), ("verify", 2)])
@pytest.mark.parametrize("m_method", ["dft_multiplier", "bessel_kernel", "eigen"])
def test_cli_convolve_and_verify_build_no_m_basis(tmp_path, m_method, command, N):
    """Above the dense cap convolve and verify write the m-measure down in closed form, with no M x M table."""
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


@pytest.mark.parametrize("binary", [False, True], ids=["csv", "binary"])
def test_cli_evolve_first_snapshot_is_the_delta(tmp_path, binary):
    # t = 0 runs no sweep, so the free lattice's first snapshot is the delta itself, with no rounding noise
    cfg = tmp_path / "out.cfg"
    cfg.write_text(f"[output]\nbinary_snapshots = {str(binary).lower()}\n")
    out = tmp_path / "e"
    assert cli.main(["evolve", "--config", str(cfg), "--N", "4", "--M", "48", "--tmax", "1", "--out", str(out)]) == 0
    if binary:
        times, states, _ = datafiles.read_trajectory_binary(out / "trajectory.bin")
        first = states[0]
    else:
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        times, first = np.unique(rows[:, 0]), rows[rows[:, 0] == 0.0]
        assert first[0, 1:3].tolist() == [-2, -24]  # row-major from the start site (-2, -24)
        first = (first[:, 3] + 1j * first[:, 4]).reshape(4, 48)
    assert times[0] == 0.0
    np.testing.assert_array_equal(first, delta_state(4, 48))


def _evolve_peak_rss(tmp_path, name, time_config, *args) -> int:
    """ru_maxrss, in bytes, of one evolve at 128 x 2048 with binary snapshots, in a fresh process on one BLAS thread.

    os.wait4 reads the child's own peak: RUSAGE_CHILDREN keeps the largest over every child this process reaped.
    """
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"[output]\nbinary_snapshots = true\n[time]\n{time_config}")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    env.update(dict.fromkeys(blas, "1"))  # one BLAS thread, whichever BLAS numpy loads
    argv = ["evolve", "--config", str(cfg), "--N", "128", "--M", "2048", *args]
    with open(tmp_path / f"{name}.err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "chainlab.cli", *argv, "--out", str(tmp_path / name)],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        assert proc.returncode == 0, err.read()[-2000:]
    return usage.ru_maxrss * 1024  # kilobytes on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_cli_evolve_holds_one_state_at_a_time(tmp_path):
    # 11 snapshots, each written as it is made and dropped before the next, peak within half a state of a
    # single snapshot's run; a run that held the last state while making the next would need one more, 4 MB
    N, M = 128, 2048
    one = _evolve_peak_rss(tmp_path, "one", "times = 400\n")
    eleven = _evolve_peak_rss(tmp_path, "eleven", "", "--tmax", "400")
    assert (tmp_path / "eleven" / "trajectory.bin").stat().st_size == 56 + 11 * (8 + 16 * N * M)
    assert eleven - one <= N * M * 8, (one, eleven)


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


@pytest.mark.parametrize("m_method", ["dft_multiplier", "bessel_kernel", "eigen"])
def test_cli_puts_the_m_delta_in_the_middle_column(tmp_path, m_method):
    # V is constant along m, so no key moves the m-delta: convolve's m-measure is A2's at column M // 2, and
    # evolve's first snapshot is the delta at the site (0, 0), which is column M // 2 of the window
    N, M = 4, 64  # the bessel kernel's window to t = 1 needs 49 sites
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[lattice]\nm_method = {m_method}\n")
    args = ["--config", str(cfg), "--N", str(N), "--M", str(M), "--out"]
    assert cli.main(["convolve", *args, str(tmp_path / "c")]) == 0
    a2 = ExperimentConfig(m_method=m_method).plan(N, M).a2
    want = spectral_measure_1d(eigh_tridiagonal(a2), np.eye(M)[M // 2])
    got = datafiles.read_measure_csv(tmp_path / "c" / "measure_m.csv")
    np.testing.assert_allclose(got.energies, want.energies, rtol=0, atol=1e-14)
    np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-14)
    assert cli.main(["evolve", *args, str(tmp_path / "e"), "--tmax", "1"]) == 0
    rows = np.loadtxt(tmp_path / "e" / "trajectory.csv", delimiter=",", skiprows=1)[: N * M]  # t = 0
    assert rows[0, 1:3].tolist() == [-(N // 2), -(M // 2)]  # the window start
    peak = np.argmax(np.hypot(rows[:, 3], rows[:, 4]))
    assert peak == (N // 2) * M + M // 2 and rows[peak, 1:3].tolist() == [0, 0]


@pytest.mark.parametrize(
    "command",
    [["spectrum", "--N", "8"], ["convolve", "--N", "8", "--M", "12"], ["evolve", "--N", "8", "--M", "12"],
     ["decay-fit", "--N", "8", "--tmax", "40"], ["verify", "--N", "8", "--M", "8"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("n0, window", [(-20, "[-20, -13]"), (1, "[1, 8]")])
def test_cli_origin_outside_the_window_is_a_validation_error(tmp_path, capsys, command, n0, window):
    # refused by ExperimentConfig.origin before any output, so no centred measure is written in its place
    cfg = tmp_path / "origin.cfg"
    cfg.write_text(f"[lattice]\nn0 = {n0}\n")
    out = tmp_path / "o"
    assert cli.main(command + ["--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: n0 = {n0}: the window {window} of 8 sites misses the origin" in capsys.readouterr().err
    assert not out.exists()


def test_config_origin_is_the_index_of_n_0():
    assert [ExperimentConfig().origin(N) for N in (1, 2, 7, 8)] == [0, 1, 3, 4]
    assert [ExperimentConfig(n0=n0).origin(8) for n0 in (0, -3, -7)] == [0, 3, 7]
    for n0, window in ((1, r"\[1, 4\]"), (-4, r"\[-4, -1\]")):
        with pytest.raises(ConfigError, match=rf"n0 = {n0}: the window {window} of 4 sites misses the origin"):
            ExperimentConfig(n0=n0).origin(4)


def test_cli_free_chain_decay_fit_places_its_delta_as_lattice_mode_does(tmp_path, monkeypatch):
    from chainlab import diagnostics

    starts = {}
    record = diagnostics.record_decay

    def spy(plan, chi, phi, times):
        starts[plan.n_size] = chi, phi
        return record(plan, chi, phi, times)

    monkeypatch.setattr(diagnostics, "record_decay", spy)
    run = ["decay-fit", "--tmax", "40", "--out"]
    assert cli.main(run + [str(tmp_path / "free")]) == 0
    assert cli.main(run + [str(tmp_path / "lattice"), "--N", "8"]) == 0
    (free_chi, free_phi), (lattice_chi, lattice_phi) = starts[1], starts[8]
    assert np.flatnonzero(free_chi).tolist() == [0] and np.flatnonzero(lattice_chi).tolist() == [4]
    assert np.flatnonzero(free_phi).tolist() == np.flatnonzero(lattice_phi).tolist() == [128]  # M // 2 of 256
    # the free chain is the one-site window [n0, n0 + 1), which must hold n = 0
    cfg = tmp_path / "n0.cfg"
    cfg.write_text("[lattice]\nn0 = -3\n")
    assert cli.main(["decay-fit", "--config", str(cfg), "--tmax", "40", "--out", str(tmp_path / "bad")]) == 1
    assert not (tmp_path / "bad").exists()


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
    assert not out.exists()


def test_cli_decay_fit_tmax_ends_the_fit_window(tmp_path):
    out = tmp_path / "d"
    assert cli.main(["decay-fit", "--tmax", "1000", "--out", str(out)]) == 0
    fit = _read_json(out / "fit.json")
    assert (fit["window"], fit["n_samples"]) == ([20.0, 1000.0], 25)
    assert -0.40 <= fit["exponent"] <= -0.28  # the free-chain band of criterion 4


def test_cli_decay_fit_fails_on_impossible_conservation_tolerance(tmp_path, monkeypatch):
    from chainlab import evolution

    monkeypatch.setattr(evolution, "CONSERVATION_TOL", 1e-30)
    out = tmp_path / "d"
    rc = cli.main(["decay-fit", "--tmax", "40", "--out", str(out)])
    assert rc == 2
    fit = _read_json(out / "fit.json")  # written before the check, for post-mortem
    assert fit["tolerance"] == 1e-30
    assert max(fit["l2_drift"], fit["energy_drift"]) > 1e-30


@pytest.mark.parametrize(
    "argv, artifact",
    [(["decay-fit", "--tmax", "40"], "fit.json"), (["evolve", "--N", "4", "--M", "16", "--tmax", "2"], "conservation.json")],
    ids=["decay-fit", "evolve"],
)
def test_cli_drift_is_measured_from_the_initial_state(tmp_path, capsys, monkeypatch, argv, artifact):
    # a ring sweep that scales its output by 1.01 scales every propagated sample alike: drift against
    # the first sample reads 0, drift against psi0 itself reads the 1e-2 the fault adds
    from chainlab import evolution

    ring_sweep = evolution._ring_sweep
    monkeypatch.setattr(evolution, "_ring_sweep", lambda phi, t: 1.01 * ring_sweep(phi, t))
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert "check failed: conservation" in capsys.readouterr().err
    assert _read_json(out / artifact)["l2_drift"] == pytest.approx(0.01, rel=1e-9)


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
    assert "error: --count: count = 429 exceeds the 428 mid-spectrum eigenvalues" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -1])
def test_cli_lyapunov_refuses_a_count_below_1(tmp_path, capsys, count):
    out = tmp_path / "l"
    assert cli.main(["lyapunov", "--length", "1000", "--count", str(count), "--out", str(out)]) == 1
    assert f"error: --count: count = {count} must be positive" in capsys.readouterr().err
    assert not out.exists()


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
        ("convolve", ["--M", "1"], "", "[lattice] m must be at least 2, got 1"),
        ("spectrum", [], "[lattice]\nboundary_n = moebius\n", "[lattice] boundary_n must be one of"),
        ("spectrum", [], "[lattice]\nm_method = fft\n", "[lattice] m_method must be one of"),
        ("spectrum", [], "[time]\nfit_lo = 30\nfit_hi = 20\n", "[time] fit_lo = 30.0 and fit_hi = 20.0 must"),
        ("spectrum", [], "[time]\nfit_lo = -1\n", "[time] fit_lo = -1.0 and fit_hi = 200.0 must"),
        ("decay-fit", ["--N", "8"], "[time]\nfit_lo = 0\n", "[time] fit_lo = 0: the geometric time grid"),
        # a removed key is refused by each command that used to read it
        ("evolve", [], "[time]\nsnapshot_every = 2\n", "unknown key 'snapshot_every' in section [time]"),
        ("decay-fit", [], "[time]\nt_lo = 1\nt_hi = 9\n", "unknown key 't_lo' in section [time]"),
        ("convolve", [], "[tolerances]\nmeasure_match = 1e-22\n", "unknown section [tolerances]"),
        ("verify", [], "[tolerances]\nfactorization = 1e-8\n", "unknown section [tolerances]"),
        *((command, [], "[lattice]\nm0 = -2\n", "unknown key 'm0' in section [lattice]")
          for command in ("convolve", "evolve", "decay-fit")),
    ],
    ids=["n", "m", "boundary_n", "m_method", "fit_lo-above-fit_hi", "fit_lo-negative", "fit_lo-zero-decay-fit",
         "snapshot_every", "t_lo", "tolerances-convolve", "tolerances-verify", "m0-convolve", "m0-evolve",
         "m0-decay-fit"],
)
def test_cli_config_refusal_names_its_key(tmp_path, capsys, command, flags, text, message):
    # [time] times and a non-finite fit_lo or fit_hi are refused by name in the tests above
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


_BESSEL = "[lattice]\nm_method = bessel_kernel\n"
_REACH_REFUSAL = "Bessel tail order at argument 2e+16: float64 tells orders apart only below 2^53"
_DEGENERATE = "[time] times: fit window is degenerate in log <t>"


def _early_times(scale: str) -> str:
    """Eight times 1, ..., 8 times 10^scale: log <t> spans under 1e-9 over them."""
    return ", ".join(f"{k}{scale}" for k in range(1, 9))


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["lyapunov", "--length", "500"], "", "--length: transfer length 500 is below the minimum 1000"),
        (["lyapunov", "--count", "500"], "", "--count: count = 500 exceeds the 428 mid-spectrum eigenvalues"),
        (["evolve", "--tmax", "0"], "", "--tmax must be positive and finite"),
        (["decay-fit", "--tmax", "10"], "", "--tmax must be finite and exceed the fit window start 20"),
        (["decay-fit", "--N", "16", "--M", "32", "--tmax", "100"], "", "[lattice] m: m-ring of 32 sites wraps"),
        (
            ["evolve", "--N", "4", "--M", "16", "--tmax", "10"],
            _BESSEL,
            "[lattice] m: m-window of 16 sites reflects or truncates before t = 10: the support [8, 8] needs 44 sites "
            "of margin per side, so at least 89 sites",
        ),
        (["verify", "--N", "8", "--M", "40"], _BESSEL, "[lattice] m: m-window of 40 sites reflects or truncates"),
        (["lyapunov"], "[potential]\nfamily = explicit\nvalues = 1, 2, 3\n", "[potential] values cover n in [0, 3)"),
        (["evolve", "--N", "4", "--M", "16", "--tmax", "1e16"], _BESSEL, f"--tmax: {_REACH_REFUSAL}"),
        (["decay-fit", "--N", "4", "--tmax", "1e16"], "", f"--tmax: {_REACH_REFUSAL}"),
        (["decay-fit", "--N", "4"], "[time]\ntimes = 20, 30, 40, 50, 60, 70, 80, 90, 1e16\n", f"[time] times: {_REACH_REFUSAL}"),
        (["decay-fit", "--N", "4"], "[time]\nfit_hi = 1e16\n", f"[time] fit_hi: {_REACH_REFUSAL}"),
        *(
            (["decay-fit", "--N", "4"], f"[time]\nfit_lo = 0\nfit_hi = 1\ntimes = {_early_times(scale)}\n", _DEGENERATE)
            for scale in ("e-12", "e-6")  # by 8e-12 the light cone reaches no site: the default M is its floor, 2
        ),
        (
            ["verify", "--N", "4", "--M", "4", "--amplitude", "1e200"],
            "",
            "[potential] amplitude: Bessel tail order at argument 5e+200: float64 tells orders apart only below 2^53",
        ),
        (
            ["lyapunov", "--family", "almost_mathieu", "--amplitude", "1e308", "--length", "1000", "--count", "2"],
            "",
            "[potential] amplitude: |E - V_n| passes the float64 range, so no growth rate is finite",
        ),
    ],
    ids=[
        "lyapunov-length", "lyapunov-count", "evolve-tmax", "decay-fit-tmax", "decay-fit-wrap", "evolve-wrap",
        "verify-wrap", "lyapunov-explicit", "evolve-tmax-reach", "decay-fit-tmax-reach", "decay-fit-times-reach",
        "decay-fit-fit_hi-reach", "decay-fit-times-early-e-12", "decay-fit-times-early-e-6",
        "verify-amplitude-chebyshev", "lyapunov-amplitude-overflow",
    ],
)
def test_cli_refusal_in_a_command_leaves_no_output_directory(tmp_path, capsys, argv, text, message):
    # the directory is made at the first artifact write, so a command that refuses its input makes none
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli.main([*argv, "--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["spectrum"], ["convolve", "--M", "4"], ["evolve", "--M", "4", "--tmax", "1"], ["decay-fit", "--tmax", "40"],
     ["verify", "--M", "4"]],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_an_n_ring_above_the_dense_cap_by_key(tmp_path, capsys, argv):
    # a periodic A1 has no tridiagonal solver, and its dense one stops at DENSE_SITE_CAP = 4096 sites
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("[lattice]\nboundary_n = periodic\n")
    out = tmp_path / "o"
    assert cli.main([*argv, "--N", "5000", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [lattice] n: periodic operator")
    assert not out.exists()


def test_cli_evolve_checks_the_bessel_window_once_at_the_last_time(tmp_path, capsys):
    # the light cone at t = 10 needs 1 + 2 light_cone_reach(10) = 89 sites; earlier times need fewer, and the
    # refusal names the window the whole run needs, before any sweep
    cfg = tmp_path / "bessel.cfg"
    cfg.write_text(_BESSEL)
    for M, code in ((88, 1), (89, 0)):
        out = tmp_path / f"m{M}"
        assert cli.main(["evolve", "--config", str(cfg), "--N", "4", "--M", str(M), "--tmax", "10", "--out", str(out)]) == code
        assert ("at least 89 sites" in capsys.readouterr().err) == (code == 1)
        assert out.exists() == (code == 0)


def test_cli_explicit_potential_outside_its_values_names_the_keys(tmp_path, capsys):
    cfg = tmp_path / "explicit.cfg"
    cfg.write_text("[potential]\nfamily = explicit\nvalues = 1, 2, 3\n")
    out = tmp_path / "s"
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: [potential] values cover n in [0, 3), but [lattice] n = 16 and n0 put the window at [-8, 7]" in err
    assert not out.exists()
    cfg.write_text("[potential]\nfamily = explicit\nvalues = 1, 2, 3\n[lattice]\nn = 3\nn0 = 0\n")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0


# (command, flag): each command refuses the shared flags it does not read
DROPPED_FLAGS = [
    ("spectrum", "--M"),
    ("spectrum", "--tmax"),
    ("convolve", "--tmax"),
    ("verify", "--tmax"),
    ("lyapunov", "--tmax"),
    ("lyapunov", "--N"),
    ("lyapunov", "--M"),
    ("spectrum", "--threads"),  # no command takes it: the thread count is the environment's
]


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS, ids=lambda v: v.lstrip("-"))
def test_cli_command_refuses_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, flag, "8", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chainlab {command} ")  # the usage of the command, which lists its flags
    assert f"unrecognized arguments: {flag} 8" in err
    assert not out.exists()


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ beside the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
def test_cli_parser_takes_every_benchmark_step(tmp_path, monkeypatch, smoke):
    workloads = _load_workloads(monkeypatch)
    parser = cli.build_parser()
    parsed = []
    for name, build in workloads.WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        steps, _ = build(workloads.params_for(1), inputs, tmp_path / "work", smoke)
        for step in steps:
            if step.kind == "cli":
                parser.parse_args(step.argv())
                parsed.append(step.name)
    assert sorted(set(parsed)) == ["convolve", "decay-fit", "evolve", "lyapunov", "verify"]


@pytest.mark.parametrize("command", ["spectrum", "lyapunov"])
def test_cli_family_flag_refuses_explicit(tmp_path, capsys, command):
    # explicit takes its values from a config file, which a family flag would drop
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--family", "explicit", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: chainlab {command} ")  # the usage of the command, which lists its flags
    assert "argument --family: invalid choice: 'explicit'" in err
    assert not out.exists()


def test_cli_family_flag_takes_a_family(tmp_path):
    assert cli.main(["spectrum", "--family", "almost_mathieu", "--N", "8", "--out", str(tmp_path / "s")]) == 0


def test_cli_verify_failure_exits_2_after_writing_verify_json(tmp_path, capsys, monkeypatch):
    from chainlab import verify

    monkeypatch.setattr(verify, "CONSERVATION_TOL", 1e-30)
    out = tmp_path / "v"
    assert cli.main(["verify", "--N", "8", "--M", "8", "--out", str(out)]) == 2
    report = _read_json(out / "verify.json")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["all_passed"] is False and "energy_conservation" in failed
    assert f"check failed: invariants failed: {', '.join(failed)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, name, value, checks",
    [
        ("spectral", "MASS_CONSERVATION_TOL", 1e-10, ["measure_mass_delta"]),
        ("spectral", "MEASURE_MATCH_TOL", 1e-10, ["convolution_identity"]),
        ("evolution", "FACTORIZATION_TOL", 1e-8, ["factorization_vs_direct"]),
        ("evolution", "CONSERVATION_TOL", 1e-9, ["unitarity", "energy_conservation"]),
    ],
)
def test_cli_verify_reads_each_threshold_constant(tmp_path, monkeypatch, source, name, value, checks):
    # each threshold is one constant, with the value the config's default used to give it; at 1e-30, below
    # every residual of the free 8 x 8 lattice, exactly the checks it names fail
    from chainlab import verify

    assert getattr(importlib.import_module(f"chainlab.{source}"), name) == getattr(verify, name) == value
    monkeypatch.setattr(verify, name, 1e-30)
    out = tmp_path / "v"
    assert cli.main(["verify", "--N", "8", "--M", "8", "--out", str(out)]) == 2
    report = _read_json(out / "verify.json")
    assert [c["name"] for c in report["checks"] if c["tolerance"] == 1e-30] == checks
    assert [c["name"] for c in report["checks"] if not c["passed"]] == checks


def test_cli_evolve_reads_the_conservation_constant(tmp_path, capsys, monkeypatch):
    from chainlab import evolution

    monkeypatch.setattr(evolution, "CONSERVATION_TOL", 1e-30)
    out = tmp_path / "e"
    assert cli.main(["evolve", "--N", "4", "--M", "8", "--tmax", "2", "--out", str(out)]) == 2
    assert "check failed: conservation" in capsys.readouterr().err
    report = _read_json(out / "conservation.json")  # written before the check, for post-mortem
    assert (report["tolerance"], report["passed"]) == (1e-30, False)


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
def test_cli_refuses_tmax_beside_config_times(tmp_path, capsys, command):
    # --tmax would replace the config's times unread: the pair is refused before the output directory is made
    cfg = tmp_path / "times.cfg"
    cfg.write_text("[time]\ntimes = 0, 1, 2\n")
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
    assert calls == [] and not out.exists()


def test_cli_lyapunov_length_below_the_minimum_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "l"
    assert cli.main(["lyapunov", "--length", "999", "--count", "2", "--out", str(out)]) == 1
    assert "error: --length: transfer length 999 is below the minimum 1000" in capsys.readouterr().err
    assert not out.exists()


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
    assert calls == [] and not out.exists()
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
