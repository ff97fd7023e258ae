"""Experiment configuration: INI-style text with five fixed sections.

[potential]  family and its knobs        [lattice]  sizes, windows, boundaries
[time]       sample times and fit window [output]   directory and formats
[tolerances] numerical check thresholds

Unknown sections or keys are rejected with the offending name; a written
config re-parses to an equal in-memory value.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import BOUNDARIES, GOLDEN_MEAN, Operator1D, Potential1D, PotentialSpec
from .operators import build_operator_1d, origin_index, sample_potential
from .evolution import M_METHODS, PropagatorPlan, make_plan


DEFAULT_SIZE = 16  # N and M of the lattice commands when the config gives none


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    atom_merge: float = 1e-9
    mass_conservation: float = 1e-10
    measure_match: float = 1e-10
    factorization: float = 1e-8
    conservation: float = 1e-9
    tail_mass: float = 1e-10

    def __post_init__(self):
        # a check against a zero, negative or non-finite tolerance fails on every run
        for name, value in dataclasses.asdict(self).items():
            floor_ok = value >= 0 if name == "atom_merge" else value > 0
            if not (math.isfinite(value) and floor_ok and (name != "tail_mass" or value < 1)):
                rule = {"atom_merge": ">= 0", "tail_mass": "in (0, 1)"}.get(name, "> 0")
                raise ConfigError(f"[tolerances] {name} must be finite and {rule}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    potential: PotentialSpec = field(default_factory=lambda: PotentialSpec("constant", amplitude=0.0))
    N: int | None = None  # commands pick their own default when omitted
    M: int | None = None
    boundary_n: str = "dirichlet"
    n0: int | None = None  # None = centered window
    m0: int | None = None
    m_method: str = "dft_multiplier"
    times: tuple[float, ...] | None = None
    fit_window: tuple[float, float] = (20.0, 200.0)
    snapshot_every: int = 1
    output_dir: str = "out"
    binary_snapshots: bool = False
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if self.boundary_n not in BOUNDARIES:
            raise ConfigError(f"boundary_n must be one of {BOUNDARIES}")
        if self.m_method not in M_METHODS:
            raise ConfigError(f"m_method must be one of {M_METHODS}")
        if self.N is not None and self.N < 2:
            raise ConfigError("N must be at least 2")
        if self.M is not None and self.M < 2:
            raise ConfigError("M must be at least 2")
        if self.times is not None:
            ts = np.asarray(self.times, dtype=float)
            if ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(ts < 0) or np.any(np.diff(ts) < 0):
                raise ConfigError(f"[time] times must be finite, nonnegative and ascending, got {self.times}")
        for key, value in zip(("fit_lo", "fit_hi"), self.fit_window):
            if not math.isfinite(value):
                raise ConfigError(f"[time] {key} must be finite, got {value!r}")
        lo, hi = self.fit_window
        if not 0 <= lo < hi:
            raise ConfigError("fit window must satisfy 0 <= lo < hi")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be positive")

    def lattice(self) -> tuple[int, int]:
        """N and M of the lattice commands: DEFAULT_SIZE for a size the config leaves out."""
        return self.N or DEFAULT_SIZE, self.M or DEFAULT_SIZE

    def chain_operator(self, N: int) -> tuple[Potential1D, Operator1D]:
        """The potential sampled on N sites and its A1; the window keeps the origin (operators.origin_index)."""
        n0 = -origin_index("n0", self.n0, N)
        pot = sample_potential(self.potential, (n0, n0 + N))
        return pot, build_operator_1d(pot, boundary=self.boundary_n)

    def plan(self, N: int, M: int) -> PropagatorPlan:
        """The model's propagator on N x M sites (N = 1: the free chain); m_method alone
        fixes A2, a periodic ring under dft_multiplier and a dirichlet window otherwise."""
        return make_plan(self.chain_operator(N)[1], self.m_method, M, tail_tol=self.tolerances.tail_mass)


_SECTION_KEYS = {
    "potential": {"family", "amplitude", "omega", "theta", "seed", "values", "profile"},
    "lattice": {"n", "m", "boundary_n", "n0", "m0", "m_method"},
    "time": {"times", "t_lo", "t_hi", "samples", "spacing", "fit_lo", "fit_hi", "snapshot_every"},
    "output": {"directory", "binary_snapshots"},
    "tolerances": {f.name for f in dataclasses.fields(Tolerances)},
}


def _float_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def _get(parser, section, key, conv, default=None):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from None


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _write_over(parser, overrides) -> None:
    """Write the (section, key) -> value overrides over the parsed text's keys.

    A family other than the text's drops the text's profile and values, and
    a switch to random_iid with no seed in the text or the overrides runs seed 0.
    """
    for section, _ in overrides:
        if not parser.has_section(section):
            parser.add_section(section)
    family = overrides.get(("potential", "family"))
    if family is not None and family != parser.get("potential", "family", fallback="constant"):
        parser.remove_option("potential", "profile")
        parser.remove_option("potential", "values")
        if family == "random_iid" and not parser.has_option("potential", "seed"):
            parser.set("potential", "seed", "0")
    for (section, key), value in overrides.items():
        parser.set(section, key, str(value))


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """The config of an INI text, with ``overrides`` written over its keys (see _write_over)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    _write_over(parser, overrides or {})

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    family = _get(parser, "potential", "family", str, "constant")
    try:
        potential = PotentialSpec(
            family=family,
            amplitude=_get(parser, "potential", "amplitude", float, 0.0),
            omega=_get(parser, "potential", "omega", float, GOLDEN_MEAN),
            theta=_get(parser, "potential", "theta", float, 0.0),
            seed=_get(parser, "potential", "seed", int, None),
            values=_get(parser, "potential", "values", _float_list, None),
            profile=_get(parser, "potential", "profile", _float_list, None),
        )
    except ValueError as exc:
        raise ConfigError(f"[potential]: {exc}") from None

    times = _get(parser, "time", "times", _float_list, None)
    ranged = [key for key in ("t_lo", "t_hi", "samples", "spacing") if parser.has_option("time", key)]
    if ranged and times is not None:  # a range key beside times, or without t_lo, would go unread
        raise ConfigError(f"[time] {ranged[0]} cannot be combined with times: give times or the range t_lo/t_hi")
    if ranged and ranged[0] != "t_lo":
        raise ConfigError(f"[time] {ranged[0]} needs t_lo: the range is t_lo/t_hi/samples/spacing")
    if ranged:
        t_lo = _get(parser, "time", "t_lo", float)
        t_hi = _get(parser, "time", "t_hi", float)
        samples = _get(parser, "time", "samples", int, 25)
        spacing = _get(parser, "time", "spacing", str, "geometric")
        if t_hi is None:
            raise ConfigError("[time] t_hi is required with t_lo")
        if samples < 1:
            raise ConfigError(f"[time] samples must be at least 1, got {samples}")
        if not (math.isfinite(t_lo) and t_lo >= 0):
            raise ConfigError(f"[time] t_lo must be finite and nonnegative, got {t_lo!r}")
        if not (math.isfinite(t_hi) and t_hi >= t_lo):
            raise ConfigError(f"[time] t_hi must be finite and at least t_lo = {t_lo!r}, got {t_hi!r}")
        if spacing == "geometric":
            if t_lo <= 0:
                raise ConfigError("[time] geometric spacing needs t_lo > 0")
            times = tuple(np.geomspace(t_lo, t_hi, samples))
        elif spacing == "linear":
            times = tuple(np.linspace(t_lo, t_hi, samples))
        else:
            raise ConfigError(f"[time] spacing: unknown value {spacing!r}")

    tol_kwargs = {
        name: _get(parser, "tolerances", name, float, getattr(Tolerances, name))
        for name in _SECTION_KEYS["tolerances"]
    }

    return ExperimentConfig(
        potential=potential,
        N=_get(parser, "lattice", "n", int, None),
        M=_get(parser, "lattice", "m", int, None),
        boundary_n=_get(parser, "lattice", "boundary_n", str, "dirichlet"),
        n0=_get(parser, "lattice", "n0", int, None),
        m0=_get(parser, "lattice", "m0", int, None),
        m_method=_get(parser, "lattice", "m_method", str, "dft_multiplier"),
        times=times,
        fit_window=(
            _get(parser, "time", "fit_lo", float, 20.0),
            _get(parser, "time", "fit_hi", float, 200.0),
        ),
        snapshot_every=_get(parser, "time", "snapshot_every", int, 1),
        output_dir=_get(parser, "output", "directory", str, "out"),
        binary_snapshots=_get(parser, "output", "binary_snapshots", _bool, False),
        tolerances=Tolerances(**tol_kwargs),
    )


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _fmt(x: float) -> str:
    return repr(float(x))


def write_config(cfg: ExperimentConfig, path=None) -> str:
    """Serialize a config; returns the text and optionally writes it."""
    lines = ["[potential]", f"family = {cfg.potential.family}"]
    lines.append(f"amplitude = {_fmt(cfg.potential.amplitude)}")
    lines.append(f"omega = {_fmt(cfg.potential.omega)}")
    lines.append(f"theta = {_fmt(cfg.potential.theta)}")
    if cfg.potential.seed is not None:
        lines.append(f"seed = {cfg.potential.seed}")
    if cfg.potential.values is not None:
        lines.append("values = " + ", ".join(_fmt(v) for v in cfg.potential.values))
    if cfg.potential.profile is not None:
        lines.append("profile = " + ", ".join(_fmt(v) for v in cfg.potential.profile))

    lines.append("")
    lines.append("[lattice]")
    if cfg.N is not None:
        lines.append(f"n = {cfg.N}")
    if cfg.M is not None:
        lines.append(f"m = {cfg.M}")
    lines.append(f"boundary_n = {cfg.boundary_n}")
    if cfg.n0 is not None:
        lines.append(f"n0 = {cfg.n0}")
    if cfg.m0 is not None:
        lines.append(f"m0 = {cfg.m0}")
    lines.append(f"m_method = {cfg.m_method}")

    lines.append("")
    lines.append("[time]")
    if cfg.times is not None:
        lines.append("times = " + ", ".join(_fmt(t) for t in cfg.times))
    lines.append(f"fit_lo = {_fmt(cfg.fit_window[0])}")
    lines.append(f"fit_hi = {_fmt(cfg.fit_window[1])}")
    lines.append(f"snapshot_every = {cfg.snapshot_every}")

    lines.append("")
    lines.append("[output]")
    lines.append(f"directory = {cfg.output_dir}")
    lines.append(f"binary_snapshots = {'true' if cfg.binary_snapshots else 'false'}")

    lines.append("")
    lines.append("[tolerances]")
    for f in dataclasses.fields(Tolerances):
        lines.append(f"{f.name} = {_fmt(getattr(cfg.tolerances, f.name))}")

    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
