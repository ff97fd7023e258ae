"""Experiment configuration: INI-style text with five fixed sections.

[potential]  family and its knobs        [lattice]  sizes, windows, boundaries
[time]       sample times and fit window [output]   directory and formats
[tolerances] numerical check thresholds

One table, _KEYS, is the schema: it maps each "[section] key" to the config
field it sets and to how its value is parsed and written.  Unknown sections
or keys are rejected with the offending name; a written config re-parses to
an equal in-memory value.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import BOUNDARIES, Operator1D, Potential1D, PotentialSpec
from .operators import build_operator_1d, origin_index, sample_potential
from .evolution import DEFAULT_TAIL_TOL, M_METHODS, PropagatorPlan, make_plan
from .spectral import ATOM_MERGE_TOL


DEFAULT_SIZE = 16  # N and M of the lattice commands when the config gives none


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Tolerances:
    atom_merge: float = ATOM_MERGE_TOL
    mass_conservation: float = 1e-10
    measure_match: float = 1e-10
    factorization: float = 1e-8
    conservation: float = 1e-9
    tail_mass: float = DEFAULT_TAIL_TOL

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
            raise ConfigError(f"[lattice] boundary_n must be one of {BOUNDARIES}, got {self.boundary_n!r}")
        if self.m_method not in M_METHODS:
            raise ConfigError(f"[lattice] m_method must be one of {M_METHODS}, got {self.m_method!r}")
        for key, size in (("n", self.N), ("m", self.M)):
            if size is not None and size < 2:
                raise ConfigError(f"[lattice] {key} must be at least 2, got {size}")
        if self.times is not None:
            ts = np.asarray(self.times, dtype=float)
            if ts.size == 0 or not np.all(np.isfinite(ts)) or np.any(ts < 0) or np.any(np.diff(ts) < 0):
                raise ConfigError(f"[time] times must be finite, nonnegative and ascending, got {self.times}")
        for key, value in zip(("fit_lo", "fit_hi"), self.fit_window):
            if not math.isfinite(value):
                raise ConfigError(f"[time] {key} must be finite, got {value!r}")
        lo, hi = self.fit_window
        if not 0 <= lo < hi:
            raise ConfigError(f"[time] fit_lo = {lo!r} and fit_hi = {hi!r} must satisfy 0 <= fit_lo < fit_hi")
        if self.snapshot_every < 1:
            raise ConfigError(f"[time] snapshot_every must be at least 1, got {self.snapshot_every}")

    def lattice(self) -> tuple[int, int]:
        """N and M of the lattice commands: DEFAULT_SIZE for a size the config leaves out."""
        return self.N or DEFAULT_SIZE, self.M or DEFAULT_SIZE

    def chain_operator(self, N: int) -> tuple[Potential1D, Operator1D]:
        """The potential sampled on N sites and its A1; the window keeps the origin (operators.origin_index)."""
        n0 = -origin_index("n0", self.n0, N)
        values = self.potential.values
        if self.potential.family == "explicit" and not 0 <= n0 <= len(values) - N:
            raise ConfigError(
                f"[potential] values cover n in [0, {len(values)}), "
                f"but [lattice] n = {N} and n0 put the window at [{n0}, {n0 + N - 1}]"
            )
        pot = sample_potential(self.potential, (n0, n0 + N))
        return pot, build_operator_1d(pot, boundary=self.boundary_n)

    def plan(self, N: int, M: int) -> PropagatorPlan:
        """The model's propagator on N x M sites (N = 1: the free chain); m_method alone
        fixes A2, a periodic ring under dft_multiplier and a dirichlet window otherwise."""
        return make_plan(self.chain_operator(N)[1], self.m_method, M, tail_tol=self.tolerances.tail_mass)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.replace(",", " ").split())


def _bool(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


# (parse, format) of a key's value: amplitude = 1 is written 1.0
_TEXT = (str, str)
_INT = (int, str)
_FLOAT = (float, lambda x: repr(float(x)))
_FLOATS = (_floats, lambda xs: ", ".join(repr(float(x)) for x in xs))
_BOOL = (_bool, lambda b: "true" if b else "false")

# The schema: "[section] key" -> (the ExperimentConfig field it sets, its (parse, format)).
# A dotted field is one of the potential or the tolerances, or an end of fit_window.
# write_config writes the keys in this order and leaves out those whose value is None.
_KEYS = {
    "[potential] family": ("potential.family", _TEXT),
    "[potential] amplitude": ("potential.amplitude", _FLOAT),
    "[potential] omega": ("potential.omega", _FLOAT),
    "[potential] theta": ("potential.theta", _FLOAT),
    "[potential] seed": ("potential.seed", _INT),
    "[potential] values": ("potential.values", _FLOATS),
    "[potential] profile": ("potential.profile", _FLOATS),
    "[lattice] n": ("N", _INT),
    "[lattice] m": ("M", _INT),
    "[lattice] boundary_n": ("boundary_n", _TEXT),
    "[lattice] n0": ("n0", _INT),
    "[lattice] m0": ("m0", _INT),
    "[lattice] m_method": ("m_method", _TEXT),
    "[time] times": ("times", _FLOATS),
    "[time] fit_lo": ("fit_window.0", _FLOAT),
    "[time] fit_hi": ("fit_window.1", _FLOAT),
    "[time] snapshot_every": ("snapshot_every", _INT),
    "[output] directory": ("output_dir", _TEXT),
    "[output] binary_snapshots": ("binary_snapshots", _BOOL),
    **{f"[tolerances] {f.name}": (f"tolerances.{f.name}", _FLOAT) for f in dataclasses.fields(Tolerances)},
}
# parse-only: the range t_lo/t_hi/samples/spacing yields [time] times
_TIME_RANGE = {"t_lo": float, "t_hi": float, "samples": int, "spacing": str}


def _parse(name: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from None


def _time_range(ranged: dict, beside_times: bool) -> tuple[float, ...]:
    """[time] times from the range keys present in ranged."""
    first = next(key for key in _TIME_RANGE if key in ranged)
    if beside_times:  # a range key beside times, or without t_lo, would go unread
        raise ConfigError(f"[time] {first} cannot be combined with times: give times or the range t_lo/t_hi")
    if first != "t_lo":
        raise ConfigError(f"[time] {first} needs t_lo: the range is t_lo/t_hi/samples/spacing")
    t_lo, t_hi = ranged["t_lo"], ranged.get("t_hi")
    samples, spacing = ranged.get("samples", 25), ranged.get("spacing", "geometric")
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
        return tuple(np.geomspace(t_lo, t_hi, samples))
    if spacing == "linear":
        return tuple(np.linspace(t_lo, t_hi, samples))
    raise ConfigError(f"[time] spacing: unknown value {spacing!r}")


def _write_over(parser, overrides) -> None:
    """Write the (section, key) -> value overrides over the parsed text's keys.

    A family other than the text's drops the text's profile and values, and
    a switch to random_iid with no seed in the text or the overrides runs seed 0.
    """
    for section, _ in overrides:
        if not parser.has_section(section):
            parser.add_section(section)
    family = overrides.get(("potential", "family"))
    if family is not None and family != parser.get("potential", "family", fallback=ExperimentConfig().potential.family):
        parser.remove_option("potential", "profile")
        parser.remove_option("potential", "values")
        if family == "random_iid" and not parser.has_option("potential", "seed"):
            parser.set("potential", "seed", "0")
    for (section, key), value in overrides.items():
        parser.set(section, key, str(value))


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """The config of an INI text, with ``overrides`` written over its keys (see _write_over).

    Each key present sets its field; the dataclass defaults fill in the rest.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    _write_over(parser, overrides or {})

    kwargs, nested, ranged = {}, {}, {}  # ExperimentConfig fields, fields of its parts, range keys
    for section in parser.sections():
        if not any(name.startswith(f"[{section}] ") for name in _KEYS):
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            name = f"[{section}] {key}"
            if section == "time" and key in _TIME_RANGE:
                ranged[key] = _parse(name, _TIME_RANGE[key], raw)
                continue
            if name not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            path, (parse, _) = _KEYS[name]
            head, _, attr = path.partition(".")
            value = _parse(name, parse, raw)
            if attr:
                nested.setdefault(head, {})[attr] = value
            else:
                kwargs[head] = value
    if ranged:
        kwargs["times"] = _time_range(ranged, beside_times="times" in kwargs)

    default = ExperimentConfig()
    for head, given in nested.items():
        part = getattr(default, head)
        if head == "fit_window":
            kwargs[head] = tuple(given.get(str(i), end) for i, end in enumerate(part))
            continue
        try:
            kwargs[head] = dataclasses.replace(part, **given)
        except ConfigError:
            raise
        except ValueError as exc:  # PotentialSpec's refusals name no section
            raise ConfigError(f"[{head}]: {exc}") from None
    return ExperimentConfig(**kwargs)


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _value(cfg: ExperimentConfig, path: str):
    for attr in path.split("."):
        cfg = cfg[int(attr)] if attr.isdigit() else getattr(cfg, attr)
    return cfg


def write_config(cfg: ExperimentConfig, path=None) -> str:
    """Serialize a config, one line per _KEYS key that is set; returns the text and optionally writes it."""
    lines = []
    for name, (field_path, (_, fmt)) in _KEYS.items():
        header, key = name.split()
        if header not in lines:
            lines += ["", header] if lines else [header]
        value = _value(cfg, field_path)
        if value is not None:
            lines.append(f"{key} = {fmt(value)}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
