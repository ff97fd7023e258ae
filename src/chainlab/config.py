"""Experiment configuration: INI-style text with four fixed sections.

[potential]  family and its knobs        [lattice]  sizes, windows, boundaries
[time]       sample times and fit window [output]   directory and formats

The config holds the model, not the checks: each numerical check's
threshold is a constant of spectral or evolution, set in no config.

The config places the n-window: origin(N) alone reads [lattice] n0.  V is
constant along m, so no key places the m-delta: it is the middle column.

One table, _KEYS, is the schema: it maps each "[section] key" to the config
field it sets and to how its value is parsed and written.  Unknown sections
or keys are rejected with the offending name; a written config re-parses to
an equal in-memory value.  naming(key) makes a refusal name its key.
"""
from __future__ import annotations

import configparser
import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .operators import BOUNDARIES, Operator1D, PotentialSpec, build_operator_1d, sample_potential
from .evolution import M_METHODS, PropagatorPlan, make_plan


DEFAULT_SIZE = 16  # N and M of the lattice commands when the config gives none


class ConfigError(ValueError):
    pass


@contextmanager
def naming(key: str):
    """Re-raise a ValueError from the block as a ConfigError that starts with ``key: ``; others pass unchanged."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    potential: PotentialSpec = field(default_factory=lambda: PotentialSpec("constant", amplitude=0.0))
    N: int | None = None  # commands pick their own default when omitted
    M: int | None = None
    boundary_n: str = "dirichlet"
    n0: int | None = None  # the n-window's first site; None centres it
    m_method: str = "dft_multiplier"
    times: tuple[float, ...] | None = None
    fit_lo: float = 20.0
    fit_hi: float = 200.0
    output_dir: str = "out"
    binary_snapshots: bool = False

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
        lo, hi = self.fit_lo, self.fit_hi
        for key, value in (("fit_lo", lo), ("fit_hi", hi)):
            if not math.isfinite(value):
                raise ConfigError(f"[time] {key} must be finite, got {value!r}")
        if not 0 <= lo < hi:
            raise ConfigError(f"[time] fit_lo = {lo!r} and fit_hi = {hi!r} must satisfy 0 <= fit_lo < fit_hi")

    def lattice(self) -> tuple[int, int]:
        """N and M of the lattice commands: DEFAULT_SIZE for a size the config leaves out."""
        return self.N or DEFAULT_SIZE, self.M or DEFAULT_SIZE

    def origin(self, N: int) -> int:
        """Index of the site n = 0 in the N-site window from [lattice] n0 (the middle, N // 2, when unset)."""
        if self.n0 is None:
            return N // 2
        if not 0 <= -self.n0 < N:
            window = f"[{self.n0}, {self.n0 + N - 1}]"
            raise ConfigError(f"n0 = {self.n0}: the window {window} of {N} sites misses the origin")
        return -self.n0

    def chain_operator(self, N: int) -> Operator1D:
        """A1: the potential sampled on the N-site window that origin(N) places."""
        n0 = -self.origin(N)
        values = self.potential.values
        if self.potential.family == "explicit" and not 0 <= n0 <= len(values) - N:
            raise ConfigError(
                f"[potential] values cover n in [0, {len(values)}), "
                f"but [lattice] n = {N} and n0 put the window at [{n0}, {n0 + N - 1}]"
            )
        return build_operator_1d(sample_potential(self.potential, (n0, n0 + N)), boundary=self.boundary_n)

    def plan(self, N: int, M: int) -> PropagatorPlan:
        """The model's propagator on N x M sites with A1 = chain_operator(N) (N = 1: the free chain); m_method
        alone fixes A2.  A ring A1 above DENSE_SITE_CAP has no eigensolve: refused naming [lattice] n."""
        a1 = self.chain_operator(N)
        with naming("[lattice] n"):
            return make_plan(a1, self.m_method, M)


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
# A dotted field is one of the potential's.
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
    "[lattice] m_method": ("m_method", _TEXT),
    "[time] times": ("times", _FLOATS),
    "[time] fit_lo": ("fit_lo", _FLOAT),
    "[time] fit_hi": ("fit_hi", _FLOAT),
    "[output] directory": ("output_dir", _TEXT),
    "[output] binary_snapshots": ("binary_snapshots", _BOOL),
}


def _parse(name: str, parse, raw: str):
    try:
        return parse(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from None


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

    kwargs, nested = {}, {}  # ExperimentConfig fields, fields of its parts
    for section in parser.sections():
        if not any(name.startswith(f"[{section}] ") for name in _KEYS):
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            name = f"[{section}] {key}"
            if name not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            path, (parse, _) = _KEYS[name]
            head, _, attr = path.partition(".")
            value = _parse(name, parse, raw)
            if attr:
                nested.setdefault(head, {})[attr] = value
            else:
                kwargs[head] = value

    for head, given in nested.items():
        with naming(f"[{head}]"):  # PotentialSpec's refusals name no section
            kwargs[head] = dataclasses.replace(getattr(ExperimentConfig(), head), **given)
    return ExperimentConfig(**kwargs)


def parse_config_file(path, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def write_config(cfg: ExperimentConfig, path=None) -> str:
    """Serialize a config, one line per _KEYS key that is set; returns the text and optionally writes it."""
    lines = []
    for name, (field_path, (_, fmt)) in _KEYS.items():
        header, key = name.split()
        if header not in lines:
            lines += ["", header] if lines else [header]
        value = reduce(getattr, field_path.split("."), cfg)
        if value is not None:
            lines.append(f"{key} = {fmt(value)}")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text
