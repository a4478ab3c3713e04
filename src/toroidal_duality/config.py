"""
Sweep configuration: defaults <- config file <- environment <- flags.

The config document is an INI file with [params] and [sweep] sections, e.g.

    [params]
    n = 4
    l = 2
    q = 2
    d = 3

    [sweep]
    family = polynomial
    window = 8
    modes = 2
    probes = 8
    seed = 11

Environment overrides use the TOROIDAL_ prefix (TOROIDAL_N, TOROIDAL_Q,
TOROIDAL_WINDOW, ...).  A TOROIDAL_ variable that names no key is a
ConfigError, as are an unknown INI key and a file that does not parse.
Duality-mode constraints (the x formula, l + 1 < n, y = c = 1, q away
from roots of unity) are enforced when the blocks are materialized into
Params.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from fractions import Fraction

from .params import ParameterError, Params

PRESETS = {
    "l1": {
        "n": 3, "l": 1, "q": "2", "d": "2", "family": "l1",
        "window": 0, "modes": 3, "probes": 8, "hecke_probes": 50,
        "a": "5", "b": "7",
    },
    "poly": {
        "n": 4, "l": 2, "q": "2", "d": "3", "family": "polynomial",
        "window": 8, "modes": 2, "probes": 8, "hecke_probes": 50,
        "a": "5", "b": "7",
    },
}

_INT_KEYS = ("n", "l", "window", "modes", "probes", "hecke_probes", "seed")
_STR_KEYS = ("q", "d", "a", "b", "family", "out", "relations")
_BOOL_KEYS = ("negative_control", "symbolic")
_COUNT_KEYS = ("modes", "probes", "hecke_probes")  # each must be at least 1

ENV_PREFIX = "TOROIDAL_"


class ConfigError(ValueError):
    """A sweep configuration violating its constraints."""


@dataclass(frozen=True)
class SweepConfig:
    n: int = 4
    l: int = 2
    q: str = "2"
    d: str = "3"
    family: str = "polynomial"
    window: int = 8
    modes: int = 2
    probes: int = 8
    hecke_probes: int = 50
    seed: int = 11
    a: str = "5"
    b: str = "7"
    relations: str = ""  # comma-separated relation-id prefixes; empty = all
    negative_control: bool = False
    symbolic: bool = False
    out: str = ""

    def relation_filter(self):
        prefixes = tuple(p.strip() for p in self.relations.split(",") if p.strip())
        if not prefixes:
            return lambda rel: True
        return lambda rel: rel.startswith(prefixes)

    def params(self) -> Params:
        from .scalars import D, Q

        try:
            if self.symbolic:
                return Params(n=self.n, l=self.l, q=Q, d=D)
            return Params(
                n=self.n, l=self.l, q=Fraction(self.q), d=Fraction(self.d)
            )
        except (ParameterError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"invalid parameters: {exc}") from exc

    def build_hecke_module(self):
        from .hecke import PolynomialModule, UnitModule

        p = self.params()
        try:
            if self.family == "l1":
                return UnitModule(Fraction(self.a), Fraction(self.b), p)
            if self.family == "polynomial":
                return PolynomialModule(p, self.window, corrupt_t1=self.negative_control)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown module family {self.family!r}")

    def echo(self):
        return {
            "n": self.n, "l": self.l, "q": self.q, "d": self.d,
            "family": self.family, "window": self.window, "modes": self.modes,
            "probes": self.probes, "hecke_probes": self.hecke_probes,
            "seed": self.seed, "a": self.a, "b": self.b,
            "relations": self.relations,
            "negative_control": self.negative_control, "symbolic": self.symbolic,
        }


def _coerce(key, value):
    if key in _INT_KEYS:
        return int(value)
    if key in _BOOL_KEYS:
        if isinstance(value, bool):
            return value
        return str(value).lower() in ("1", "true", "yes", "on")
    return str(value)


def load_config(path=None, preset=None, overrides=None, env=None):
    """Merge defaults, optional preset, config file, environment, and flag overrides."""
    known = _INT_KEYS + _STR_KEYS + _BOOL_KEYS
    merged = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        merged.update(PRESETS[preset])
    if path:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {' '.join(str(exc).split())}") from exc
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")
        for section in parser.sections():
            if section not in ("params", "sweep", "output"):
                raise ConfigError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                merged[key] = value
    env = os.environ if env is None else env
    for env_key in sorted(env):
        if env_key.startswith(ENV_PREFIX):
            key = env_key[len(ENV_PREFIX):].lower()
            if key not in known or env_key != ENV_PREFIX + key.upper():
                raise ConfigError(f"unknown environment variable {env_key}")
            merged[key] = env[env_key]
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
    clean = {}
    for key, value in merged.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            clean[key] = _coerce(key, value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    for key in _COUNT_KEYS:
        if key in clean and clean[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {clean[key]}")
    try:
        return SweepConfig(**clean)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
