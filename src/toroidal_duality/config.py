"""
Sweep configuration: defaults <- config file <- environment <- flags.

Every setting is a field of SweepConfig, and its default fixes its type.
The config document is an INI file whose sections are [params], [sweep]
and [output]; the names only group keys, and any key may sit in any of
them. For example

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
TOROIDAL_WINDOW, ...).  load_config is the one place that checks a
setting.  Each of these is a ConfigError: a TOROIDAL_ variable that names
no key, an unknown INI key or section, a [DEFAULT] section with keys, a
file that does not parse, a boolean other than 1/0, yes/no, true/false or
on/off (any case), a count below 1, and a negative control outside the
polynomial family.  The parameter constraints are enforced when the blocks
are materialized into Params, which refuses l < 1, a q or d that is not a
unit, n < 2, l + 1 >= n, and q in {0, 1, -1}.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from fractions import Fraction

from .params import ParameterError, Params, specialized_params, symbolic_params

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

    def relation_prefixes(self):
        return tuple(p.strip() for p in self.relations.split(",") if p.strip())

    def params(self) -> Params:
        try:
            if self.symbolic:
                return symbolic_params(self.n, self.l)
            return specialized_params(self.n, self.l, self.q, self.d)
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
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"unknown module family {self.family!r}")

    def echo(self):
        """Every setting but the output path, for the summary."""
        return {key: getattr(self, key) for key in KEY_TYPES if key != "out"}


# every setting and the type of its default (bool, int or str)
KEY_TYPES = {f.name: type(f.default) for f in fields(SweepConfig)}


def _coerce(key, value):
    kind = KEY_TYPES[key]
    if kind is bool and not isinstance(value, bool):
        return configparser.ConfigParser.BOOLEAN_STATES[str(value).lower()]
    return kind(value)


def load_config(path=None, preset=None, overrides=None, env=None):
    """Merge defaults, optional preset, config file, environment, and flag overrides."""
    merged = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        merged.update(PRESETS[preset])
    if path:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path!r}")
            if parser.defaults():
                raise ConfigError(f"config section [{parser.default_section}] is not accepted")
            for section in parser.sections():
                if section not in ("params", "sweep", "output"):
                    raise ConfigError(f"unknown config section [{section}]")
                merged.update(parser.items(section))
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse config file {path!r}: {' '.join(str(exc).split())}") from exc
    env = os.environ if env is None else env
    for env_key in sorted(env):
        if env_key.startswith(ENV_PREFIX):
            key = env_key[len(ENV_PREFIX):].lower()
            if key not in KEY_TYPES or env_key != ENV_PREFIX + key.upper():
                raise ConfigError(f"unknown environment variable {env_key}")
            merged[key] = env[env_key]
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                merged[key] = value
    clean = {}
    for key, value in merged.items():
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            clean[key] = _coerce(key, value)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    for key in _COUNT_KEYS:
        if key in clean and clean[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {clean[key]}")
    cfg = SweepConfig(**clean)
    if cfg.negative_control and cfg.family != "polynomial":
        raise ConfigError("negative control perturbs T_1 and needs the polynomial family")
    return cfg
