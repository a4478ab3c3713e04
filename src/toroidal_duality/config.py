"""
Sweep configuration: defaults <- preset <- flags.

Every setting is a field of SweepConfig, its default fixes its type, and
`verify` has one flag for it (`--hecke-probes` for `hecke_probes`).  The
defaults are the poly preset; a preset lists only the settings it changes.
Nothing else, no file and no environment variable, reaches a sweep.
load_config is the one place that checks a setting.  Each of these is a
ConfigError: an unknown preset or key, a value of the wrong type, a count
below 1, and a negative control outside the polynomial family.  The
parameter constraints are enforced when the blocks are materialized into
Params, which refuses l < 1, a q or d that is not a unit, n < 2,
l + 1 >= n, and q in {0, 1, -1}; the l1 module refuses a zero
denominator in a or b when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .params import ParameterError, Params, specialized_params, symbolic_params

PRESETS = {
    "l1": {"n": 3, "l": 1, "q": "2", "d": "2", "family": "l1", "window": 0, "modes": 3},
    "poly": {},  # the defaults
}

_COUNT_KEYS = ("modes", "probes", "hecke_probes")  # each must be at least 1


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


def load_config(preset=None, overrides=None):
    """The defaults, then the preset's settings, then every override that is not None."""
    merged = {}
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        merged.update(PRESETS[preset])
    if overrides:
        merged.update((key, value) for key, value in overrides.items() if value is not None)
    for key, value in merged.items():
        if key not in KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if type(value) is not KEY_TYPES[key]:
            raise ConfigError(f"bad value for {key!r}: {value!r}")
    cfg = SweepConfig(**merged)
    for key in _COUNT_KEYS:
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1, got {getattr(cfg, key)}")
    if cfg.negative_control and cfg.family != "polynomial":
        raise ConfigError("negative control perturbs T_1 and needs the polynomial family")
    return cfg
