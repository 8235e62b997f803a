"""Plain-text run configuration: `key = value` entries under [section] headers.

Unknown sections or keys, and a key set twice, are rejected with their line
number. A configuration is valid exactly when it resolves: `parse_config`
resolves it once, so the registry and `SimConfig` check every value they own,
and an error that names a key set in the file carries that key's line.
"""

import inspect
import re
from dataclasses import dataclass, field, replace

from .benchmarks import BENCHMARKS
from .driver import SimConfig
from .exceptions import ConfigError


def _bool(s):
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _sizes(s):
    out = [int(tok) for tok in s.replace(",", " ").split()]
    if not out or any(n < 2 for n in out):
        raise ValueError("sizes must be integers >= 2")
    if len(set(out)) < len(out):
        raise ValueError(f"sizes must not repeat, got {out}")
    return out


# section -> key -> (RunConfig field, keyword or None for the field itself, parser)
_SCHEMA = {
    "benchmark": {
        "id": ("benchmark", None, str),
    },
    "mesh": {
        "sizes": ("sizes", None, _sizes),
    },
    "scheme": {
        "np_beta0": ("np_params", "beta0", float),
        "np_beta1": ("np_params", "beta1", float),
        "poisson_beta0": ("poisson_params", "beta0", float),
        "poisson_beta1": ("poisson_params", "beta1", float),
        "limiter": ("sim", "limiter", _bool),
        "override_admissibility": ("sim", "override_admissibility", _bool),
    },
    "time": {
        "t_final": ("sim", "T", float),
        "dt": ("sim", "dt", float),
        "mu": ("sim", "mu", float),
        "rk": ("sim", "rk", int),
        "cfl": ("sim", "cfl_mode", str),
    },
    "output": {
        "dir": ("out_dir", None, str),
        "cadence": ("sim", "cadence", int),
    },
    "custom": {
        "dim": ("custom", "dim", int),
        "value": ("custom", "value", float),
        "perturb": ("custom", "perturb", float),
    },
}


@dataclass
class RunConfig:
    """What a configuration file sets. The four dicts hold keyword overrides
    of the registry's `FluxParams` pairs, of `SimConfig` and of the
    registry builder."""

    benchmark: str = None
    sizes: list = None
    out_dir: str = "out"
    np_params: dict = field(default_factory=dict)
    poisson_params: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    custom: dict = field(default_factory=dict)


def parse_config(text):
    cfg = RunConfig()
    section = None
    key_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ConfigError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]", lineno)
        if key in key_lines:
            raise ConfigError(f"{key!r} is already set on line {key_lines[key]}", lineno)
        key_lines[key] = lineno
        attr, name, conv = _SCHEMA[section][key]
        try:
            value = conv(value)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad value for {key!r}: {e}", lineno) from None
        if name is None:
            setattr(cfg, attr, value)
        else:
            getattr(cfg, attr)[name] = value
    if cfg.benchmark is None:
        raise ConfigError("benchmark id required ([benchmark] id = ...)")
    if "dt" in key_lines and "mu" in key_lines:
        raise ConfigError("give either dt or mu, not both", key_lines["dt"])
    try:
        resolve(cfg)
    except ConfigError as e:
        # the checks behind resolve name the key they reject ("rk must be ...")
        key = re.search(r"(\w+) must ", str(e))
        if e.line is None and key and key[1] in key_lines:
            raise ConfigError(str(e), key_lines[key[1]]) from None
        raise
    return cfg


def resolve(cfg, n=None):
    """Materialize (ProblemSpec, SimConfig) for mesh size n, by default the
    first of the run.

    Config values override the benchmark defaults; missing entries fall
    back to them. A configured dt or mu replaces the registry's step. An
    unknown id and a [custom] keyword the builder does not take are
    configuration errors; an error raised inside the builder propagates as
    it is (`neutral` raises its own `ConfigError` for a bad dim).
    """
    builder, defaults = _entry(cfg)
    if n is None:
        n = config_sizes(cfg)[0]
    try:
        inspect.signature(builder).bind(n, **cfg.custom)
    except TypeError as e:
        raise ConfigError(f"[custom] does not apply to {cfg.benchmark!r}: {e}") from None
    problem = builder(n, **cfg.custom)
    for pair in ("np", "poisson"):
        attr = f"{pair}_params"
        try:
            setattr(problem, attr, replace(getattr(problem, attr), **getattr(cfg, attr)))
        except ConfigError as e:     # FluxParams names the field: "beta0 must be ..."
            raise ConfigError(f"{pair}_{e}") from None
    sim = {"T": defaults["T"]}
    if not cfg.sim.keys() & {"dt", "mu"}:
        sim.update(dt=defaults.get("dt"), mu=defaults.get("mu"))
    return problem, SimConfig(**{**sim, **cfg.sim})


def config_sizes(cfg):
    """Mesh sizes of the run: the configured ones, else the benchmark's."""
    if cfg.sizes is not None:
        return cfg.sizes
    return list(_entry(cfg)[1]["sizes"])


def _entry(cfg):
    """The registry's (builder, default run settings) of the configured id."""
    if cfg.benchmark not in BENCHMARKS:
        raise ConfigError(f"unknown benchmark {cfg.benchmark!r}; "
                          f"known: {', '.join(sorted(BENCHMARKS))}")
    return BENCHMARKS[cfg.benchmark]
