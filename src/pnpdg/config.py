"""Plain-text run configuration: `key = value` entries under [section] headers.

Unknown sections or keys are rejected with their line number.
"""

from dataclasses import dataclass

from .benchmarks import BENCHMARKS, build_benchmark
from .driver import SimConfig, check_time_settings
from .exceptions import ConfigError
from .field import FluxParams


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
    return out


# section -> key -> (attribute, parser)
_SCHEMA = {
    "benchmark": {
        "id": ("benchmark", str),
    },
    "mesh": {
        "sizes": ("sizes", _sizes),
    },
    "scheme": {
        "np_beta0": ("np_beta0", float),
        "np_beta1": ("np_beta1", float),
        "poisson_beta0": ("poisson_beta0", float),
        "poisson_beta1": ("poisson_beta1", float),
        "limiter": ("limiter", _bool),
        "override_admissibility": ("override_admissibility", _bool),
    },
    "time": {
        "t_final": ("T", float),
        "dt": ("dt", float),
        "mu": ("mu", float),
        "rk": ("rk", int),
        "cfl": ("cfl", str),
    },
    "output": {
        "dir": ("out_dir", str),
        "cadence": ("cadence", int),
    },
    "custom": {
        "dim": ("custom_dim", int),
        "value": ("custom_value", float),
        "perturb": ("custom_perturb", float),
    },
}


@dataclass
class RunConfig:
    benchmark: str = None
    sizes: list = None
    np_beta0: float = None
    np_beta1: float = None
    poisson_beta0: float = None
    poisson_beta1: float = None
    limiter: bool = SimConfig.limiter
    override_admissibility: bool = SimConfig.override_admissibility
    T: float = None
    dt: float = None
    mu: float = None
    rk: int = SimConfig.rk
    cfl: str = SimConfig.cfl_mode
    out_dir: str = "out"
    cadence: int = SimConfig.cadence
    custom_dim: int = 1
    custom_value: float = 3.0
    custom_perturb: float = 0.0


def parse_config(text):
    cfg = RunConfig()
    section = None
    seen_dt_line = seen_mu_line = None
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
        attr, conv = _SCHEMA[section][key]
        try:
            setattr(cfg, attr, conv(value))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad value for {key!r}: {e}", lineno) from None
        if attr == "dt":
            seen_dt_line = lineno
        if attr == "mu":
            seen_mu_line = lineno
    _validate(cfg, seen_dt_line, seen_mu_line)
    return cfg


def _validate(cfg, dt_line=None, mu_line=None):
    if cfg.benchmark is None:
        raise ConfigError("benchmark id required ([benchmark] id = ...)")
    if cfg.benchmark not in BENCHMARKS:
        raise ConfigError(
            f"unknown benchmark {cfg.benchmark!r}; known: {', '.join(sorted(BENCHMARKS))}"
        )
    if cfg.custom_dim not in (1, 2):
        raise ConfigError(f"[custom] dim must be 1 or 2, got {cfg.custom_dim}")
    if cfg.dt is not None and cfg.mu is not None:
        raise ConfigError("give either dt or mu, not both", dt_line or mu_line)
    check_time_settings(cfg.T, cfg.dt, cfg.mu, cfg.rk, cfg.cfl, cfg.cadence)


def resolve(cfg, n=None):
    """Materialize (ProblemSpec, SimConfig, defaults) for one mesh size.

    Config values override the benchmark defaults; missing entries fall
    back to them (beta pairs, T, mesh ratio, sizes).
    """
    if n is None:
        n = config_sizes(cfg)[0]
    problem, defaults = build_benchmark(cfg.benchmark, n, **_registry_kwargs(cfg))
    if cfg.np_beta0 is not None or cfg.np_beta1 is not None:
        problem.np_params = FluxParams(
            cfg.np_beta0 if cfg.np_beta0 is not None else problem.np_params.beta0,
            cfg.np_beta1 if cfg.np_beta1 is not None else problem.np_params.beta1,
        )
    if cfg.poisson_beta0 is not None or cfg.poisson_beta1 is not None:
        problem.poisson_params = FluxParams(
            cfg.poisson_beta0 if cfg.poisson_beta0 is not None
            else problem.poisson_params.beta0,
            cfg.poisson_beta1 if cfg.poisson_beta1 is not None
            else problem.poisson_params.beta1,
        )
    dt, mu = cfg.dt, cfg.mu
    if dt is None and mu is None:
        dt, mu = defaults.get("dt"), defaults.get("mu")
    sim = SimConfig(
        T=cfg.T if cfg.T is not None else defaults["T"],
        dt=dt, mu=mu,
        rk=cfg.rk,
        limiter=cfg.limiter,
        cfl_mode=cfg.cfl,
        cadence=cfg.cadence,
        override_admissibility=cfg.override_admissibility,
    )
    return problem, sim


def config_sizes(cfg):
    """Mesh sizes of the run: the configured ones, else the benchmark's."""
    if cfg.sizes is not None:
        return cfg.sizes
    return build_benchmark(cfg.benchmark, 4, **_registry_kwargs(cfg))[1]["sizes"]


def _registry_kwargs(cfg):
    """`build_benchmark` keywords: the [custom] keys of the neutral case."""
    if cfg.benchmark != "neutral":
        return {}
    return dict(dim=cfg.custom_dim, value=cfg.custom_value, perturb=cfg.custom_perturb)
