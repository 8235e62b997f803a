"""Plain-text run configuration: `key = value` entries under [section] headers.

Unknown sections or keys are rejected with their line number. A parsed
configuration serializes back to a canonical text whose re-parse is
identical (round-trip identity).
"""

from dataclasses import dataclass

from .benchmarks import BENCHMARKS, VARIANTS, build_benchmark
from .driver import SimConfig, check_time_settings
from .exceptions import ConfigError
from .field import FluxParams

# section -> key -> (attribute, parser)
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


_SCHEMA = {
    "benchmark": {
        "id": ("benchmark", str),
        "variant": ("variant", str),
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
    variant: str = None
    sizes: list = None
    np_beta0: float = None
    np_beta1: float = None
    poisson_beta0: float = None
    poisson_beta1: float = None
    limiter: bool = True
    override_admissibility: bool = False
    T: float = None
    dt: float = None
    mu: float = None
    rk: int = 2
    cfl: str = "monitor"
    out_dir: str = "out"
    cadence: int = 1
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
    variants = VARIANTS.get(cfg.benchmark, {})
    if cfg.variant is not None and cfg.variant not in variants:
        raise ConfigError(
            f"variant {cfg.variant!r} for {cfg.benchmark}: "
            + (f"known: {', '.join(sorted(variants))}" if variants else "it takes no variant"))
    if cfg.custom_dim not in (1, 2):
        raise ConfigError(f"[custom] dim must be 1 or 2, got {cfg.custom_dim}")
    if cfg.dt is not None and cfg.mu is not None:
        raise ConfigError("give either dt or mu, not both", dt_line or mu_line)
    check_time_settings(cfg.T, cfg.dt, cfg.mu, cfg.rk, cfg.cfl, cfg.cadence)
    if cfg.np_beta1 is not None and not cfg.override_admissibility:
        if not (0.125 <= cfg.np_beta1 <= 0.25):
            raise ConfigError(
                f"np_beta1 = {cfg.np_beta1} outside the admissible range [1/8, 1/4]; "
                "set override_admissibility = true to run without positivity guarantees"
            )


def serialize_config(cfg):
    """Canonical text form; parse(serialize(cfg)) reproduces cfg exactly."""
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, list):
            return " ".join(str(x) for x in v)
        return str(v)
    lines = []
    for section, keys in _SCHEMA.items():
        body = []
        for key, (attr, _) in keys.items():
            v = getattr(cfg, attr)
            if v is None:
                continue
            defaults = RunConfig()
            if section == "custom" and cfg.benchmark != "neutral" \
                    and v == getattr(defaults, attr):
                continue
            body.append(f"{key} = {fmt(v)}")
        if body:
            lines.append(f"[{section}]")
            lines.extend(body)
            lines.append("")
    return "\n".join(lines)


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
    sim = SimConfig(
        T=cfg.T if cfg.T is not None else defaults["T"],
        dt=cfg.dt if cfg.dt is not None else (None if cfg.mu is not None
                                              else defaults.get("dt")),
        mu=cfg.mu if cfg.mu is not None else (None if cfg.dt is not None
                                              else defaults.get("mu")),
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
    """`build_benchmark` keywords: the variant, and the [custom] keys of the
    neutral case."""
    kwargs = {} if cfg.variant is None else {"variant": cfg.variant}
    if cfg.benchmark == "neutral":
        kwargs.update(dim=cfg.custom_dim, value=cfg.custom_value, perturb=cfg.custom_perturb)
    return kwargs
