"""Line-oriented experiment configuration: `section.key = value`, strict.

Unknown and duplicate keys are rejected with their line numbers; `#` begins
a comment line.  Command-line overrides are applied after the file and the
fully resolved configuration can be serialized back out canonically, so the
echo written next to the results re-parses to the byte-identical file.
"""

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .basis import Domain
from .errors import ArgumentError, ConfigError
from .kernels import (GaussianKernel, SeparableKernel, ZeroKernel,
                      read_grid_kernel)
from .observability import COUPLING_FIXED, COUPLING_RESOLVENT

_FLOAT, _INT, _STR, _FLOAT_LIST = "float", "int", "str", "float_list"


def _key(key, kind, default=MISSING):
    # one config key as a field of ExperimentConfig: without a default it is
    # required in a file; a default of None or () lets it stay unset
    return field(default=default, metadata={"key": key, "kind": kind})


_COUPLINGS = {COUPLING_FIXED, COUPLING_RESOLVENT}

# the kernel variants and the kernel.* keys each one takes
_VARIANT_KEYS = {
    "zero": set(),
    "gaussian": {"kernel.amplitude", "kernel.width"},
    "separable": {"kernel.g_coeffs", "kernel.h_coeffs"},
    "grid": {"kernel.file"},
}


def _convert(key, kind, raw, line=None):
    try:
        if kind == _FLOAT:
            val = float(raw)
            if not np.isfinite(val):
                raise ValueError("not finite")
            return val
        if kind == _INT:
            return int(raw)
        if kind == _FLOAT_LIST:
            vals = tuple(float(tok) for tok in raw.split(",") if tok.strip() != "")
            if not all(np.isfinite(v) for v in vals):
                raise ValueError("not finite")
            return vals
        return raw
    except ValueError:
        raise ConfigError(f"parse_config: key {key} expects {kind}, got {raw!r}", line=line)


@dataclass(frozen=True, eq=False, kw_only=True)
class ExperimentConfig:
    """The one table of config keys: parse_config and format_config both
    follow these fields, in this order."""

    length: float = _key("domain.length", _FLOAT)
    omega_lo: float = _key("domain.omega_lo", _FLOAT)
    omega_hi: float = _key("domain.omega_hi", _FLOAT)
    kernel_variant: str = _key("kernel.variant", _STR)
    amplitude: float = _key("kernel.amplitude", _FLOAT, None)
    width: float = _key("kernel.width", _FLOAT, None)
    g_coeffs: tuple = _key("kernel.g_coeffs", _FLOAT_LIST, None)
    h_coeffs: tuple = _key("kernel.h_coeffs", _FLOAT_LIST, None)
    kernel_file: str = _key("kernel.file", _STR, None)
    n_modes: int = _key("truncation.n", _INT)
    coupling: str = _key("truncation.coupling", _STR, COUPLING_FIXED)
    margin: int = _key("truncation.margin", _INT, 8)
    horizon: float = _key("time.horizon", _FLOAT, None)
    horizon_list: tuple = _key("time.horizon_list", _FLOAT_LIST, ())
    nt: int = _key("time.nt", _INT, 64)
    ridge: float = _key("tolerances.ridge", _FLOAT, 0.0)
    u0: tuple = _key("control.u0", _FLOAT_LIST, (1.0,))
    stages: int = _key("control.stages", _INT, 4)
    r0: float = _key("control.r0", _FLOAT, 0.0)
    r_list: tuple = _key("sweep.r_list", _FLOAT_LIST, ())
    seed: int = _key("seeds.oracle", _INT, 20260809)
    output_dir: str = _key("output.dir", _STR, "out")

    def domain(self):
        return Domain(length=self.length, omega_lo=self.omega_lo, omega_hi=self.omega_hi)

    def kernel(self):
        if self.kernel_variant == "zero":
            return ZeroKernel()
        if self.kernel_variant == "gaussian":
            return GaussianKernel(amplitude=self.amplitude, width=self.width)
        if self.kernel_variant == "separable":
            g = np.array(self.g_coeffs)
            h = np.array(self.h_coeffs) if self.h_coeffs else g.copy()
            return SeparableKernel(g_coeffs=g, h_coeffs=h)
        spec = read_grid_kernel(self.kernel_file)
        if not spec.fits_length(self.length):
            raise ConfigError(
                f"parse_config: grid file {self.kernel_file} declares length "
                f"{spec.length} but domain.length is {self.length}")
        return spec


_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
_KERNEL_PARAMS = {key: f.name for key, f in _FIELDS.items()
                  if key in set().union(*_VARIANT_KEYS.values())}


def _unset(f, val):
    return val is None or (val == () and f.default == ())


def _values_to_config(values):
    # an empty string leaves an unsettable key at its unset default
    cfg = ExperimentConfig(**{
        f.name: f.default if values[key] == "" and _unset(f, f.default) else values[key]
        for key, f in _FIELDS.items()})
    _validate(cfg)
    return cfg


def _validate(cfg):
    try:
        cfg.domain()
    except ArgumentError as exc:
        raise ConfigError(f"parse_config: {exc}")
    if cfg.kernel_variant not in _VARIANT_KEYS:
        raise ConfigError(
            f"parse_config: kernel.variant must be one of {sorted(_VARIANT_KEYS)}, "
            f"got {cfg.kernel_variant!r}")
    needed = _VARIANT_KEYS[cfg.kernel_variant]
    have = {key: getattr(cfg, name) for key, name in _KERNEL_PARAMS.items()}
    for key, val in have.items():
        if val is not None and key not in needed:
            raise ConfigError(
                f"parse_config: key {key} does not apply to kernel.variant="
                f"{cfg.kernel_variant}")
    missing = sorted(key for key in needed
                     if key != "kernel.h_coeffs" and have[key] is None)
    if missing:
        raise ConfigError(f"parse_config: missing required key {', '.join(missing)} "
                          f"for kernel.variant={cfg.kernel_variant}")
    if cfg.kernel_variant != "grid":  # a grid file is read when its kernel is built
        try:
            cfg.kernel()
        except ArgumentError as exc:
            raise ConfigError(f"parse_config: {exc}")
    if cfg.coupling not in _COUPLINGS:
        raise ConfigError(
            f"parse_config: truncation.coupling must be one of {sorted(_COUPLINGS)}, "
            f"got {cfg.coupling!r}")
    if cfg.n_modes < 1:
        raise ConfigError(f"parse_config: truncation.n must be >= 1, got {cfg.n_modes}")
    if cfg.nt < 2:
        raise ConfigError(f"parse_config: time.nt must be >= 2, got {cfg.nt}")
    if cfg.seed < 0:
        raise ConfigError(f"parse_config: seeds.oracle must be >= 0, got {cfg.seed}")


def parse_config(path, overrides=None):
    """Parse a config file, apply overrides, validate, and return the config.

    overrides is a mapping of full key -> raw string value taking precedence
    over file values.
    """
    values = {}
    seen_lines = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"parse_config: expected `key = value`, got {line!r}",
                                  line=lineno)
            key, _, rawval = line.partition("=")
            key = key.strip()
            rawval = rawval.strip()
            if key not in _FIELDS:
                raise ConfigError(f"parse_config: unknown key {key!r}", line=lineno)
            if key in values:
                raise ConfigError(
                    f"parse_config: duplicate key {key!r} (first seen on line "
                    f"{seen_lines[key]})", line=lineno)
            values[key] = _convert(key, _FIELDS[key].metadata["kind"], rawval, line=lineno)
            seen_lines[key] = lineno
    for key, rawval in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"parse_config: unknown override key {key!r}")
        values[key] = _convert(key, _FIELDS[key].metadata["kind"], str(rawval))
    for key, f in _FIELDS.items():
        if key not in values:
            if f.default is MISSING:
                raise ConfigError(f"parse_config: missing required key {key}")
            values[key] = f.default
    return _values_to_config(values)


def _render(kind, val):
    if kind == _FLOAT:
        return repr(float(val))
    if kind == _INT:
        return str(int(val))
    if kind == _FLOAT_LIST:
        return ",".join(repr(float(v)) for v in val)
    return str(val)


def format_config(cfg):
    """Canonical serialization; parse(format(cfg)) == cfg byte-for-byte."""
    return "".join(f"{key} = {_render(f.metadata['kind'], getattr(cfg, f.name))}\n"
                   for key, f in _FIELDS.items() if not _unset(f, getattr(cfg, f.name)))
