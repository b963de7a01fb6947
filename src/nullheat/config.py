"""Line-oriented experiment configuration: `section.key = value`, strict.

Unknown and duplicate keys are rejected with their line numbers; `#` begins
a comment line.  Command-line overrides are applied after the file and the
fully resolved configuration can be serialized back out canonically, so the
echo written next to the results re-parses to the byte-identical file.
"""

import re
from dataclasses import dataclass

import numpy as np

from .basis import Domain
from .errors import ArgumentError, ConfigError
from .kernels import (GaussianKernel, SeparableKernel, ZeroKernel,
                      read_grid_kernel)

_KEY_RE = re.compile(r"^[a-z_]+\.[a-zA-Z0-9_]+$")

_FLOAT, _INT, _STR, _FLOAT_LIST = "float", "int", "str", "float_list"

# key -> (type, default); None default means required, "" means unset-allowed
_SCHEMA = {
    "domain.length": (_FLOAT, None),
    "domain.omega_lo": (_FLOAT, None),
    "domain.omega_hi": (_FLOAT, None),
    "kernel.variant": (_STR, None),
    "kernel.amplitude": (_FLOAT, ""),
    "kernel.width": (_FLOAT, ""),
    "kernel.g_coeffs": (_FLOAT_LIST, ""),
    "kernel.h_coeffs": (_FLOAT_LIST, ""),
    "kernel.file": (_STR, ""),
    "truncation.n": (_INT, None),
    "truncation.coupling": (_STR, "fixed"),
    "truncation.margin": (_INT, 8),
    "time.horizon": (_FLOAT, ""),
    "time.horizon_list": (_FLOAT_LIST, ""),
    "time.nt": (_INT, 64),
    "time.nt_fine": (_INT, 0),
    "tolerances.symmetry": (_FLOAT, 1e-10),
    "tolerances.gate": (_FLOAT, 1e-14),
    "tolerances.ridge": (_FLOAT, 0.0),
    "control.u0": (_FLOAT_LIST, (1.0,)),
    "control.stages": (_INT, 4),
    "control.r0": (_FLOAT, 0.0),
    "sweep.r_list": (_FLOAT_LIST, ""),
    "seeds.oracle": (_INT, 20260809),
    "output.dir": (_STR, "out"),
}

_VARIANTS = {"zero", "separable", "gaussian", "grid"}
_COUPLINGS = {"fixed", "r-equals-1-over-T"}

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


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    length: float
    omega_lo: float
    omega_hi: float
    kernel_variant: str
    amplitude: float = None
    width: float = None
    g_coeffs: tuple = None
    h_coeffs: tuple = None
    kernel_file: str = None
    n_modes: int = 16
    coupling: str = "fixed"
    margin: int = 8
    horizon: float = None
    horizon_list: tuple = ()
    nt: int = 64
    nt_fine: int = 0
    symmetry_tol: float = 1e-10
    gate: float = 1e-14
    ridge: float = 0.0
    u0: tuple = (1.0,)
    stages: int = 4
    r0: float = 0.0
    r_list: tuple = ()
    seed: int = 20260809
    output_dir: str = "out"

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
        if abs(spec.length - self.length) > 1e-12 * max(1.0, self.length):
            raise ConfigError(
                f"parse_config: grid file {self.kernel_file} declares length "
                f"{spec.length} but domain.length is {self.length}")
        return spec


def _values_to_config(values):
    cfg = ExperimentConfig(
        length=values["domain.length"],
        omega_lo=values["domain.omega_lo"],
        omega_hi=values["domain.omega_hi"],
        kernel_variant=values["kernel.variant"],
        amplitude=values.get("kernel.amplitude") if values.get("kernel.amplitude") != "" else None,
        width=values.get("kernel.width") if values.get("kernel.width") != "" else None,
        g_coeffs=values.get("kernel.g_coeffs") if values.get("kernel.g_coeffs") != "" else None,
        h_coeffs=values.get("kernel.h_coeffs") if values.get("kernel.h_coeffs") != "" else None,
        kernel_file=values.get("kernel.file") if values.get("kernel.file") != "" else None,
        n_modes=values["truncation.n"],
        coupling=values["truncation.coupling"],
        margin=values["truncation.margin"],
        horizon=values.get("time.horizon") if values.get("time.horizon") != "" else None,
        horizon_list=values.get("time.horizon_list") if values.get("time.horizon_list") != "" else (),
        nt=values["time.nt"],
        nt_fine=values["time.nt_fine"],
        symmetry_tol=values["tolerances.symmetry"],
        gate=values["tolerances.gate"],
        ridge=values["tolerances.ridge"],
        u0=values["control.u0"],
        stages=values["control.stages"],
        r0=values["control.r0"],
        r_list=values.get("sweep.r_list") if values.get("sweep.r_list") != "" else (),
        seed=values["seeds.oracle"],
        output_dir=values["output.dir"],
    )
    _validate(cfg)
    return cfg


def _validate(cfg):
    try:
        cfg.domain()
    except ArgumentError as exc:
        raise ConfigError(f"parse_config: {exc}")
    if cfg.kernel_variant not in _VARIANTS:
        raise ConfigError(
            f"parse_config: kernel.variant must be one of {sorted(_VARIANTS)}, "
            f"got {cfg.kernel_variant!r}")
    needed = _VARIANT_KEYS[cfg.kernel_variant]
    have = {
        "kernel.amplitude": cfg.amplitude, "kernel.width": cfg.width,
        "kernel.g_coeffs": cfg.g_coeffs, "kernel.h_coeffs": cfg.h_coeffs,
        "kernel.file": cfg.kernel_file,
    }
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
    if cfg.coupling not in _COUPLINGS:
        raise ConfigError(
            f"parse_config: truncation.coupling must be one of {sorted(_COUPLINGS)}, "
            f"got {cfg.coupling!r}")
    if cfg.n_modes < 1:
        raise ConfigError(f"parse_config: truncation.n must be >= 1, got {cfg.n_modes}")


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
            if not _KEY_RE.match(key) or key not in _SCHEMA:
                raise ConfigError(f"parse_config: unknown key {key!r}", line=lineno)
            if key in values:
                raise ConfigError(
                    f"parse_config: duplicate key {key!r} (first seen on line "
                    f"{seen_lines[key]})", line=lineno)
            values[key] = _convert(key, _SCHEMA[key][0], rawval, line=lineno)
            seen_lines[key] = lineno
    for key, rawval in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"parse_config: unknown override key {key!r}")
        values[key] = _convert(key, _SCHEMA[key][0], str(rawval))
    for key, (kind, default) in _SCHEMA.items():
        if key not in values:
            if default is None:
                raise ConfigError(f"parse_config: missing required key {key}")
            values[key] = default
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
    values = {
        "domain.length": cfg.length,
        "domain.omega_lo": cfg.omega_lo,
        "domain.omega_hi": cfg.omega_hi,
        "kernel.variant": cfg.kernel_variant,
        "kernel.amplitude": cfg.amplitude,
        "kernel.width": cfg.width,
        "kernel.g_coeffs": cfg.g_coeffs,
        "kernel.h_coeffs": cfg.h_coeffs,
        "kernel.file": cfg.kernel_file,
        "truncation.n": cfg.n_modes,
        "truncation.coupling": cfg.coupling,
        "truncation.margin": cfg.margin,
        "time.horizon": cfg.horizon,
        "time.horizon_list": cfg.horizon_list or None,
        "time.nt": cfg.nt,
        "time.nt_fine": cfg.nt_fine,
        "tolerances.symmetry": cfg.symmetry_tol,
        "tolerances.gate": cfg.gate,
        "tolerances.ridge": cfg.ridge,
        "control.u0": cfg.u0,
        "control.stages": cfg.stages,
        "control.r0": cfg.r0,
        "sweep.r_list": cfg.r_list or None,
        "seeds.oracle": cfg.seed,
        "output.dir": cfg.output_dir,
    }
    lines = []
    for key, (kind, _) in _SCHEMA.items():
        val = values[key]
        if val is None:
            continue
        lines.append(f"{key} = {_render(kind, val)}")
    return "\n".join(lines) + "\n"
