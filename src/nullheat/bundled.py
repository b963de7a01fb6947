"""Bundled reference kernels and the default experiment configuration."""

from functools import lru_cache
from importlib import resources

import numpy as np

from .kernels import GaussianKernel, SeparableKernel, ZeroKernel, read_grid_kernel


def data_path(name):
    return resources.files("nullheat") / "data" / name


@lru_cache(maxsize=None)
def grid_demo_kernel():
    """The bundled grid kernel, parsed once per process; its samples are read-only."""
    with resources.as_file(data_path("grid_demo.txt")) as path:
        return read_grid_kernel(path)


@lru_cache(maxsize=None)
def _reference_kernels():
    return (
        ("zero", ZeroKernel()),
        ("separable-mode1", SeparableKernel(g_coeffs=np.array([1.0]),
                                            h_coeffs=np.array([1.0]))),
        ("gaussian-stable", GaussianKernel(amplitude=5.0, width=0.2)),
        ("gaussian-unstable", GaussianKernel(amplitude=20.0, width=0.15)),
        ("grid-demo", grid_demo_kernel()),
    )


def bundled_kernels():
    """The five reference kernels every certificate runs over, as (name, kernel)
    pairs: a new list on every call, of the same five immutable kernel objects."""
    return list(_reference_kernels())


def default_config_path():
    return data_path("default.cfg")
