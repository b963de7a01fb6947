# The four kernel representations and their Galerkin projections.  Every
# kernel is symmetric and square-integrable; its projection K onto the sine
# basis obeys  spectral radius <= Frobenius <= ||k||_{L2} (Bessel), which is
# the chain that later turns the coupling strength into semigroup bounds.

import os
import tempfile

import numpy as np

from nullheat import (Domain, GaussianKernel, SeparableKernel, ZeroKernel,
                      build_basis, project_kernel, read_grid_kernel,
                      write_grid_kernel)

domain = Domain(1.0, 0.3, 0.8)
basis = build_basis(domain, 16)

kernels = [
    ("zero", ZeroKernel()),
    ("separable, first mode", SeparableKernel(np.array([1.0]), np.array([1.0]))),
    ("gaussian mass 5, width 0.2", GaussianKernel(5.0, 0.2)),
    ("gaussian mass 20, width 0.15", GaussianKernel(20.0, 0.15)),
]

print(f"{'kernel':30s} {'||k||_L2':>9s} {'Frobenius':>10s} {'spec.rad.':>10s}")
for name, spec in kernels:
    kmat = project_kernel(spec, basis)
    print(f"{name:30s} {kmat.hs_of_k:9.4f} {kmat.frobenius:10.4f} "
          f"{kmat.spectral_radius:10.4f}")

# a tabulated kernel: write midpoint samples, read them back, project
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "ridge.txt")
    write_grid_kernel(path, lambda x, xi: 2.0 * np.exp(-8.0 * (x - xi) ** 2),
                      n=48, length=1.0, comment="narrow symmetric ridge")
    grid = read_grid_kernel(path)
    print(f"\ngrid kernel from file: {grid.n} x {grid.n} samples, "
          f"symmetry defect {grid.symmetry_defect():.1e}")
    kmat = project_kernel(grid, basis)
    print(f"projected: Frobenius {kmat.frobenius:.4f} <= ||k|| {kmat.hs_of_k:.4f}")
