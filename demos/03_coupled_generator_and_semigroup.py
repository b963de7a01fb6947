# The coupled generator L = -diag(lambda) + K, its exact semigroup, and the
# two operator bounds everything downstream leans on: the growth bound
# ||e^{Lt}|| <= e^{(-lambda_1 + ||k||) t}, and the left-inverse constant
# zeta(t) with zeta(t) ||v||_omega <= ||e^{Lt} v||_omega.

import numpy as np

from nullheat import (Domain, GaussianKernel, assemble_generator, build_basis,
                      decompose, left_inverse_constant, project_kernel,
                      propagate, restricted_mass_matrix, semigroup_norm)
from nullheat.oracles import crank_nicolson_propagate

domain = Domain(1.0, 0.3, 0.8)
basis = build_basis(domain, 16)
kmat = project_kernel(GaussianKernel(5.0, 0.2), basis)
lmat = assemble_generator(basis, kmat)  # the symmetric array L
dec = decompose(lmat)
# build_model(domain, kernel, n) runs this chain, plus the Gram matrix on omega

print("top of the coupled spectrum:", np.array2string(dec.mus[:4], precision=3))
print("uncoupled it would start at:", -basis.lambdas[0].round(3))
print(f"the coupling shifts eigenvalues by at most ||K||_F = {kmat.frobenius:.3f} "
      "(eigenvalue perturbation bound)")

# exact propagation vs a blind time stepper
rng = np.random.default_rng(7)
v = rng.standard_normal(16)
exact = propagate(dec, v, 0.1)
stepped = crank_nicolson_propagate(lmat, v, 0.1, steps=20_000)
print(f"\npropagate vs Crank-Nicolson (2e4 steps): rel diff "
      f"{np.linalg.norm(exact - stepped) / np.linalg.norm(exact):.2e}")

lam1 = basis.lambdas[0]
print("\ngrowth bound along t:")
for t in (0.1, 0.5, 2.0):
    norm = semigroup_norm(dec, t)
    bound = np.exp((-lam1 + kmat.hs_of_k) * t)
    print(f"  t={t:4.1f}:  ||e^(Lt)|| = {norm:.3e}  <=  {bound:.3e}")

m_omega = restricted_mass_matrix(basis, domain.omega_lo, domain.omega_hi)
print("\nleft-inverse constant on the window (escalates to extended precision")
print("once the generalized eigenvalue sinks below the float64 floor):")
for t in (0.0, 0.005, 0.02, 0.05):
    zeta = left_inverse_constant(dec, m_omega, t)
    print(f"  zeta({t:5.3f}) = {zeta:.6e}")
