# The analytic Dirichlet sine basis on (0, ell), and what an observation
# window omega = (a, b) does to it: the restricted Gram matrix M_omega has
# spectrum inside [0, 1], and its smallest eigenvalue measures how poorly
# a worst-case packet of the first n modes is seen from omega.

import numpy as np

from nullheat import Domain, build_basis, eval_mode, gauss_quadrature, restricted_mass_matrix

domain = Domain(length=1.0, omega_lo=0.3, omega_hi=0.8)
basis = build_basis(domain, 12)

print("first eigenvalues (j pi / ell)^2:")
print(" ", np.array2string(basis.lambdas[:6], precision=4))

print("\nmode values at the domain midpoint (odd modes peak, even modes vanish):")
print(" ", [round(eval_mode(basis, j, 0.5), 6) for j in range(4)])

M = restricted_mass_matrix(basis, domain.omega_lo, domain.omega_hi)
w = np.linalg.eigvalsh(M)
print(f"\nGram matrix on omega = {domain.omega}: spectrum in "
      f"[{w[0]:.3e}, {w[-1]:.6f}]")
print("the smallest eigenvalue is the worst-case visibility of a 12-mode packet")

# closed form vs quadrature, one entry
q = gauss_quadrature(lambda x: eval_mode(basis, 0, x) * eval_mode(basis, 2, x),
                     domain.omega_lo, domain.omega_hi, panels=12)
print(f"\nclosed-form entry M[0,2] = {M[0, 2]:+.12f}")
print(f"quadrature check        = {q:+.12f}")

# shrinking the window makes every packet harder to see
for lo, hi in ((0.1, 0.9), (0.3, 0.8), (0.45, 0.65)):
    w = np.linalg.eigvalsh(restricted_mass_matrix(basis, lo, hi))
    print(f"omega = ({lo}, {hi}):  min eig = {w[0]:.3e}")
