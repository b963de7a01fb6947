# Staged null control: instead of one Gramian solve over the whole horizon,
# split it dyadically -- each stage's active half annihilates the modes below
# a cutoff that quadruples per stage (so its square root doubles), and the
# passive half lets free dissipation crush what the control stirred up.  The
# stage log shows the telescoping; the total cost stays finite and close to
# the one-shot optimum.

import numpy as np

from nullheat import Domain, GaussianKernel, build_model, hum_control, lr_staged_control

domain = Domain(1.0, 0.3, 0.8)
kernel = GaussianKernel(5.0, 0.2)
u0 = np.ones(16) / 4.0

result = lr_staged_control(domain, kernel, u0, T=1.0, stages=4, r0=np.pi ** 2, nt=1025)

print(f"{'k':>2s} {'cutoff':>9s} {'window':>17s} {'after active':>13s} "
      f"{'after passive':>14s}")
for s in result.stage_log:
    print(f"{s.k:2d} {s.r_k:9.1f} [{s.t_start:.4f}, {s.t_end:.4f}] "
          f"{s.residual_after_active:13.2e} {s.residual_after_passive:14.2e}")

print(f"\nfinal residual at t = 1.0: {result.terminal_residual:.2e}")
print(f"staged control energy:     {result.cost_sq:.4e}")

# the one-shot comparison on the staged run's own truncation
_, _, dec, m_omega = build_model(domain, kernel, result.control_coeffs.shape[1])
one_shot = hum_control(dec, m_omega, u0, 1.0, nt=257)
print(f"one-shot optimum energy:   {one_shot.cost_sq:.4e}")
