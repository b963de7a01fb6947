"""Layer ladder: each layer's public function timed on an N ladder.

Float layers run at N in {16, 32, 64, 128, 256} on Gaussian(20, 0.15) over
omega = (0.3, 0.8); the extended-precision layers run at N in {8, 12, 16, 20}.
Each cell is the median of REPEATS calls after one untimed call.
"""

import json
import statistics
import time
import warnings

import numpy as np

import nullheat as nh
from nullheat import _highprec

FLOAT_N = (16, 32, 64, 128, 256)
MP_N = (8, 12, 16, 20)
REPEATS = 3
DOMAIN = nh.Domain(length=1.0, omega_lo=0.3, omega_hi=0.8)


def _median_time(fn):
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _float_layers(n):
    kernel = nh.GaussianKernel(amplitude=20.0, width=0.15)
    basis = nh.build_basis(DOMAIN, n)
    gen = nh.assemble_generator(basis, nh.project_kernel(kernel, basis))
    dec = nh.decompose(gen)
    m_omega = nh.restricted_mass_matrix(basis, 0.3, 0.8)
    u0 = np.eye(n)[0]
    ctl = nh.hum_control(dec, m_omega, u0, 0.5, nt=4097)
    return {
        "restricted Gram": lambda: nh.restricted_mass_matrix(basis, 0.3, 0.8),
        "Gaussian projection": lambda: nh.project_kernel(kernel, basis),
        "decompose": lambda: nh.decompose(gen),
        "observability_cost (T=0.1)": lambda: nh.observability_cost(dec, m_omega, 0.1),
        "hum_control (nt 4097)": lambda: nh.hum_control(dec, m_omega, u0, 0.5, nt=4097),
        "simulate_controlled (nt_fine 16385)": lambda: nh.simulate_controlled(
            dec, m_omega, u0, ctl.control_coeffs, 0.5, nt_fine=16385),
    }


def _mp_layers(n):
    kernel = nh.GaussianKernel(amplitude=5.0, width=0.2)  # default.cfg's kernel
    basis = nh.build_basis(DOMAIN, n)
    dec = nh.decompose(nh.assemble_generator(basis, nh.project_kernel(kernel, basis)))
    m_omega = nh.restricted_mass_matrix(basis, 0.3, 0.8)
    M = _highprec.mass_matrix_mp(n, 0.3, 0.8, 1.0)
    witness = nh.spectral_obs_constant(basis, (0.3, 0.8), float(basis.lambdas[-1])).witness
    return {
        "mass_matrix_mp": lambda: _highprec.mass_matrix_mp(n, 0.3, 0.8, 1.0),
        "smallest_eigenpair_mp (packet constant)": lambda: _highprec.smallest_eigenpair_mp(M),
        # called directly: at N = 20 left_inverse_constant's conditioning gate
        # refuses this omega before any mp work
        "generalized_min_eig_mp (zeta(0.05))": lambda: _highprec.generalized_min_eig_mp(
            dec.mus, dec.modes, m_omega, 0.05),
        "rayleigh_quotient_mp": lambda: _highprec.rayleigh_quotient_mp(
            n, 0.3, 0.8, 1.0, witness),
    }


def measure():
    table = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ridge fallbacks at N >= 128
        for ladder, build in ((FLOAT_N, _float_layers), (MP_N, _mp_layers)):
            for n in ladder:
                for layer, fn in build(n).items():
                    table.setdefault(layer, {})[n] = _median_time(fn)
    return table


def main(out_dir):
    table = measure()
    for ladder in (FLOAT_N, MP_N):
        print("| layer | " + " | ".join(f"N = {n}" for n in ladder) + " |")
        print("|---" * (len(ladder) + 1) + "|")
        for layer, cells in table.items():
            if set(cells) == set(ladder):
                print(f"| {layer} | " + " | ".join(f"{1e3 * cells[n]:.3g} ms" for n in ladder) + " |")
        print()
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ladder.json", "w", encoding="utf-8") as fh:
        json.dump({layer: {str(n): t for n, t in cells.items()} for layer, cells in table.items()},
                  fh, indent=1)
    return 0
