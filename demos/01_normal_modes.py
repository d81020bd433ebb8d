"""Normal modes of a harmonic particle coupled to a finite ohmic bath.

Walks the smallest interesting system (N = 8 bath modes) through both
solver routes: the secular-equation root hunt and the dense Jacobi
eigensolve (one-sided Jacobi on the exact factor C of the potential
matrix M = C^T C), then inspects how the particle's spectral weight
spreads as the coupling grows.
"""

import numpy as np

from dressedbath import (
    OhmicSystemSpec,
    build_potential_matrix,
    derive_parameters,
    eigen_decompose,
    finite_matrix,
    solve_finite_spectrum,
)

spec = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=8,
                       light_speed=1.0)
d = derive_parameters(spec)
print("bare particle frequency shifted by the counter-term:")
print(f"  bar_omega = {spec.bar_omega}   omega_0 = {d.omega0:.6f}"
      f"   (mode spacing {d.delta_omega:.6f})")

modes = solve_finite_spectrum(spec)
eigvals, vecs = eigen_decompose(build_potential_matrix(spec))
print("\nsecular roots vs dense eigenvalues (should agree to ~1e-13):")
for r in range(modes.n_modes_total):
    dense = spec.bar_omega * np.sqrt(eigvals[r])   # eigvals in units of bar_omega**2
    print(f"  mode {r}: {modes.frequencies[r]:.12f}  dense {dense:.12f}"
          f"  rel diff {abs(modes.frequencies[r] / dense - 1.0):.1e}")

print(f"\nparticle weight sum rule: sum w_r = {modes.weights.sum():.15f}")

matrix = finite_matrix(spec, modes)
gram = matrix.entries.T @ matrix.entries
print(f"transform orthonormality defect: "
      f"{np.max(np.abs(gram - np.eye(9))):.2e}")

# weight localization: weak coupling keeps the particle's identity in one
# mode; strong coupling smears it across the whole ladder
print("\nlargest particle weight by coupling strength:")
for g in (0.05, 0.3, 1.0, 3.0):
    s = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, n_modes=8,
                        light_speed=1.0)
    w = solve_finite_spectrum(s).weights
    print(f"  g = {g:4}  max w_r = {w.max():.4f}  spread over "
          f"{np.sum(w > 0.01)} modes with w > 1%")
