"""From free-particle seeds to every catalog superpotential.

The construction: a nodeless solution u of u'' + K u = 0 defines
F = u'/u, which satisfies F^2 + F' + K = 0 exactly, and W = lam * F(alpha x)
is shape invariant under lam -> lam - alpha.  The three sign classes of K
give rational, trigonometric and hyperbolic F.  Two extensions (a second
Riccati solution and a constant shift c/lam) then reach all ten catalog
families after parameter identification; the catalog states each family
as its recipe.

Run:  python demos/seeds_to_superpotentials.py
"""

import numpy as np

from shapeinv import (
    SampledFunction,
    construct_case,
    extend_constant_shift,
    extend_second_solution,
    get_family,
    make_grid,
    pole_free_grid,
    verify_case_riccati,
    verify_shape_invariance,
)

print("Case K = 0 (linear seed):      W = lam/x          ", end="")
c0 = construct_case(0.0, "linear", alpha=1.0, lam=1.0)
print(f"W(2) = {c0.W(2.0):.4f}")

print("Case K > 0 (cosine seed):      W = -lam k tan(k x)", end="")
cp = construct_case(1.0, "cos", alpha=1.0, lam=1.0)
print(f"  W(0.5) = {cp.W(0.5):+.4f} vs -tan(0.5) = {-np.tan(0.5):+.4f}")

print("Case K < 0 (cosh seed):        W = lam c tanh(c x)", end="")
cm = construct_case(-1.0, "cosh", alpha=1.0, lam=2.0)
print(f"  W(1) = {cm.W(1.0):+.4f} vs 2 tanh(1) = {2 * np.tanh(1):+.4f}")

# The defining Riccati relation, checked from samples alone (the checker
# knows nothing about the branch; it differences the samples).
grid, poles = pole_free_grid(cp, -1.3, 1.3, 4096)
res = verify_case_riccati(SampledFunction(grid, cp.F(grid)), 1.0)
print(f"\nSampled Riccati residual for the cosine case: {res:.2e} "
      f"(poles excluded: {[f'{p:.3f}' for p in poles]})")

# Extension 1: second solution. phi' + F phi = C turns the cosh seed into
# the hyperbolic Scarf form A tanh + B sech.
scarf = extend_second_solution(construct_case(-1.0, "cosh", 1.0, 4.0), 0.0, 4.0)
x = make_grid(-6, 6, 512)
print(f"\nScarf II from the cosh seed: max |W_recipe - (4 tanh x + 4 sech x)| = "
      f"{np.max(np.abs(scarf.W(x) - (4 * np.tanh(x) + 4 / np.cosh(x)))):.2e}")

# Extension 2: constant shift. W -> W + c/lam keeps shape invariance and
# reaches the Rosen-Morse / Eckart / Coulomb forms.
eckart = extend_constant_shift(construct_case(-1.0, "sinh", 0.5, -1.0), -3.0)
r = make_grid(0.2, 11, 512)
print(f"Eckart from the sinh seed:   max |W_recipe - (3 - coth(r/2))| = "
      f"{np.max(np.abs(eckart.W(r) - (3 - 1 / np.tanh(r / 2)))):.2e}")

# Every construction is itself certified shape invariant with the refit
# constant matching the closed-form shift.
rep = verify_shape_invariance(eckart.W_at, eckart.Wprime_at, eckart.lam,
                              eckart.tau, r)
print(f"\nEckart recipe ladder certificate: refit R = {rep.estimated_constant:.6f}, "
      f"closed form {eckart.energy_shift():.6f}, flat to {rep.max_residual:.2e}")

print(f"\nrecipe descriptor: {eckart.to_json()}")
p = {"A": 1.0, "B": 3.0, "a": 0.5}
print(f"the catalog's Eckart at A=1, B=3, a=1/2 is this recipe: "
      f"{get_family('eckart').recipe(p).to_json() == eckart.to_json()}")
