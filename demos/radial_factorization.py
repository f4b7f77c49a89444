"""Factorizing the measure-weighted radial operator, two ways.

The free radial equation -(1/r^2) d/dr (r^2 d/dr) psi + V psi = E psi
factorizes through Q = (ell+1)/r under the weight f = r^2.  Two partner
definitions are implemented: the weighted scheme (conjugating by f inside
the product) and the product scheme H- = CB, H+ = BC.  The product scheme
pairs the centrifugal barriers ell(ell+1)/r^2 and ell(ell-1)/r^2, and its
B operator lowers spherical Bessel functions by one order, checked here
against a Miller-recurrence Bessel oracle.

Run:  python demos/radial_factorization.py
"""

import os
from pathlib import Path

import numpy as np

from shapeinv import (
    GeneralizedFactorization,
    Wavefunction,
    generalized_partners,
    generalized_qhj_residual,
    make_grid,
    r_squared_weight,
    radial_intertwine,
    spherical_bessel_oracle,
)
from shapeinv.radial import intertwine_to_csv

out_dir = Path(os.environ.get("SIP_OUT_DIR", "sip-out"))
out_dir.mkdir(parents=True, exist_ok=True)

ell = 2
fac_product = GeneralizedFactorization(
    Q=lambda r: (ell + 1.0) / np.asarray(r, float),
    Qprime=lambda r: -(ell + 1.0) / np.asarray(r, float) ** 2,
    weight=r_squared_weight(),
    scheme="product-CB",
)
fac_weighted = GeneralizedFactorization(
    Q=fac_product.Q, Qprime=fac_product.Qprime,
    weight=r_squared_weight(), scheme="weighted",
)

r = make_grid(0.5, 20, 4096)
res = generalized_qhj_residual(fac_product, lambda rr: ell * (ell + 1) / rr**2, 0.0, r)
print(f"weighted Riccati residual for Q = (ell+1)/r at ell={ell}: {res:.2e}\n")

vm_p, vp_p = generalized_partners(fac_product, r)
vm_w, vp_w = generalized_partners(fac_weighted, r)
print("partner pairs produced by the two schemes (coefficients of 1/r^2):")
print(f"  product-CB: V- -> {vm_p[0] * r[0] ** 2:.1f}, V+ -> {vp_p[0] * r[0] ** 2:.1f}"
      f"   (ell(ell+1), ell(ell-1))")
print(f"  weighted:   V- -> {vm_w[0] * r[0] ** 2:.1f}, V+ -> {vp_w[0] * r[0] ** 2:.1f}"
      f"   (ell(ell+1), (ell+1)(ell+2))\n")

# The product scheme's B = d/dr + (ell+1)/r lowers j_ell to j_{ell-1}.
j2 = spherical_bessel_oracle(2, r)[0]
j1 = spherical_bessel_oracle(1, r)[0]
lowered = radial_intertwine(2, Wavefunction(x=r, values=j2, level=2))
dev = np.max(np.abs(lowered.values - j1)) / np.max(np.abs(j1))
print(f"B j_2 vs j_1 on r in [0.5, 20]: max deviation {dev:.2e} of peak")

# The identity holds order by order; spot check the whole tower.
print("\nlowering identity j_l' + ((l+1)/r) j_l = j_(l-1), differenced j_l':")
h = 1e-5
for l in range(1, 6):
    worst = max(
        abs((spherical_bessel_oracle(l, rv + h)[0]
             - spherical_bessel_oracle(l, rv - h)[0]) / (2 * h)
            + (l + 1) / rv * spherical_bessel_oracle(l, rv)[0]
            - spherical_bessel_oracle(l - 1, rv)[0])
        for rv in (0.5, 1.0, 2.0, 5.0, 10.0))
    print(f"  l={l}: worst residual {worst:.2e}")

path = out_dir / "bessel_intertwine.csv"
intertwine_to_csv(path, r, j2, lowered.values, j1)
print(f"\nwrote {path}")
