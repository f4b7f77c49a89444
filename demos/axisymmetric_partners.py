"""Partner potential fields in three dimensions from harmonic seeds.

Any positive solution of nabla^2 chi + K chi = 0 on a working region
yields partner fields V_pm = lam^2 |grad F|^2 +- lam nabla^2 F with
F = log chi, and the unit ladder step mu = lam - 1 makes
V_plus(lam) - V_minus(mu) the constant -(lam + mu) K: exactly zero for
harmonic seeds.  Unlike one dimension, the seed space here is infinite:
every multipole combination produces a genuinely non-separable pair.

Run:  python demos/axisymmetric_partners.py
"""

import os
from pathlib import Path

from shapeinv import (
    laplace_seed,
    make_grid2d,
    partner_fields,
    plane_wave_seed,
)
from shapeinv.multidim import DEFAULT_REGION, fields_to_csv, seed_manifest

out_dir = Path(os.environ.get("SIP_OUT_DIR", "sip-out"))
out_dir.mkdir(parents=True, exist_ok=True)

# The flagship seed: chi = 2 + r cos(theta), a monopole plus a dipole.
chi = laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0)])
grid = make_grid2d(DEFAULT_REGION, 128, 128)

print("seed chi = 2 + r cos(theta) on r in [0.5, 1.5], theta in [0.3, 2.8]")
vminus, vplus, report, helmholtz = partner_fields(chi, lam=2.0, grid2d=grid, mu=1.0)
print(f"  harmonicity |lap chi / chi|  max: {helmholtz.max_residual:.2e} ({helmholtz.verdict})")
print(f"  V-(lam=2) range: [{vminus.min():.4f}, {vminus.max():.4f}]")
print(f"  V+(lam=2) range: [{vplus.min():.4f}, {vplus.max():.4f}]")
print(f"  ladder certificate V+(2) - V-(1): constant "
      f"{report.estimated_constant:+.2e}, flat to {report.max_residual:.2e}")

# Probing a wrong step shows the certificate is doing real work.
bad = partner_fields(chi, 2.0, grid, mu=1.5)[2]
print(f"  wrong step mu=1.5: max deviation {bad.max_residual:.3f} -> rejected\n")

# Richer multipole content works just as well.
rich = laplace_seed([(0, 2.0, 0.0), (1, 1.0, 0.0), (2, 0.2, 0.05), (3, 0.0, 0.02)])
rep = partner_fields(rich, 3.0, grid, mu=2.0)[2]
print(f"four-term seed, lam=3: ladder constant {rep.estimated_constant:+.2e}, "
      f"flat to {rep.max_residual:.2e}")

# Helmholtz seeds carry K != 0; the same unit step leaves -(lam+mu)K.
pw = plane_wave_seed(0.7)
rep = partner_fields(pw, 2.0, grid, mu=1.0)[2]
print(f"plane-wave seed (K = {pw.K:+.2f}): ladder constant "
      f"{rep.estimated_constant:+.6f} (expect {-(2 + 1) * pw.K:+.6f})\n")

csv_path = out_dir / "axisymmetric_fields.csv"
fields_to_csv(csv_path, grid, vminus, vplus)
manifest = seed_manifest(chi, 2.0)
print(f"wrote {csv_path}")
print(f"seed manifest: {manifest}")
