"""Tour of the shape-invariant family catalog.

Walks the ten classic families: evaluates superpotentials and partner
potentials, steps the parameter ladder, and certifies on a grid that
V_plus(x; p) - V_minus(x; tau(p)) really is x-independent for each family,
comparing the refit constant against the energy shift of the family's
recipe in the ansatz.

Run:  python demos/catalog_tour.py
"""

import json
import os
from io import StringIO
from pathlib import Path

from shapeinv import (
    energy_shift,
    family_descriptor,
    get_family,
    list_families,
    parameter_step,
    partner_potentials,
)
from shapeinv.cli import run_command

out_dir = Path(os.environ.get("SIP_OUT_DIR", "sip-out"))
out_dir.mkdir(parents=True, exist_ok=True)

print("The catalog holds ten families:\n")
for name, params, kind in list_families():
    print(f"  {name:32s} {kind:10s} parameters: {', '.join(params)}")

# A closer look at one family: the Morse ladder steps A down by a.
morse = get_family("morse")
p = {"A": 4.0, "B": 4.0, "a": 1.0}
print("\nMorse at A=4, B=4, a=1:")
print(f"  W(0)          = {morse.W(p, 0.0):+.6f}   (A - B at the origin)")
vm, vp = partner_potentials(morse, p, 1.0)
print(f"  V-(1), V+(1)  = {vm:+.6f}, {vp:+.6f}")
print(f"  tau(p)        = {parameter_step(morse, p)}")
print(f"  R(p)          = {energy_shift(morse, p):.6f}   (= A^2 - (A-a)^2)")

# Certify every family as `sip verify` does: the difference of partners
# across one ladder step must be flat to rounding on the grid verify cuts
# from the family's window, where the fields are smallest.
print("\nShape-invariance certificates (sip verify, 512-point grids):")
for name, _, _ in list_families():
    buf = StringIO()
    run_command(["verify", name, "--json"], buf)
    rep = json.loads(buf.getvalue())
    lo, hi, _ = rep["grid"]
    fam = get_family(name)
    recipe = energy_shift(fam, fam.reference_params)
    print(f"  {name:32s} on [{lo:+.4g}, {hi:+.4g}] refit R = {rep['estimated_constant']:+.9f} "
          f"(recipe {recipe:+.9f}), flat to {rep['max_residual']:.2e} -> "
          f"{'ok' if rep['passed'] else 'FAILED'}")

# Machine-readable descriptors for downstream tools.
path = out_dir / "catalog.json"
path.write_text(json.dumps(
    [family_descriptor(get_family(n)) for n, _, _ in list_families()],
    indent=2, sort_keys=True))
print(f"\nwrote {path}")
