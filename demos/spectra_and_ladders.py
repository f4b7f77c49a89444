"""Algebraic spectra against the brute-force eigensolver, plus wavefunctions.

Energies come for free from shape invariance: E_n is the cumulative sum of
energy shifts down the parameter ladder.  The oracle knows none of that:
it discretizes -psi'' + V psi = E psi on a Dirichlet box and diagonalizes.
Agreement of the two routes, and of the ladder-built wavefunctions with
the oracle eigenvectors, is the package's core correctness claim.

Run:  python demos/spectra_and_ladders.py
"""

import os
from pathlib import Path

from shapeinv import (
    OracleConfig,
    algebraic_spectrum,
    compare_spectra,
    eigensolve,
    get_family,
    ladder_wavefunctions,
)
from shapeinv.spectral import wavefunctions_to_csv

out_dir = Path(os.environ.get("SIP_OUT_DIR", "sip-out"))
out_dir.mkdir(parents=True, exist_ok=True)

for name, p, levels in [
    ("shifted-oscillator", {"omega": 2.0, "b": 0.0}, 4),
    ("radial-oscillator", {"omega": 2.0, "ell": 0.0}, 3),
    ("morse", {"A": 4.0, "B": 4.0, "a": 1.0}, 4),
]:
    fam = get_family(name)
    alg = algebraic_spectrum(fam, p, levels)
    cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=2000, n_levels=levels)
    res = eigensolve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), cfg)
    cmp = compare_spectra(alg, res.spectrum, tolerance=1e-3)
    print(f"{name} ({levels} levels)")
    print(f"  ladder sums:  {[f'{e:.6f}' for e in alg.energies]}")
    print(f"  oracle gaps:  {[f'{e:.6f}' for e in res.spectrum.gaps()]}")
    print(f"  deviations:   {[f'{d:.1e}' for d in cmp.deviations]}  "
          f"-> {'ok' if cmp.passed else 'FAILED'}\n")

# A finite ladder: Morse at A = 2 supports only two bound states, and the
# ladder reports its own truncation instead of inventing levels.
fam = get_family("morse")
s = algebraic_spectrum(fam, {"A": 2.0, "B": 4.0, "a": 1.0}, 10)
print(f"morse at A=2: requested 10 levels, got {s.energies} "
      f"(truncated: {s.truncated})\n")

# Wavefunctions by repeated raising: ground state at the top rung, then
# (-d/dx + W) back down.  Node counts label the levels.
fam = get_family("morse")
p = {"A": 4.0, "B": 4.0, "a": 1.0}
cfg = OracleConfig(box=fam.domain(p).oracle_box, n_points=2400, n_levels=4)
res = eigensolve(lambda x: fam.W(p, x) ** 2 - fam.Wprime(p, x), cfg)
wfs = ladder_wavefunctions(fam, p, 4, res.wavefunctions[0].x)
print("morse ladder wavefunctions vs oracle eigenvectors:")
for n, w in enumerate(wfs):
    overlap = abs(w.inner(res.wavefunctions[n]))
    print(f"  n={n}: nodes {w.nodes()}, overlap {overlap:.8f}")

path = out_dir / "morse_wavefunctions.csv"
wavefunctions_to_csv(path, wfs)
print(f"\nwrote {path}")
