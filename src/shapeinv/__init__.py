"""shapeinv: shape-invariant potentials built, certified, and solved.

A numpy/scipy library for supersymmetric quantum mechanics in units
hbar = 2m = 1: a catalog of the ten classic shape-invariant superpotential
families, a constructive route from free-particle seeds to all of them,
grid verifiers for the defining identities, an algebraic spectral engine
with intertwining wavefunction ladders, an independent finite-difference
eigensolver oracle, axially symmetric partner fields in three dimensions,
and factorization of measure-weighted radial operators with a spherical
Bessel oracle.

Importing the package loads none of its submodules.  Each exported name
imports the submodule that defines it on first use.  The catalog's table
and the command line need no numerics, so numpy loads with the first
submodule that computes, after the OpenBLAS default below is set.

Everything is pure and deterministic: identical inputs give bit-identical
outputs.  The only state shared within a process is the CLI's one argument
parser, built on first use, which parsing only reads, so concurrent use
needs no coordination.
"""

__version__ = "0.1.0"

import os as _os

# No shapeinv routine calls BLAS on operands large enough for threads to
# help, yet OpenBLAS starts a thread pool whenever numpy, or scipy's LAPACK
# wrapper module that the oracle loads, brings in its copy, and the
# spinning worker it starts costs a cold `sip` 60-80 ms per library on a
# 2-CPU machine, or nothing, depending on where the scheduler puts it.  So,
# unless the caller chose a thread count, both load with one thread.
# numpy loads with the first submodule that computes (cli and catalog
# load none), after this line has run; the setting holds for every library
# loaded after it, and child processes inherit it.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import importlib as _importlib

#: each exported name -> the submodule that defines it, imported on first use
_SOURCE = {
    name: module
    for module, names in {
        "sampling": ("ParamSet", "SampledFunction", "make_grid"),
        "catalog": ("DomainInterval", "PotentialFamily", "InvalidParameters", "DomainViolation",
                    "FAMILY_NAMES", "list_families", "get_family", "partner_potentials",
                    "parameter_step", "energy_shift", "family_descriptor"),
        "verify": ("VerificationReport", "verify_shape_invariance", "verify_qhj",
                   "verify_negation_condition", "verify_generalized_si"),
        "ansatz": ("SeedSolution", "ConstructedSuperpotential", "construct_case",
                   "verify_case_riccati", "extend_second_solution", "extend_constant_shift",
                   "isospectral_shift_residual", "integrate_seed", "construct_generalized",
                   "pole_free_grid"),
        "spectral": ("Spectrum", "Wavefunction", "algebraic_spectrum", "ground_state", "apply_A",
                     "apply_Adagger", "ladder_wavefunctions"),
        "oracle": ("OracleConfig", "OracleResult", "eigensolve", "convergence_factors",
                   "compare_spectra"),
        "multidim": ("Region", "ScalarField2D", "laplace_seed", "plane_wave_seed", "make_grid2d",
                     "partner_fields"),
        "radial": ("MeasureWeight", "GeneralizedFactorization", "r_squared_weight",
                   "generalized_qhj_residual", "generalized_partners", "radial_intertwine",
                   "spherical_bessel_oracle"),
    }.items()
    for name in names
}

__all__ = list(_SOURCE)


def __getattr__(name):
    # nothing is bound here, so a name always reads its module's current value
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
