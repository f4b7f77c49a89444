"""shapeinv: shape-invariant potentials built, certified, and solved.

A numpy/scipy library for supersymmetric quantum mechanics in units
hbar = 2m = 1: a catalog of the ten classic shape-invariant superpotential
families, a constructive route from free-particle seeds to all of them,
grid verifiers for the defining identities, an algebraic spectral engine
with intertwining wavefunction ladders, an independent finite-difference
eigensolver oracle, axially symmetric partner fields in three dimensions,
and factorization of measure-weighted radial operators with a spherical
Bessel oracle.

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
# 2-CPU machine, or nothing, depending on where the scheduler puts it.  So, unless the caller chose a thread count, both load
# with one thread.  This holds for the libraries loaded after this import,
# and the variable is inherited by child processes.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .sampling import ParamSet, SampledFunction, make_grid
from .catalog import (
    DomainInterval,
    PotentialFamily,
    InvalidParameters,
    DomainViolation,
    FAMILY_NAMES,
    list_families,
    get_family,
    partner_potentials,
    parameter_step,
    energy_shift,
    family_descriptor,
)
from .verify import (
    VerificationReport,
    verify_shape_invariance,
    verify_qhj,
    verify_negation_condition,
    verify_generalized_si,
)
from .ansatz import (
    SeedSolution,
    ConstructedSuperpotential,
    construct_case,
    verify_case_riccati,
    extend_second_solution,
    extend_constant_shift,
    isospectral_shift_residual,
    integrate_seed,
    construct_generalized,
    pole_free_grid,
)
from .spectral import (
    Spectrum,
    Wavefunction,
    algebraic_spectrum,
    ground_state,
    apply_A,
    apply_Adagger,
    ladder_wavefunctions,
)
from .oracle import OracleConfig, OracleResult, eigensolve, convergence_factors, compare_spectra
from .multidim import (
    Region,
    ScalarField2D,
    laplace_seed,
    plane_wave_seed,
    make_grid2d,
    partner_fields,
    verify_3d_shape_invariance,
)
from .radial import (
    MeasureWeight,
    GeneralizedFactorization,
    r_squared_weight,
    generalized_qhj_residual,
    generalized_partners,
    radial_intertwine,
    spherical_bessel_oracle,
)
