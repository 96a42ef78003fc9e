"""Discrete Schrodinger operators, Carleman-conjugated operators, and
desk-scale verification of propagation-of-smallness inequalities on lattices."""

from ._kernels import kernel_backend
from .conjugate import (
    CARLEMAN_ANNULUS,
    CarlemanRatio,
    CommutatorCoeffs,
    ConjugationContext,
    antisym_apply,
    carleman_box,
    carleman_ratio,
    commutator_coeffs,
    commutator_form,
    conjugate_apply,
    random_bump,
    sym_apply,
    weight_table,
)
from .experiments import (
    CaccioppoliRatio,
    SweepConfig,
    caccioppoli_ratio,
    caccioppoli_sweep,
    carleman_sweep,
    coarsen_check,
    harmonic_residual,
    in_window,
    localization_diagnostic,
    log_convexity_scan,
    rescaled_three_balls,
    singular_potential_experiment,
    three_balls_experiment,
)
from .io import load_lattice_function, save_lattice_function
from .lattice import (
    AnnularRegion,
    BallRegion,
    FieldData,
    LatticeFunction,
    LatticeSpec,
    coarsen,
    diff,
    inner_product,
    l2_norm,
    laplacian,
    schrodinger_apply,
    stretch,
    sym_diff_sum,
)
from .reports import ExperimentReport, FittedConstant
from .solver import (
    DirichletProblem,
    SolverError,
    ball_input,
    dirichlet_solve,
    harmonic_polynomial,
    residual,
    rounding_floor,
)
from .symbols import (
    FrozenPoint,
    MarginScan,
    SymbolGrid,
    char_set_distance,
    lower_bound_margin,
    symbol_pi,
    symbol_pr,
    symbol_q,
)
from .weight import (
    WeightEval,
    WeightParams,
    admissibility_check,
    phi_eval,
    pseudoconvexity_margin,
    varphi,
    weight_constants,
)

__version__ = "0.1.0"
