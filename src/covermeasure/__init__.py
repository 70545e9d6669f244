"""covermeasure: the limit measure on moduli spaces of volume-one metric
graphs, with exact and Monte Carlo integrators, lattice discretizations,
counting asymptotics, and hyperbolic pants geometry."""

from .asymptotics import (
    CountingModel,
    SeriesDivergenceError,
    SyntheticEnsemble,
    SyntheticSubgroup,
    crit_box_asymptotic,
    crit_count_asymptotic,
    expected_systole_line,
    huber_count,
    ps_measure_expectation,
    ps_model_closed_form,
    ps_partial_sum,
    ps_via_stieltjes,
    subgroup_count_asymptotic,
    synthesize_ensemble,
)
from .functionals import BRIDGE, FUNCTIONALS, MINEDGE, SYSTOLE, Functional, get_functional
from .graphs import (
    EnumerationCertificateError,
    InvalidGraphError,
    InvalidRankError,
    TrivalentGraph,
    automorphism_group,
    bridges,
    canonical_form,
    complete_graph_k4,
    dumbbell,
    edge_action,
    enumerate_trivalent,
    mass_formula,
    resolve_graph,
    simple_cycles,
    theta_graph,
    triv_subgroup,
)
from .invariants import (
    InfeasibleGeometryError,
    PantsBoundary,
    matrix_pants_oracle,
    min_edge_length,
    pants_boundary_from_dumbbell,
    separating_orthogeodesic_length,
    systole,
    systole_from_lengths,
    translation_length,
)
from .measure import (
    EmpiricalMeasure,
    ExactWorkLimitError,
    InvalidSampleCountError,
    MeasureMixture,
    MetricGraph,
    SimplexBlock,
    SymmetryViolationError,
    build_limit_measure,
    expectation,
    integrate_exact,
    integrate_mc,
    lattice_sigma,
    omega_counts,
    quotient_integral,
)

__version__ = "0.1.0"
