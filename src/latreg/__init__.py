"""latreg: exact invariants of graded lattice ideals and of vanishing ideals
of monomially parameterized sets over prime fields."""

__version__ = "0.1.0"

from .binomial_gb import (
    BinomialIdeal,
    GroebnerBasis,
    buchberger,
    homogenize_binomials,
    ideal_equal,
    initial_ideal,
    is_complete_intersection,
    is_lattice_ideal,
    lattice_ideal_generators,
    normal_form,
    saturate_all,
    saturate_variable,
    toric_ideal_monomial_map,
    vanishing_ideal_finite_field,
)
from .ffvanish import (
    PointSet,
    PrimeField,
    check_vanishing,
    enumerate_degenerate_torus,
    enumerate_parameterized,
    hilbert_function_points,
    is_subgroup_of_torus,
    parameterized_hilbert_table,
    regularity_points,
    subgroup_to_monomials,
)
from .graphblocks import (
    Graph,
    bipartition,
    blocks,
    characteristic_vectors,
    edge_point_set,
    graph,
    reg_bipartite_blocks,
    reg_bounds_bipartite,
    reg_colon_method,
)
from .hilbert import (
    HilbertSeries,
    a_invariant,
    degree_dim1_standard,
    hilbert_table,
    ideal_hilbert,
    index_of_regularity,
    lambda_product,
    monomial_hilbert,
    rational_equal,
    reg_cm,
    substitute_power,
)
from .intlat import (
    Lattice,
    hermite_normal_form,
    homogenize_lattice,
    is_homogeneous,
    kernel_lattice,
    saturate_lattice,
    smith_invariants,
    torsion_order,
)
from .invariants import (
    TorusSpec,
    additive_regularity,
    curve_spec,
    degenerate_torus_invariants,
    degree_transfer,
    lattice_degree_dim1,
    mcurve_degree,
    mcurve_regularity,
    prescribe_regularity,
)
from .numsgp import NumericalSemigroup, apery_set, frobenius_number, membership
from .ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    compare,
    parse_binomial,
    render_binomial,
    split_parts,
    standard_grading,
    weighted_degree,
)
