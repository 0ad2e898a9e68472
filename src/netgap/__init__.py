"""netgap: scalar vs. vector linear network coding on combination networks.

Builders for (sub-)combination and Kneser networks, exact finite-field
linear algebra, skeleton graphs, q-Kneser chromatic numbers and
homomorphisms, MDS codes, independent configurations, and exact
q_s / q_v / gap computation with replayable certificates.
"""

from .errors import BudgetExhausted, InternalError, NetgapError, SizeLimitExceeded, UnsolvableNetwork
from .gf import FieldSpec, Matrix, field_of_order, make_field, rank, rref
from .subspaces import (
    Subspace,
    canonicalize,
    enumerate_subspaces,
    gaussian_coefficient,
    intersection,
    spread,
    sum_dim,
)
from .graphs import UGraph, complete_graph
from .networks import (
    Network,
    build_butterfly,
    build_combination,
    build_kneser,
    combination_parameters,
    extend_messages,
    is_minimal,
    is_solvable,
    is_subcombination,
    min_cut,
    parallelize,
    prune,
)
from .skeleton import SkeletonGraph, reverse_skeleton, skeleton
from .qkneser import (
    build_qkneser,
    canonical_coloring,
    chromatic_number,
    find_homomorphism,
    max_clique,
    qkneser_clique_number,
    spread_clique,
)
from .lincode import (
    NetworkCode,
    Verdict,
    extend_solution,
    restrict_solution,
    search_solution,
    solution_from_classical_code,
    split_to_scalar,
    verify_solution,
)
from .mdsic import (
    IndependentConfiguration,
    LinearCode,
    ic_exists_of_size,
    ic_is_valid,
    ic_max_size,
    ic_size_bound,
    ic_to_solution,
    min_distance,
    rs_code,
    solution_to_ic,
)
from .gaplab import (
    Extremal,
    GapReport,
    gap_exact,
    gap_formulas,
    gap_table_rows,
    is_prime_power,
    psi,
    qs_exact,
    qv_exact,
)

__version__ = "0.1.0"
