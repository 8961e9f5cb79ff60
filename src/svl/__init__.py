"""Genuine tripartite nonlocality of three-qubit reductions.

Quantifies Svetlichny values of three-qubit states, spectral upper
bounds from Pauli correlation tensors, and closed-form trade-off
relations over all three-qubit reductions of four- and n-qubit states,
with a numerical-maximization harness to check them.
"""

from .correlations import (
    CorrelationMatrix2,
    CorrelationTensor3,
    chsh_max,
    correlation_tensor,
    flatten_correlation_tensor,
    pair_correlation_matrix,
    svetlichny_upper_bound,
)
from .errors import DomainError, InvalidArityError, NormalizationError
from .qstate import (
    DensityMatrix,
    PureState,
    StateSpec,
    make_dicke,
    make_gghz,
    make_ms,
    make_wclass,
    maximally_mixed,
    partial_trace,
    reduce_pure,
    to_density,
)
from .svetlichny import (
    BbDecomposition,
    BlochVector,
    OptimizerOptions,
    SvetlichnyMaximum,
    SvetlichnySettings,
    decompose_bb,
    lagrange_max,
    maximize_svetlichny,
    observable,
    svetlichny_grid_search,
    svetlichny_operator,
    svetlichny_value,
)
from .tradeoff import (
    BOUND_NAMES,
    FIGURES,
    TradeoffReport,
    WClassCoefficients,
    bound_gghz_sum,
    bound_gghz_sum_n,
    bound_gghz_sum_spectral,
    bound_ms_sum,
    bound_ms_sum_n,
    bound_ms_sum_spectral,
    bound_wclass_sum,
    bound_wclass_sum_squares,
    bound_wclass_sum_squares_spectral,
    sweep_figure,
    verify_tradeoff,
)

__version__ = "0.1.0"
