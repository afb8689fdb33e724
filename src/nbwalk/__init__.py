"""Non-backtracking-centrality random walks on undirected graphs.

Transition matrices, stationary distributions, and exact hitting times for
the unbiased walk, the maximal-entropy walk, and the non-backtracking
centrality biased walk, with cross-validating oracles.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailureError, IllConditionedError, InvalidParamsError, NbwalkError,
    NotConnectedError, ParseError, TreeGraphError, ZeroDenominatorError,
)
from .graph import Graph, GraphValidation, parse_edge_list, validate
from .hitting import (
    HittingReport, eq26_audit, hitting_linear, hitting_spectral, hub_node, walk_hitting,
)
from .models import (
    RoseOracle4, RoseSpec, corrected_exponent, gen_ba, gen_er, gen_ws, loglog_slope, make_rose,
    rose4_oracle, scaling_table,
)
from .nbcentrality import (
    NbCentrality, build_m_matrix, build_nb_matrix, eigenvector_centrality, nb_centrality,
    verify_b_vs_m,
)
from .simulate import SimConfig, SimResult, simulate_hitting, simulate_stationary
from .spectral import LeadingEigenpair, lanczos_leading, leading_eig, sym_eig
from .walks import (
    ReversibleWalk, StationaryDistribution, TransitionMatrix, WalkKind, detailed_balance_residual,
    ipr, potential, reversible_walk, stationary_closed, stationary_generic, transition,
)
