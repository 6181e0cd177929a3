"""Exact single-source shortest paths for short rational edge weights.

The package splits into arithmetic (`rational`, `cfrac`), graph plumbing
(`graph`, `inctree`), the dynamic comparison machinery (`cover`,
`distcmp`), and the solvers (`scaling`, `sssp`).  `cli` wires everything
into the `ratpath` command.
"""

from .rational import (
    BigRational,
    WordBudget,
    DEFAULT_BUDGET,
    is_k_short,
    sum_balanced,
)
from .cfrac import (
    ApproxPair,
    Ordering,
    best_approx,
    best_approx_shift,
    compare_via_approx,
)
from .graph import (
    NegativeCycle,
    SsspResult,
    WeightedDigraph,
    augment_source,
    bf_exact,
    check_eps_feasible,
    gen_random,
    gen_small_diff,
    parse,
    parse_tree,
    plant_negative_cycle,
    serialize,
    serialize_tree,
    verify_sssp,
)
from .inctree import IncTree
from .cover import SparseCover, estc_static, sample_shift
from .distcmp import DistCmp, DistCmpConfig, PairwiseDeltaComparator
from .scaling import assemble_price, eps_feasible_price
from .sssp import (
    BOB_STRATEGIES,
    CutContext,
    cut_dijkstra,
    cut_preprocess,
    dijkstra_nonneg,
    game_simulate,
    negative_sssp,
)

__version__ = "0.1.0"
