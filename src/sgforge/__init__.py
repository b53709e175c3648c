"""sgforge: exhaustive numerical-semigroup enumeration and verification.

The package enumerates every numerical semigroup up to a genus bound via
the semigroup tree, computes per-semigroup invariants (Frobenius number,
multiplicity, efficacy, weight, effective weight, Kunz coordinates), counts
lattice points on Kunz-polytope genus slices as an independent oracle, and
verifies the classical counting identities, bounds, and conjectures of the
area on desk-scale ranges.
"""

from .core import (
    GeneratorTag,
    NumericalSemigroup,
    Partition,
    Strength,
    from_gaps,
    from_generators,
    ordinary,
)
from .tree import (
    CensusTable,
    Collector,
    StrongCensus,
    TreeFrame,
    collect,
    descent_strength,
    enumerate_tree,
    ns_by_frobenius,
    strongly_descended_census,
)
from .kunz import (
    KunzVector,
    count_by_polytope,
    kunz_vector,
    kunz_vectors,
    recurrence_bijection_check,
    satisfies_kunz,
    semigroup_from_kunz,
)
from .formulas import (
    count_f_lt_2m,
    enumerate_Ak,
    fibonacci,
    global_bounds,
    sylvester,
    zhao_lower_bound,
)
from .conjectures import (
    VerificationReport,
    bounds_sweep,
    buchweitz_check,
    buchweitz_sweep,
    check_wilf,
    concentration_stats,
    concentration_sweep,
    gap_sumset_size,
    kunz_oracle_sweep,
    ordinarization_census,
    ordinarization_number,
    ordinarization_sweep,
    ordinarize,
    pflueger_bound,
    pflueger_sweep,
    ratio_report,
    recurrence_sweep,
    wilf_sweep,
    ye_identity,
    ye_sweep,
    zhai_lemma_check,
    zhai_sweep,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "CensusTable",
    "Collector",
    "GeneratorTag",
    "KunzVector",
    "NumericalSemigroup",
    "Partition",
    "Strength",
    "StrongCensus",
    "TreeFrame",
    "VerificationReport",
    "bounds_sweep",
    "buchweitz_check",
    "buchweitz_sweep",
    "check_wilf",
    "collect",
    "concentration_stats",
    "concentration_sweep",
    "count_by_polytope",
    "count_f_lt_2m",
    "descent_strength",
    "enumerate_Ak",
    "enumerate_tree",
    "errors",
    "fibonacci",
    "from_gaps",
    "from_generators",
    "gap_sumset_size",
    "global_bounds",
    "kunz_oracle_sweep",
    "kunz_vector",
    "kunz_vectors",
    "ns_by_frobenius",
    "ordinarization_census",
    "ordinarization_number",
    "ordinarization_sweep",
    "ordinarize",
    "ordinary",
    "pflueger_bound",
    "pflueger_sweep",
    "ratio_report",
    "recurrence_bijection_check",
    "recurrence_sweep",
    "satisfies_kunz",
    "semigroup_from_kunz",
    "strongly_descended_census",
    "sylvester",
    "wilf_sweep",
    "ye_identity",
    "ye_sweep",
    "zhai_lemma_check",
    "zhai_sweep",
    "zhao_lower_bound",
]
