"""Exact finite-resolution workbench for dimension certificates of
low-complexity one-sided subshifts.

The chain: language and complexity analysis -> left special words ->
finite cover graphs -> tower covers -> tower pairs -> window-equivariant
maps into the integer simplex -> groupoid-window cover certificates, with
an independent verifier for every construction and closed-form bound
calculators.  All arithmetic is exact (integers and rationals).
"""

from .amenability import (
    EquivariantMap,
    PartitionB,
    build_B_partition,
    build_equivariant_map,
    check_equivariance,
    project_finite_support,
)
from .certificates import Certificate, Clause
from .config import spec_from_config
from .cover import (
    CoverGraph,
    CoverState,
    PastSet,
    build_cover_graph,
    check_intertwining,
    cover_special_states,
    isolated_orbit_window,
    isolated_state_check,
    past_set,
    special_match_report,
)
from .groupoid import (
    BoundReport,
    DadCover,
    GroupoidWindow,
    bound_chain,
    build_dad_cover,
    build_window,
    difference_set,
    verify_dad_cover,
)
from .rokhlin import (
    RokhlinCover,
    RokhlinTower,
    build_rokhlin_cover,
    extend_tower_base,
    verify_rokhlin_cover,
)
from .simplex import (
    SimplexPoint,
    cover_index,
    simplicial_cover_membership,
    skeleton_distance,
)
from .special import (
    LeftSpecialTree,
    SpecialReport,
    check_useful_inequality,
    left_special_count,
    left_special_levels,
    left_special_words,
    sp_estimate,
)
from .systems import (
    ClopenSet,
    FiniteSymbolicSystem,
    aperiodicity_window_check,
    overlapping_pair,
)
from .towers import (
    TowerPair,
    TowerPairSystem,
    attach_shifted_pairs,
    build_phase_pairs,
    chromatic_number,
    normalize_window,
    pairs_from_rokhlin,
    verify_tower_pairs,
)
from .words import (
    Alphabet,
    FullShiftSpec,
    GrowthReport,
    LanguageTable,
    SFTSpec,
    SubshiftSpec,
    SubstitutionSpec,
    check_extendability,
    complexity,
    enumerate_language,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    growth_report,
    single_orbit_spec,
    thue_morse_spec,
)

__version__ = "0.1.0"
