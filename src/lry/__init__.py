"""Two-party fair-division districting with exact rational arithmetic.

The library models a state as nested population splits, computes each
party's optimal-play win counts, runs the split-and-choose protocol, scores
outcomes against geometric fairness targets, and reproduces a grid-
constrained construction where the protocol misses those targets by an
arbitrary margin.
"""

from .model import (
    Party,
    Side,
    SideRef,
    SplitProfile,
    Violation,
    left,
    parse_ratio,
    profile_from_dict,
    profile_to_dict,
    ratio_str,
    right,
    side_support,
    segment_support,
    two_gap_profile,
    validate_profile,
)
from .protocol import (
    Assignment,
    FairnessReport,
    OutcomeKind,
    Preference,
    PreferenceTable,
    ProtocolRun,
    classify_outcome,
    coinflip_options,
    fairness_report,
    optimal_preferences,
    optimal_run,
    property_sweep,
    resolve_protocol,
)
from .strategy import total_wins, wins_when_districting, wins_when_opponent_districts
from .targets import geometric_target, k_split_target

__version__ = "0.1.0"
