"""Switch counts and shortest reset words of deterministic finite automata."""

from .automaton import (
    Dfa,
    DfaParseError,
    IsoConvention,
    Word,
    apply_set,
    full_set,
    is_singleton,
    parse_dfa,
    serialize_dfa,
    set_members,
    state_set,
    switch_count,
)
from .closure import f2_transform, f_transform, power_closure
from .synchro import (
    NotSynchronizingError,
    Objective,
    SyncResult,
    count_optimal_words,
    is_synchronizing,
    min_switch_count,
    optimal_sync_word,
    optimal_words,
    shortest_sync_length,
)
from . import analysis, families

__all__ = [
    "Dfa",
    "Word",
    "IsoConvention",
    "Objective",
    "SyncResult",
    "DfaParseError",
    "NotSynchronizingError",
    "switch_count",
    "apply_set",
    "parse_dfa",
    "serialize_dfa",
    "full_set",
    "state_set",
    "set_members",
    "is_singleton",
    "is_synchronizing",
    "shortest_sync_length",
    "min_switch_count",
    "optimal_sync_word",
    "optimal_words",
    "count_optimal_words",
    "power_closure",
    "f_transform",
    "f2_transform",
    "analysis",
    "families",
]

__version__ = "0.1.0"
