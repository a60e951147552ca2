"""Search engines over the power automaton: synchronization test, shortest
length, minimal switch count, composite (switch, length) optimization, and
optimal-word counting and enumeration.

The subset engines search backward from the singletons over the preimage
tables of `_preimage_maps`, built by `_slice_maps` and held for the last
automaton, and stop at the full set: a word w synchronizes iff
pre_w({q}) is the full set for some state q, and read from its end w
keeps its letters and runs.  On slowly synchronizing automata they reach
about n^2 sets where a forward search reaches nearly all 2^n.  The two
scalar optima are a level search over plain subsets (`_levels`): one level
is one symbol for the shortest length and one whole symbol run for the
minimal switch count.  The same level search serves the pair criterion
(backward over state pairs), and over state pairs and sets the
pair-increase bound and the lemma closures of `analysis`, which maps sets
forward through `subset_images`.  Optimal words and their counts come from
one cost-ordered bucket queue over (state set, first symbol) nodes
(`_tight_dag`, Dial's algorithm with a heap of pending costs), which keeps
state only for the sets it reaches: the edge labeled s out of (S, t)
leads to (pre_s(S), s) and costs no switch if s == t, else one.  Each
popped bucket is expanded once for all its tags, as one list of sets with
one preimage column per symbol.  `_lex_words` walks the tight-edge DAG,
built once per (automaton, objective), from the full set back to the
singletons; the last pair's DAG is held.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from itertools import compress, islice, repeat
from operator import add
from typing import Callable, Iterable, Iterator

from .automaton import Dfa, Word, full_set, union_table


class NotSynchronizingError(Exception):
    """The automaton admits no synchronizing word."""


class Objective(Enum):
    LENGTH = "length"
    SWITCH_THEN_LENGTH = "switch-then-length"


@dataclass(frozen=True)
class SyncResult:
    """An optimal synchronizing word with its length and switch count."""

    word: Word
    length: int
    switch: int


# A dense automaton (p_variant, r_family) reaches all 2^n sets even backward,
# so `_sync_level` and `_tight_dag` refuse n > 24 before they build a table:
# a policy on the state count, until a budget on the nodes a search
# reaches replaces it for both engines.
_MAX_SEARCH_STATES = 24


def _refuse_past_search_cap(n: int) -> None:
    if n > _MAX_SEARCH_STATES:
        raise ValueError(f"subset search over {n} states needs 2**{n} nodes; refusing")


def _slice_maps(n: int, bits: Iterable[list[int]]) -> list[Callable[[Iterable[int]], list[int]]]:
    """maps[s](vs)[i] = the union of bits[s][q] over the states q of the
    i-th state set in vs, for any n.

    States are cut into slices of 12.  Per symbol and slice, a
    `union_table` of at most 4,096 entries maps the slice's bits of a set
    to their union, and the map of the set is the union of its slices'
    maps, one lookup a slice.  Up to 12 states one lookup a set is about 3
    times faster than two, and up to 24 two written-out lookups are about
    2.8 times faster than the loop that reads any number of slices past 24.
    """
    def by_slices(per_state: list[int]) -> Callable[[Iterable[int]], list[int]]:
        tables = [union_table(per_state[lo:lo + 12]) for lo in range(0, n, 12)]
        t0 = tables[0]
        if n <= 12:
            return lambda vs: list(map(t0.__getitem__, vs))
        if n <= 24:
            t1 = tables[1]
            return lambda vs: [t0[v & 4095] | t1[v >> 12] for v in vs]

        def union(v: int) -> int:
            u = 0
            for table in tables:
                u |= table[v & 4095]
                v >>= 12
            return u

        return lambda vs: list(map(union, vs))

    return [by_slices(per_state) for per_state in bits]


def subset_images(dfa: Dfa) -> list[Callable[[Iterable[int]], list[int]]]:
    """images[s](vs)[i] = the image under symbol s of the i-th state set in
    vs: state q contributes its target {q s}."""
    return _slice_maps(dfa.n, ([1 << row[s] for row in dfa.rows] for s in range(dfa.k)))


@lru_cache(maxsize=1)
def _preimage_maps(dfa: Dfa) -> list[Callable[[Iterable[int]], list[int]]]:
    """maps[s](vs)[i] = the preimage under symbol s of the i-th state set in
    vs, the states that s maps into it: state t contributes the states s
    maps to t.  The last automaton's maps are held, as callers ask for both
    scalar optima, a word and a count of one automaton back to back."""
    def preimage_bits(s: int) -> list[int]:
        into = [0] * dfa.n
        for p, row in enumerate(dfa.rows):
            into[row[s]] |= 1 << p
        return into

    return _slice_maps(dfa.n, map(preimage_bits, range(dfa.k)))


def is_synchronizing(dfa: Dfa) -> bool:
    """Pair criterion: synchronizing iff every state pair can be merged.

    A level search backward from the merged pairs (q, q) over unordered
    pairs (p, q), p < q: pre[s][t] holds the states that symbol s maps to
    t, and s leads from (a, b) to the pairs of a state of pre[s][a] and
    one of pre[s][b].  Each pair is expanded once per symbol, so O(n^2 k).
    """
    n = dfa.n
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(dfa.k)]
    for p, row in enumerate(dfa.rows):
        for s, t in enumerate(row):
            pre[s][t].append(p)

    def by_preimages(into: list[list[int]]) -> Callable[[Iterable[tuple[int, int]]], list[tuple[int, int]]]:
        return lambda pairs: [(p, q) if p < q else (q, p)
                              for a, b in pairs for p in into[a] for q in into[b] if p != q]

    levels = _levels([(q, q) for q in range(n)], [by_preimages(into) for into in pre], runs=False)
    return sum(len(pairs) for _, pairs in levels) == n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Level search
#
# The minimal switch count is the number of runs in a reset word, so it is
# a breadth-first distance over state subsets in which one step is one whole
# run of one symbol; the shortest length is the same distance with one
# letter a step.  `_sync_level` measures both from the singletons to the
# full set over preimages, where a word is read from its end and keeps its
# letters and runs.  The search runs over any hashable nodes with one image
# function per symbol, so `is_synchronizing` walks state pairs backward and
# `analysis` state pairs and lemma closures with it too.  Per level and
# symbol, a run applies the symbol again and again and stops at a node seen
# at an earlier level or already reached by this symbol in this level: the
# rest of its forward orbit is covered either way.  A node that only
# another symbol reached in this level is no stop: the run goes on through
# it, as its images under this symbol are in this level too.  This is the
# rule of the batch kernel `search._switch_counts_batch`.  A letter step
# continues nothing, so it marks its nodes seen at once, and the next
# symbol's pass subtracts them with the earlier levels.
# ---------------------------------------------------------------------------


def _levels(
    starts: Iterable, images: list[Callable[[Iterable], list]], runs: bool
) -> Iterator[tuple[int, set]]:
    """Breadth-first levels from `starts`, a step one run of a symbol if
    `runs`, else one letter.  `images[s]` maps a batch of nodes to their
    images under symbol s, like `subset_images` or `_preimage_maps`.

    Yields (level, nodes) once per level and symbol pass, counting levels
    from 1: the nodes of that level which this pass reached first.  Stops
    when a level reaches no new node.
    """
    frontier = set(starts)
    seen = frontier.copy()
    level = 0
    while frontier:
        level += 1
        found: set = set()
        for image in images:
            if runs:
                reached: set = set()
                nodes = frontier
                while nodes:
                    nodes = set(image(nodes)).difference(seen, reached)
                    reached |= nodes
                nodes = reached.difference(found)
            else:
                nodes = set(image(frontier)).difference(seen)
                seen |= nodes
            yield level, nodes
            found |= nodes
        if runs:
            seen |= found
        frontier = found


def _sync_level(dfa: Dfa, runs: bool) -> int:
    """The first level, counted backward from the singletons over
    preimages, that holds the full state set; a step is one symbol run if
    `runs`, else one letter.

    The sets of level L are the preimages pre_w({q}) under words w of L
    letters (or runs), which the search builds from their last letter back.
    A word w synchronizes iff pre_w({q}) is the full set for some state q.
    """
    n = dfa.n
    _refuse_past_search_cap(n)
    if n == 1:
        return 0
    full = full_set(n)
    for level, sets in _levels([1 << q for q in range(n)], _preimage_maps(dfa), runs):
        if full in sets:
            return level
    raise NotSynchronizingError("no singleton reachable from the full state set")


# ---------------------------------------------------------------------------
# Backward search and the tight-edge DAG
#
# Dial's buckets serve the optimal words and their counts only
# (`optimal_sync_word`, `count_optimal_words`, `optimal_words`); the scalar
# optima need no tag and take the level search above.  Like it, the search
# runs backward from the singletons over preimages: a node (S, tag) stands
# for the suffixes v read so far with pre_v({q}) = S, and the edge labeled s
# out of (S, tag) prepends s, leading to (pre_s(S), s + 1).  Both
# objectives search one graph of (S, tag) nodes.  Under SWITCH_THEN_LENGTH
# the tag is the first letter of the suffix (s + 1 for symbol s, 0 for the
# empty suffix of the singletons), and an edge costs (switches, length) =
# (0, 1) when it extends that letter's run and (1, 1) otherwise.  Under
# LENGTH the tag is always 0 and every edge costs (1, 1), which orders nodes
# by length alone.  Read from its end a word keeps its length and its runs,
# so both costs are those of the word.  A cost (sw, len) is stored as the
# integer sw * big + len, where big exceeds the length of every path the
# search keeps, so integer order is the lexicographic order and
# `cost // big` is the optimal length or switch count.  The empty set is a
# preimage but no node: no word leads from it to the full set.
#
# The search is Dial's algorithm: one bucket of candidate nodes per pending
# cost, a heap of those costs, and each step pops the least.  An edge of
# cost (0, 1) adds 1, less than `big`, so it stays in the level of
# `cost // big`; an edge of cost (1, 1) adds big + 1 and leads to the next
# level.  A popped bucket drops the sets already expanded under the same
# tag at a lower cost, and the search stops at the first bucket that holds
# the full set: its cost is optimal.  Otherwise the bucket is expanded as a
# whole.  Its sets form one tag-major list with a (tag, lo, hi) span per
# tag, and each symbol's preimages of the whole list form one column.  The
# column of symbol s goes to bucket cost + big + 1 under the tag symbol s
# leads to (switch edges), and under SWITCH_THEN_LENGTH the column's slice
# over the span of tag s + 1 also to bucket cost + 1 (run edges).
# The switch edge out of a set S tagged s + 1 is not in the graph, and it
# adds nothing: its target (pre_s(S), s + 1) is also the target of the run
# edge, at cost + 1, so it is expanded at cost + 1 or lower, and the bucket
# of cost + big + 1 drops it if it is ever popped.  Every node is expanded
# at one cost only, so the count sweep below reads no path through that
# edge either.  A bucket with nothing left to expand pushes nothing, so the
# search of a non-synchronizing automaton runs out of buckets.
#
# An edge u -> w is tight when cost(u) + c(u, w) = cost(w).  Every optimal
# word follows tight edges only, and tight edges raise the cost, so the
# expansion order is a topological order of the tight edges.  A reverse sweep
# over it counts the tight paths from each node to the full set; the nodes
# with a nonzero count and the tight edges between them form the DAG of all
# optimal words.  A synchronizing word w has pre_w({q}) = Q for exactly one
# state q, so each optimal word is one tight path from one singleton, and
# the count of optimal words is the sum of the singletons' counts.  The
# sweep skips every bucket whose successor buckets hold no count, and pops
# each bucket off `order`, releasing its columns.  `_tight_dag` holds the
# last (automaton, objective)'s DAG only: callers ask for a word and a count
# of one pair back to back, and a larger cache would hold memory no caller
# reads.
#
# The first letter of a word is the last edge of its path, into the full
# set, so `_lex_words` walks the DAG against its edges, from the full set
# toward the singletons, and reads each word from its first letter.  The
# tight in-edges of a node (X, s + 1) under s come from the DAG nodes Y of
# the buckets one run edge or one switch edge below it with pre_s(Y) = X.
# The walk maps a bucket's DAG nodes to their preimages under s the first
# time it reads that bucket and symbol, and keeps that column with its
# set, which skips a bucket with no in-edge at once.  One prefix can lead
# to several nodes (other singletons, other suffix sets), so the walk
# carries a frontier of nodes per prefix; under SWITCH_THEN_LENGTH a node's
# tag is its next letter.  Every DAG node has a tight path from a
# singleton, so every frontier leads to a word and the walk never
# backtracks to find the next one; every word is one path, so no frontier
# holds a node twice.  The singletons are the only nodes at cost 0, and a
# frontier that holds one holds nothing else (its words would be longer
# at the same cost): its prefix is a whole optimal word.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _tight_dag(dfa: Dfa, objective: Objective) -> tuple:
    """(ways, preimages, tags, big) of a backward search from the
    singletons; the last (dfa, objective)'s are held.  ways[cost, tag][S]
    is the nonzero number of tight paths from node (S, tag), reached at
    that cost, to the full set, whose nodes hold the greatest cost;
    preimages are the `_preimage_maps`, tags[s] the tag of the nodes symbol
    s leads to, and big the weight of a switch in a cost."""
    n, k = dfa.n, dfa.k
    _refuse_past_search_cap(n)
    preimages = _preimage_maps(dfa)
    big = (k + 1) << n
    tags = [s + 1 if objective is Objective.SWITCH_THEN_LENGTH else 0 for s in range(k)]
    full = full_set(n)
    seen: list[set[int]] = [{0} for _ in range(k + 1)]  # seen[tag]: expanded sets, and the empty set
    # (cost, sets tag-major, their (tag, lo, hi) spans, their preimages by
    # symbol), in increasing cost
    order: list[tuple[int, list[int], list[tuple[int, int, int]], list[list[int]]]] = []
    buckets: dict[int, defaultdict[int, set[int]]] = {}  # cost -> tag -> candidate sets
    pending: list[int] = []  # the costs in `buckets`, a heap

    def bucket(cost: int) -> defaultdict[int, set[int]]:
        if cost not in buckets:
            buckets[cost] = defaultdict(set)
            heappush(pending, cost)
        return buckets[cost]

    bucket(0)[0].update(1 << q for q in range(n))
    while pending:
        cost = heappop(pending)
        vs: list[int] = []
        spans: list[tuple[int, int, int]] = []
        for tag, candidates in buckets.pop(cost).items():
            fresh = candidates.difference(seen[tag])
            if fresh:
                seen[tag] |= fresh
                spans.append((tag, len(vs), len(vs) + len(fresh)))
                vs += fresh
        if not vs:  # push nothing: a non-synchronizing search must run dry
            continue
        if full in vs:
            break
        columns = [preimage(vs) for preimage in preimages]
        order.append((cost, vs, spans, columns))
        switched = bucket(cost + big + 1)
        for t, ws in zip(tags, columns):
            switched[t].update(ws)
        runs = [(tag, lo, hi) for tag, lo, hi in spans if tag]
        if runs:
            ran = bucket(cost + 1)
            for tag, lo, hi in runs:
                ran[tag].update(columns[tag - 1][lo:hi])
    else:
        raise NotSynchronizingError("no singleton reachable from the full state set")

    # the last popped bucket holds the full set, under one tag or more
    ways = {(cost, tag): {full: 1} for tag, lo, hi in spans if full in vs[lo:hi]}
    while order:
        cost, vs, spans, columns = order.pop()
        switches = [ways.get((cost + big + 1, t)) for t in tags]
        runs = [ways.get((cost + 1, tag)) if tag else None for tag, _, _ in spans]
        if not any(switches) and not any(runs):
            continue
        totals = [0] * len(vs)
        for ws, into in zip(columns, switches):
            if into:
                totals = list(map(add, totals, map(into.get, ws, repeat(0))))
        for (tag, lo, hi), into in zip(spans, runs):
            if into:
                totals[lo:hi] = map(add, totals[lo:hi], map(into.get, columns[tag - 1][lo:hi], repeat(0)))
        for tag, lo, hi in spans:
            counts = totals[lo:hi]
            if any(counts):
                ways[cost, tag] = dict(compress(zip(vs[lo:hi], counts), counts))
    return ways, preimages, tags, big


def _lex_words(dag: tuple) -> Iterator[Word]:
    """Every optimal word, in lexicographic order: a depth-first walk of the
    tight DAG `dag` of `_tight_dag` from the full set's nodes back to the
    singletons, reading the letters of a word from its first and taking
    them in increasing order."""
    ways, preimages, tags, big = dag
    goal = max(ways)[0]  # the optimal cost, that of the full set's nodes
    # per symbol s, the (cost drop, tag) of the buckets whose tight edges
    # under s lead into a node: one run edge, or one switch edge from any
    # other tag
    sources = [([(1, s + 1)] if tags[s] else []) + [(big + 1, t) for t in sorted({0, *tags}) if t != s + 1]
               for s in range(len(tags))]
    columns: dict[tuple[int, int, int], tuple[list[int], set[int]]] = {}

    def column(cost: int, tag: int, s: int) -> tuple[list[int], set[int]]:
        """The preimages under s of the DAG nodes of bucket (cost, tag), in
        the order of ways[cost, tag] and as a set, mapped the first time
        the walk reads them."""
        if (cost, tag, s) not in columns:
            xs = preimages[s](ways[cost, tag])
            columns[cost, tag, s] = xs, set(xs)
        return columns[cost, tag, s]

    def steps(frontier: dict[tuple[int, int], set[int]]) -> Iterator[tuple[int, dict]]:
        """(s, the frontier of prefix + s) for every letter s that extends
        the prefix of `frontier`, {(cost, tag): DAG nodes}, in increasing
        order."""
        for s, below in enumerate(sources):
            after = {}
            for (cost, tag), xs in frontier.items():
                if tag != tags[s]:
                    continue
                for drop, t in below:
                    if (cost - drop, t) in ways:
                        pres, present = column(cost - drop, t, s)
                        if not present.isdisjoint(xs):
                            after[cost - drop, t] = set(compress(ways[cost - drop, t], map(xs.__contains__, pres)))
            if after:
                yield s, after

    if goal == 0:  # one state: the full set is the singleton
        yield Word()
        return
    word: list[int] = []
    stack = [steps({(goal, tag): set(sets) for (cost, tag), sets in ways.items() if cost == goal})]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        del word[len(stack) - 1:]
        s, frontier = step
        word.append(s)
        if (0, 0) in frontier:
            yield Word(word)
        else:
            stack.append(steps(frontier))


def shortest_sync_length(dfa: Dfa) -> int:
    """Breadth-first distance from the full set to any singleton."""
    return _sync_level(dfa, runs=False)


def min_switch_count(dfa: Dfa) -> int:
    """Minimal switch count of a synchronizing word.

    Breadth-first distance over subsets with one symbol run a step; equals
    the shortest synchronizing word length of the power closure.
    """
    return _sync_level(dfa, runs=True)


def optimal_sync_word(dfa: Dfa, objective: Objective) -> SyncResult:
    """An optimal synchronizing word under the objective.

    LENGTH gives a shortest word; SWITCH_THEN_LENGTH a shortest word among
    those of minimal switch count.  Ties are broken toward the
    lexicographically smallest word.  The tight DAG is built once per
    (automaton, objective) for this, `count_optimal_words` and `optimal_words`.
    """
    word = next(_lex_words(_tight_dag(dfa, objective)))
    return SyncResult(word, len(word), word.switch_count)


def count_optimal_words(dfa: Dfa, objective: Objective) -> int:
    """Number of distinct words attaining the objective's optimum, read off
    the held tight DAG of (dfa, objective) or a new one."""
    ways = _tight_dag(dfa, objective)[0]
    return sum(ways[0, 0].values())  # the singletons: cost 0, tag 0


def optimal_words(dfa: Dfa, objective: Objective, limit: int | None = None) -> list[Word]:
    """All optimal words under the objective, in lexicographic order.

    `limit` caps the number of words returned; the full set can be large.
    A negative limit raises ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    dag = _tight_dag(dfa, objective)  # before the limit: a non-synchronizing dfa raises even at 0
    return list(islice(_lex_words(dag), limit))
