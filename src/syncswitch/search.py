"""Exhaustive extremal searches over small transition tables.

A scan is a list of parts, each a symbol-0 map and an index range of the
k-1 free columns, one base-n^n digit per column, symbol 1 leading.  The
cyclic search fixes the n-cycle.  The binary (and k-ary) search fixes one
map per conjugacy class of [n]^n, weighted by the class size, and keeps
only the tables whose symbol 1 (the leading digit) ranks no lower, the
classes ranked by decreasing size (one walk over [n]^n, 3 bytes a map,
lists the classes and ranks every map); a table ranked higher counts
twice, for its 0<->1 symbol swap.  Of these the scan keeps one table per
orbit under the centralizer of the map, the least index, and one numpy
kernel scores the survivors of many parts in batches of whole tables.
The parent canonicalizes the tables at the maximum once, after the last
shard, the ranked search's forms up to renaming states under all k!
column orders; `canonical_form` is the one-table call.  A relabeled table
is a base-n number, the least one the form, and one float64 matrix
product keys a whole batch under all n! k! relabelings, so every entry
point refuses n > 9 and more than 9! 3! relabelings.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations
from math import factorial
from multiprocessing import get_all_start_methods, get_context
from typing import Callable

import numpy as np

from .automaton import Dfa, IsoConvention, serialize_dfa

# Pool workers fork where the platform offers it, so they inherit the class
# list and the rank table the caller built.  Under forkserver (Linux's
# default from Python 3.14) or spawn each worker would walk [n]^n again:
# about 4-6 s and 50 MB a worker at n = 8 on a 2-vCPU host.  Elsewhere the
# default start method stays.
Pool = get_context("fork" if "fork" in get_all_start_methods() else None).Pool

# Searches that enumerate more tables, or mark more maps, than this need
# long=True.
LONG_THRESHOLD = 20_000_000
# Searches that enumerate fewer tables than this run in the calling
# process, one job holding one part per symbol-0 map: below it, starting a
# worker pool costs more than it saves (with 2 workers on a 2-vCPU host the
# crossover lies between 65,536 and 146,875 tables).
POOL_GRAIN = 1 << 17
# Gathered extremal tables (orbit representatives) per part of a scan
# before the report is marked incomplete.
_COLLECT_CAP = 100_000
# A scan decodes a part min(32768, _SCAN_ENTRIES >> n) tables at a time,
# and a kernel batch holds as many: 4,096 at n = 9, the most states a
# search takes.  The 32,768 cap bounds memory, not time: the int64 digit
# decode `idx[:, None] // powers` takes b * n(k-1) * 8 bytes, so cyclic
# (3,6), which needs no long=True, decodes 3.9 MB a batch with it against
# 31 MB (262,144 tables * 15 digits) without.
_SCAN_ENTRIES = 1 << 21


def _refuse_wide_index(n: int, k: int) -> None:
    """Refuse n^(n(k-1)) tables per symbol-0 map past the scan's int64 index."""
    if n ** (n * (k - 1)) >= 1 << 63:
        raise ValueError(f"the {n}^{n * (k - 1)} tables of a symbol-0 map exceed a 64-bit index")


def _refuse_past_threshold(count: int, what: str, long: bool) -> None:
    """Refuse `count` `what` past LONG_THRESHOLD unless `long`, the one size confirmation."""
    if count > LONG_THRESHOLD and not long:
        raise ValueError(f"{count} {what} exceed the quick-search threshold; "
                         "pass long=True (--long on the command line)")


@dataclass(frozen=True)
class ExtremalReport:
    """Maximum switch count over a scanned space plus the extremal automata.

    Extremal forms are kept canonically under both isomorphism conventions,
    one set each in `forms`; `form_count` reads STATES_AND_SYMBOLS unless
    given the other, `sorted_forms` always.  `elapsed` is the sum of the
    worker seconds, the shards' scans and the final canonicalization, so
    with parallel workers it exceeds `wall_s`, the wall time of the whole
    call.  `complete` is False when a shard reaching the maximum hit the
    per-shard collection cap (never expected for the published search
    sizes).  `workers` is the number of processes that scanned: 1 when the
    search ran in the calling process, else the pool size.
    """

    n: int
    k: int
    max_sw: int | None
    forms: dict[IsoConvention, frozenset[Dfa]]
    scanned: int
    elapsed: float
    wall_s: float
    complete: bool = True
    workers: int = 1

    def form_count(self, convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS) -> int:
        return len(self.forms[convention])

    def sorted_forms(self) -> list[Dfa]:
        return sorted(self.forms[IsoConvention.STATES_AND_SYMBOLS], key=lambda d: d.rows)


def format_report(report: ExtremalReport) -> str:
    """Summary header followed by the extremal automata as DFA blocks.

    The header ends with the call's wall time, `wall_s`, beside
    `worker_s`, the seconds of the shards and the canonicalization, and
    `workers`, the processes that scanned (1: no pool was started).
    """
    lines = [
        f"n={report.n} k={report.k} scanned={report.scanned} "
        f"max_sw={report.max_sw if report.max_sw is not None else 'none'} "
        f"forms={report.form_count()} convention={IsoConvention.STATES_AND_SYMBOLS.value} "
        f"worker_s={report.elapsed:.1f} forms_states_only={report.form_count(IsoConvention.STATES_ONLY)} "
        f"wall_s={report.wall_s:.1f} workers={report.workers}"
    ]
    if not report.complete:
        lines.append("# warning: extremal collection was truncated")
    for i, dfa in enumerate(report.sorted_forms()):
        lines.append(f"# extremal form {i + 1}")
        lines.append(serialize_dfa(dfa).rstrip("\n"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Batched numpy scanner
# ---------------------------------------------------------------------------

def _image_maps(n: int, cols: "np.ndarray") -> "np.ndarray":
    """Subset-image maps, shape (m, 2^n), of the m transformations in `cols`."""
    img = np.zeros((cols.shape[0], 1 << n), dtype=np.uint8 if n <= 8 else np.uint16)
    bits = np.left_shift(1, cols.astype(img.dtype))
    for q in range(n):  # the subsets with highest state q: those below 2^q, plus q
        img[:, 1 << q:2 << q] = img[:, :1 << q] | bits[:, q, None]
    return img


def _switch_counts_batch(n: int, tables: "np.ndarray"):
    """Switch counts of a batch of whole tables, shape (b, n, k) (-1: not
    synchronizing), and the mask of those rejected up front because every
    symbol is injective.

    Every symbol is a flat image map indexed like the frontier.  The
    breadth-first search starts at the full set and one edge is one maximal
    symbol run, so a table's switch count is the first level that reaches a
    singleton.
    """
    b, _, k = tables.shape
    full = (1 << n) - 1
    maps = [_image_maps(n, tables[:, :, s]).reshape(-1) for s in range(k)]
    # a column is injective iff it maps the full set onto itself
    injective = np.all([img[full::1 << n] == full for img in maps], axis=0)

    # The frontier is flat, entries table * 2^n + subset, and a table leaves
    # it once it is done.  mark[entry] is the stamp of the (level, symbol)
    # pass that last reached it; stamps grow, so "visited at an earlier
    # level" is mark < the level's first stamp (at most 2^n levels of k
    # stamps each, so uint16 suffices).
    unseen = np.iinfo(np.uint16).max
    mark = np.full(b << n, unseen, dtype=np.uint16)
    owner = np.empty(b << n, dtype=np.int32)
    result = np.full(b, -1, dtype=np.int16)
    frontier = (np.nonzero(~injective)[0] << n) | full
    mark[frontier] = 0
    stamp = level = 0
    while frontier.size:
        level += 1
        first = stamp + 1
        reached = []
        for img in maps:
            stamp += 1
            cur = frontier[result[frontier >> n] < 0]
            # Run closure: apply the symbol to the live entries again and
            # again.  A run stops at a set visited at an earlier level or
            # already reached by this symbol in this level, because the
            # rest of its forward orbit is covered either way: the images
            # of a set from level < L-1 are at levels <= L-1, a set from
            # level L-1 is in the frontier and starts its own run, and a
            # set this symbol reached is extended by the run that reached
            # it.  A set that only another symbol reached in this level is
            # no stop: its images under this symbol take one more run.
            while cur.size:
                nxt = (cur & ~full) | img[cur]
                seen = mark[nxt]
                go = (seen >= first) & (seen != stamp)
                nxt, new = nxt[go], seen[go] == unseen
                # keep one entry of each set that several runs reach at once
                ids = np.arange(nxt.size, dtype=np.int32)
                owner[nxt] = ids
                once = owner[nxt] == ids
                nxt, new = nxt[once], new[once]
                mark[nxt] = stamp
                sub = nxt & full
                single = (sub & (sub - 1)) == 0
                if single.any():
                    result[nxt[single] >> n] = level
                    live = result[nxt >> n] < 0
                    nxt, new = nxt[live], new[live]
                reached.append(nxt[new])
                cur = nxt
        frontier = np.concatenate(reached)
        frontier = frontier[result[frontier >> n] < 0]
    return result, injective


class _Tally:
    """The maximum, its tables and the counts so far of a scan part or a search."""

    def __init__(self):
        self.best, self.found, self.truncated = -1, [], False
        self.injective = self.nonsync = self.count = 0

    def _at_max(self, sw: int) -> bool:
        """Whether `sw` >= 0 is the maximum; a higher one drops the held tables and truncation."""
        if sw > self.best:
            self.best, self.found, self.truncated = sw, [], False
        return sw == self.best >= 0

    def add(self, tables, weight, sw, rejected) -> None:
        """Take in scored tables of a part in index order, at most `_COLLECT_CAP` held."""
        rejected_w = int(np.sum(weight * rejected))
        self.injective += rejected_w
        self.nonsync += int(np.sum(weight * (sw < 0))) - rejected_w
        self.count += int(weight.sum())
        best = int(sw.max(initial=-1))
        if self._at_max(best):
            hits = np.nonzero(sw == best)[0]
            room = _COLLECT_CAP - sum(map(len, self.found))
            self.truncated |= hits.size > room
            self.found.append(tables[hits[:room]])

    def merge(self, part: "_Tally", weight: int) -> None:
        """Take in a finished part whose tables each stand for `weight`."""
        self.injective += part.injective * weight
        self.nonsync += part.nonsync * weight
        self.count += part.count * weight
        if self._at_max(part.best):
            self.found += part.found
            self.truncated |= part.truncated


def _packed(pieces, size: int):
    """Regroup a stream of (part, tables, weights) pieces into batches of
    `size` tables (the last may hold fewer); a piece that straddles a
    batch boundary is split."""
    batch, held = [], 0
    for part, tables, weight in pieces:
        while len(tables):
            take = size - held
            piece = tables[:take]
            batch.append((part, piece, weight[:take]))
            held += len(piece)
            tables, weight = tables[take:], weight[take:]
            if held == size:
                yield batch
                batch, held = [], 0
    if batch:
        yield batch


def _scan_numpy(n: int, k: int, parts, ranked: bool = False):
    """Scan `parts`, a list of (map, lo, hi): the index range [lo, hi) of
    the tables whose symbol 0 is the transformation `map`.  An index holds
    the k-1 free columns, one big-endian base-n^n digit (a map's index)
    per column, symbol 1 leading.

    If `ranked`, a table is kept only if its symbol 1 (the leading digit,
    read before any decode) ranks no lower than its symbol 0 (the rank
    table of `_classes`, which `extremal_search` builds before any pool
    starts), and counts twice where it ranks higher, for its skipped 0<->1
    swap.  Only orbit representatives are scored: a table whose index is
    the least among its conjugates under the centralizer of its map.  The
    survivors of all parts are packed into kernel batches of min(32768,
    _SCAN_ENTRIES >> n) tables.

    Returns one `_Tally` per part: the maximum (-1 if none synchronizes), the
    representatives at it as uint8 arrays (m, n, k) in index order, and the
    tables rejected as injective, left non-synchronizing, or scanned, each
    counting its orbit size (twice for a swap): a map's parts count them all.
    """
    chunk = min(32768, _SCAN_ENTRIES >> n)
    width = n * (k - 1)
    powers = np.array([n ** e for e in range(width - 1, -1, -1)], dtype=np.int64)
    perms, ranks = _perm_arrays(n)
    rank = _classes(n)[1] if ranked else None
    tallies = [_Tally() for _ in parts]

    def pieces():
        for part, (fixed, lo, hi) in enumerate(parts):
            # index 0 is the identity, whose conjugate is the table itself
            relabelings = [(perms[j], ranks[j]) for j in _centralizer(n, fixed)[1:]]
            col0 = np.array(fixed, dtype=np.int16)
            rank0 = rank[col0 @ powers[-n:]] if ranked else None
            for start in range(lo, hi, chunk):
                idx = np.arange(start, min(start + chunk, hi), dtype=np.int64)
                weight = np.full(idx.size, len(relabelings) + 1, dtype=np.int64)
                if ranked:
                    # relabeling keeps each map's class, so the mask keeps or drops whole orbits
                    rank1 = rank[idx // n ** (width - n)]
                    keep = rank1 >= rank0
                    idx, weight = idx[keep], weight[keep] << (rank1[keep] > rank0)
                free = (idx[:, None] // powers % n).astype(np.int16).reshape(idx.size, k - 1, n)
                # a conjugate's index: its digits, relabeled (old state
                # perm[p] placed at p, every target q renamed rank_of[q]),
                # dotted with the place values
                least = np.ones(idx.size, dtype=bool)
                stabilizer = np.ones(idx.size, dtype=np.int64)
                for perm, rank_of in relabelings:
                    conj = rank_of[free[:, :, perm]].reshape(idx.size, width) @ powers
                    least &= conj >= idx
                    stabilizer += conj == idx
                free = free[least].transpose(0, 2, 1)
                tables = np.concatenate((np.broadcast_to(col0[:, None], (len(free), n, 1)), free), axis=2)
                yield part, tables.astype(np.uint8), weight[least] // stabilizer[least]

    for batch in _packed(pieces(), chunk):
        sw, rejected = _switch_counts_batch(n, np.concatenate([tables for _, tables, _ in batch]))
        start = 0
        for part, tables, weight in batch:
            stop = start + len(tables)
            tallies[part].add(tables, weight, sw[start:stop], rejected[start:stop])
            start = stop
    return tallies


# ---------------------------------------------------------------------------
# Canonicalization
#
# Extremal searches can surface tens of thousands of tables attaining the
# maximum (the cyclic spaces especially), so the n! k!-candidate
# minimization is one matrix product per batch.  A candidate table's n*k
# entries, read row by row as base-n digits, are one number, so the
# lexicographic order of candidates is the numeric order of their keys.
# The key of relabeling j is linear in the one-hot encoding of the table:
# entry (q, s) = x adds ranks[j, x] at the place of entry (ranks[j, q], s).
# So the one-hot rows of a batch of (table, symbol order) pairs times a
# matrix of those coefficients, one column per permutation, gives every
# key at once in float64, the least per row being the form.  float64 holds
# integers below 2^53 exactly, and so does every partial sum of a key, so
# the candidate rows are split into blocks of as many rows as keep a
# block's keys below 2^53: one block up to (8,2), (6,3), (5,4) and (4,5),
# two for (9,2) and (7..9,3).  A later block's keys are computed only for
# the permutations that tie on the earlier blocks.  No coefficient slice,
# one-hot batch or key matrix holds more than _CANONICAL_BUDGET entries
# (8 MiB of float64): whole tables when a batch's permutations fit, else a
# slice of them.  A larger budget only costs: at four times this one a
# 9-state binary table's coefficient slices no longer stay in cache
# between building and product, so its keys take twice as long, and the
# key matrix of cyclic (7,2) raises the search's peak RSS by a third.
# `_perm_arrays` holds all n! permutations, so `canonical_form` and both
# searches refuse tables past _CANONICAL_MAX_STATES states (9! = 362,880)
# and past _CANONICAL_MAX_RELABELINGS relabelings n! k! (9! 3!, the
# largest size the tests canonicalize).
# ---------------------------------------------------------------------------

_CANONICAL_MAX_STATES = 9
_CANONICAL_MAX_RELABELINGS = 2_177_280
_CANONICAL_BUDGET = 1 << 20


def _refuse_many_relabelings(n: int, k: int) -> None:
    """Refuse tables whose canonical form tries more than _CANONICAL_MAX_RELABELINGS relabelings."""
    if factorial(n) * factorial(k) > _CANONICAL_MAX_RELABELINGS:
        raise ValueError(f"the {n}! * {k}! relabelings of a {n}-state {k}-symbol table "
                         f"exceed {_CANONICAL_MAX_RELABELINGS:,}")


@lru_cache(maxsize=8)
def _perm_arrays(n: int):
    """The n! permutations of range(n) in lexicographic order, the identity
    first, and their inverses.  The permutations of m put each first entry
    f ahead of those of m - 1, whose entries >= f are shifted up by 1."""
    p = np.zeros((1, 0), dtype=np.uint8)
    for m in range(1, n + 1):
        p = np.concatenate([np.column_stack((np.full(len(p), f, np.uint8), p + (p >= f))) for f in range(m)])
    return p, np.argsort(p, axis=1).astype(np.uint8)


def _conjugates(n: int, fixed) -> "np.ndarray":
    """The relabelings of the transformation `fixed`, shape (n!, n): row j
    is `fixed` under permutation j of `_perm_arrays(n)`."""
    perms, ranks = _perm_arrays(n)
    return ranks[np.arange(perms.shape[0])[:, None], np.asarray(fixed)[perms]]


@lru_cache(maxsize=4096)
def _centralizer(n: int, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """Indices into `_perm_arrays(n)` of the relabelings that map the
    transformation `fixed` to itself, in order (the identity first).  The
    cache holds every class representative of [n]^n for n <= 9 (2,615 at
    n = 9), so repeated searches do not recompute them."""
    return tuple(np.nonzero((_conjugates(n, fixed) == fixed).all(axis=1))[0].tolist())


def _least(keys: "np.ndarray") -> "np.ndarray":
    """Lexicographic least along axis -2 of key tuples, one block per entry
    of the last axis."""
    keys = keys.copy()
    for b in range(keys.shape[-1]):
        keys[keys[..., b] > keys[..., b].min(axis=-1, keepdims=True)] = np.inf
    return keys.min(axis=-2)


def _canonical_tables(n: int, k: int, tables, ranked: bool = False) -> dict[IsoConvention, set[tuple]]:
    """Canonical forms of many n-state k-symbol tables under both conventions.

    A form is the lexicographically minimal table over all state
    relabelings, and under STATES_AND_SYMBOLS over all symbol orders too.
    STATES_ONLY takes the forms of the tables as given, or if `ranked` of
    every symbol order scored, so of all k! column orders of each table.
    Each relabeled table is a key, its entries row by row as base-n digits,
    in blocks of candidate rows whose keys stay below 2^53; each block's
    keys for a batch of (table, symbol order) rows and a slice of the
    permutations are one float64 product of the rows' one-hot encodings
    with the coefficients of those permutations.
    """
    out: dict[IsoConvention, set[tuple]] = {c: set() for c in IsoConvention}
    _, ranks = _perm_arrays(n)
    nperm, width = ranks.shape[0], n * n * k
    piece = max(1, _CANONICAL_BUDGET // width)  # permutations per product
    batch = max(1, _CANONICAL_BUDGET // max(width, min(piece, nperm)))  # one-hot rows per product
    step = min(factorial(k), batch)  # symbol orders per batch
    chunk = max(1, batch // factorial(k))  # tables per batch
    # entry p*k + s of a candidate sits in block `block`, at place `place`
    span = max(r for r in range(1, n + 1) if n ** (r * k) <= 1 << 53)
    pos = np.arange(n * k)
    block = pos // (span * k)
    place = np.power(n, np.minimum((block + 1) * span, n) * k - 1 - pos, dtype=np.int64)
    # weights[b][s, p]: the place of entry (p, s) in block b, else 0
    weights = [np.where(block == b, place, 0).reshape(n, k).T.astype(np.float64)
               for b in range(block[-1] + 1)]
    ranks_t = np.ascontiguousarray(ranks.T)

    def coefficients(b, r):
        # for the m permutations whose ranks are the columns of r, shape
        # (n, m): row (s, q, x), column j holds r[x, j] at the place of
        # entry (r[q, j], s)
        return (np.take(weights[b], r, axis=1)[:, :, None, :] * r).reshape(width, -1)

    def least_keys(onehot):
        # each one-hot row's least key over all permutations, one column per block
        best = None
        for lo in range(0, nperm, piece):
            sel = np.arange(lo, min(lo + piece, nperm))
            keys = onehot @ coefficients(0, ranks_t[:, lo:lo + piece])
            found = [keys.min(axis=1)]
            for b in range(1, len(weights)):
                tie = keys == found[-1][:, None]
                hit = tie.any(axis=0)
                sel, tie = sel[hit], tie[:, hit]
                keys = onehot @ coefficients(b, ranks_t[:, sel])
                keys[~tie] = np.inf
                found.append(keys.min(axis=1))
            found = np.stack(found, axis=1)
            best = found if best is None else _least(np.stack((best, found), axis=1))
        return best

    def forms(keys):  # the tables of the distinct keys
        keys = np.array(list(set(map(tuple, keys.tolist()))))
        digits = keys.astype(np.int64)[:, block] // place % n
        return (tuple(map(tuple, t)) for t in digits.reshape(-1, n, k).tolist())

    arr = np.array(tables, dtype=np.intp).reshape(-1, n, k)
    for start in range(0, arr.shape[0], chunk):
        sub = arr[start:start + chunk]
        best, symbol_orders = None, permutations(range(k))
        while orders := list(islice(symbol_orders, step)):
            cols = sub[:, :, orders].transpose(0, 2, 3, 1)  # (tables, orders, k, n)
            onehot = (cols[..., None] == np.arange(n)).reshape(-1, width).astype(np.float64)
            keys = least_keys(onehot).reshape(len(sub), -1, len(weights))
            if ranked or best is None:  # every order if ranked, else the identity, which comes first
                out[IsoConvention.STATES_ONLY].update(forms(keys.reshape(-1, len(weights)) if ranked else keys[:, 0]))
            keys = _least(keys)
            best = keys if best is None else _least(np.stack((best, keys), axis=1))
        out[IsoConvention.STATES_AND_SYMBOLS].update(forms(best))
    return out


def canonical_form(dfa: Dfa) -> Dfa:
    """Lexicographically minimal transition table over all relabelings of
    states and symbols.

    Two automata are isomorphic up to renaming states and symbols iff their
    canonical forms are equal.  Explicit minimization over n! k!
    relabelings; only intended for the small automata that come out of
    extremal searches: n > 9 and more than _CANONICAL_MAX_RELABELINGS
    relabelings are refused.
    """
    if dfa.n > _CANONICAL_MAX_STATES:
        raise ValueError(f"canonical_form supports at most {_CANONICAL_MAX_STATES} states")
    _refuse_many_relabelings(dfa.n, dfa.k)
    (rows,) = _canonical_tables(dfa.n, dfa.k, [dfa.rows])[IsoConvention.STATES_AND_SYMBOLS]
    return Dfa(rows)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _classes(n: int) -> tuple[dict[tuple[int, ...], int], "np.ndarray"]:
    """The class list of [n]^n under relabeling and the rank table, cached
    for one n: one canonical map per class mapped to its class size
    n!/|C(map)|, in rank order (decreasing size, then decreasing map, so the
    pool starts first the scans that keep the most tables), and every map's
    rank, a uint16 indexed by its big-endian digits as the scan reads them.

    One walk visits the maps in index order with one flag per map: the
    first unmarked map is the least of its class, so its canonical form,
    and its conjugates, computed once, are marked and take the class's
    discovery number (3 bytes a map in all).  The flags are then freed
    and the numbers turned into ranks in place, a slice at a time.
    """
    total = n ** n
    powers = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    unmarked = np.ones(total + 1, dtype=bool)  # the last flag ends the walk
    rank = np.empty(total, dtype=np.uint16)
    found, i = [], 0
    while i < total:
        f = i // powers % n
        conj = _conjugates(n, f) @ powers
        unmarked[conj] = False
        rank[conj] = len(found)
        found.append((factorial(n) // int(np.count_nonzero(conj == i)), tuple(f.tolist())))
        i += int(unmarked[i:].argmax())
    del unmarked
    order = sorted(range(len(found)), key=found.__getitem__, reverse=True)
    rank_of = np.argsort(order).astype(np.uint16)
    for lo in range(0, total, 1 << 16):  # one call would index with n^n intps
        part = rank[lo:lo + (1 << 16)]
        part[:] = rank_of[part]
    return {found[d][1]: found[d][0] for d in order}, rank


def _timed(job):
    """Run `job`, a tuple (function, *args), and time it where it runs."""
    t0 = time.monotonic()
    return job, job[0](*job[1:]), time.monotonic() - t0


def _search(n, k, maps, workers, progress, ranked=False) -> ExtremalReport:
    """Scan the tables whose symbol 0 is a map of `maps`, a dict
    {map: weight}, keep the tables at the running maximum and canonicalize
    them once.  The entry points refuse every bad argument before `maps`
    is made.  If `ranked`, the scan orders symbol 1 against symbol 0 (see
    `_scan_numpy`), and the STATES_ONLY forms are those of the kept tables
    under all k! column orders, every extremal table up to relabeling.

    `workers` is an upper bound on the worker processes.  A space of
    fewer than POOL_GRAIN tables runs in the calling process as one job
    with one part per map.  A larger one runs on a pool of `workers`
    processes, at most one per job, 8 one-part jobs per worker, that only
    scan: this process canonicalizes after the pool has closed.  Each
    map's tables count `weight` times in `scanned`, `injective` and
    `nonsync`.
    """
    t0 = time.perf_counter()
    free = n ** (n * (k - 1))
    pooled = free * len(maps) >= POOL_GRAIN
    # at most `free` ranges per map, so none is empty
    per_map = -(-min(workers * 8, free) // len(maps)) if pooled else 1
    bounds = [free * i // per_map for i in range(per_map + 1)]
    parts = [(fixed, lo, hi) for fixed in maps for lo, hi in zip(bounds, bounds[1:])]
    groups = [[part] for part in parts] if pooled else [parts]
    jobs = [(_scan_numpy, n, k, group, ranked) for group in groups]
    workers = min(workers, len(jobs)) if pooled else 1
    total, elapsed = _Tally(), 0.0
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        run = pool.imap_unordered if workers > 1 else map
        for (_, _, _, group, _), tallies, seconds in run(_timed, jobs):
            elapsed += seconds
            rate = sum(hi - lo for _, lo, hi in group) / max(seconds, 1e-9)
            for (fixed, lo, hi), part in zip(group, tallies):
                weight = maps[fixed]
                total.merge(part, weight)
                if progress:
                    progress(f"SHARD a={','.join(map(str, fixed))} [{lo},{hi}) DONE max={part.best} "
                             f"tables_per_s={rate:.0f} "
                             f"injective={part.injective * weight} nonsync={part.nonsync * weight}")
    tables = np.concatenate([np.empty((0, n, k), dtype=np.uint8)] + total.found)
    _, forms, seconds = _timed((_canonical_tables, n, k, tables, ranked))
    return ExtremalReport(
        n=n, k=k, max_sw=total.best if total.best >= 0 else None,
        forms={c: frozenset(map(Dfa, forms[c])) for c in IsoConvention},
        scanned=total.count, elapsed=elapsed + seconds, wall_s=time.perf_counter() - t0,
        complete=not total.truncated, workers=workers,
    )


def extremal_search(
    n: int,
    k: int = 2,
    parallelism: int = 1,
    *,
    long: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Maximal switch count over every n-state k-symbol transition table.

    Symbol 0 runs over one map per conjugacy class of [n]^n, weighted by
    the class size, and for k >= 2 symbol 1 only over the maps whose class
    ranks no lower, the tables ranked higher counting twice, so `scanned`
    still counts all n^(nk) tables.  The class list and the rank table
    come from one walk over [n]^n (`_classes`), made in this process after
    every refusal, so forked pool workers inherit both.  Spaces past
    LONG_THRESHOLD need long=True, the one size confirmation of every
    search; it counts n^(n(k-1)) tables per class for ceil(n^n / n!)
    classes, a lower bound on their number, and the n^n maps that the
    class list marks (past it only at n = 9).  n > 9 is refused, and so
    is n^(n(k-1)) >= 2^63, past the scan's int64 index, and so are more
    than _CANONICAL_MAX_RELABELINGS relabelings n! k! of a kept table.
    `parallelism` is an upper bound on the worker processes: a space
    below POOL_GRAIN tables starts no pool.  Returns the maximum and the
    extremal forms.
    """
    if n < 2 or k < 1:
        raise ValueError("extremal_search needs n >= 2 and k >= 1")
    if n > _CANONICAL_MAX_STATES:
        raise ValueError(f"extremal searches beyond {_CANONICAL_MAX_STATES} states are not supported")
    _refuse_wide_index(n, k)
    _refuse_past_threshold(n ** n, "maps of the class list", long)
    if parallelism < 1:
        raise ValueError("need at least one worker")
    # ceil(n^n / n!) classes, a lower bound on their number
    _refuse_past_threshold(n ** (n * (k - 1)) * -(-n ** n // factorial(n)), "tables", long)
    _refuse_many_relabelings(n, k)
    return _search(n, k, _classes(n)[0], parallelism, progress, k > 1)


def cyclic_extremal_search(
    n: int,
    k: int = 2,
    parallelism: int = 1,
    *,
    long: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Extremal search over cyclic automata: symbol 0 is fixed as the n-cycle.

    Every cyclic automaton is isomorphic to one whose first symbol is the
    standard cycle, so only the remaining k-1 columns are enumerated, and
    of those tables only one per orbit under the n rotations that commute
    with the cycle is scanned and canonicalized.  `scanned` still counts
    all n^(n(k-1)) tables, and 2^63 or more are refused, past the scan's
    int64 index, and so are more than _CANONICAL_MAX_RELABELINGS
    relabelings n! k! of a kept table.  `parallelism` is an upper bound
    on the worker processes: a space below POOL_GRAIN tables starts no
    pool.
    """
    if not 2 <= n <= _CANONICAL_MAX_STATES:
        raise ValueError(f"cyclic search supports 2 <= n <= {_CANONICAL_MAX_STATES}")
    if k < 1:
        raise ValueError("cyclic search needs k >= 1")
    _refuse_wide_index(n, k)
    if parallelism < 1:
        raise ValueError("need at least one worker")
    _refuse_past_threshold(n ** (n * (k - 1)), "tables", long)
    _refuse_many_relabelings(n, k)
    return _search(n, k, {tuple((q + 1) % n for q in range(n)): 1}, parallelism, progress)
