"""Exhaustive extremal searches over small transition tables.

Both searches run one scan: tables in mixed-radix order, cheap rejection
first (at least one symbol must be non-injective), switch count after.
Symbol 0 may be fixed, one map shared by every table: the binary search
fixes none and scans every table, the cyclic search fixes the n-cycle and
scans one table per orbit under its centralizer (the n rotations), the
table whose index is the least in its orbit.  One numpy kernel searches a
whole batch of automata at once by applying symbol runs to a flat frontier
of (table, subset) entries, and one batch canonicalizer reduces the
extremal tables to forms up to isomorphism; `canonical_form` is its
one-table call.  It tries all n! relabelings, so every entry point refuses
n > 9.  Shards are independent index ranges; their reports merge
associatively.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from multiprocessing import Pool
from typing import Callable, Iterable

import numpy as np

from .automaton import Dfa, IsoConvention, serialize_dfa


class SearchSpaceError(ValueError):
    """The requested enumeration is too large for the given flags."""


# Enumerations above this size need long=True.
LONG_THRESHOLD = 20_000_000
# Gathered extremal tables (orbit representatives with a fixed symbol) per scan
# before the report is marked incomplete.
_COLLECT_CAP = 100_000


def shard_space(total: int, count: int) -> list[tuple[int, int]]:
    """Partition the enumeration indices [0, total) into `count` half-open ranges."""
    if count < 1:
        raise ValueError("need at least one shard")
    bounds = [total * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def decode_table(n: int, k: int, index: int) -> tuple[tuple[int, ...], ...]:
    """Index -> transition table, mixed radix, flat position q*k+s, big-endian."""
    entries = [0] * (n * k)
    for pos in range(n * k - 1, -1, -1):
        index, entries[pos] = divmod(index, n)
    return tuple(tuple(entries[q * k:(q + 1) * k]) for q in range(n))


def encode_table(n: int, k: int, rows: Iterable[Iterable[int]]) -> int:
    index = 0
    for row in rows:
        for t in row:
            index = index * n + t
    return index


@dataclass(frozen=True)
class ExtremalReport:
    """Maximum switch count over a scanned space plus the extremal automata.

    Extremal forms are kept canonically under both isomorphism conventions,
    one set each in `forms`; `form_count` and `sorted_forms` read
    STATES_AND_SYMBOLS unless given the other.  `elapsed` is
    the sum of the shards' seconds, so with parallel workers it exceeds the
    wall time.  `complete` is False when the per-scan collection cap was hit
    (never expected for the published search sizes).
    """

    n: int
    k: int
    max_sw: int | None
    forms: dict[IsoConvention, frozenset[Dfa]]
    scanned: int
    elapsed: float
    complete: bool = True

    def form_count(self, convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS) -> int:
        return len(self.forms[convention])

    def sorted_forms(self, convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS) -> list[Dfa]:
        return sorted(self.forms[convention], key=lambda d: d.rows)


def empty_report(n: int, k: int) -> ExtremalReport:
    return ExtremalReport(
        n=n, k=k, max_sw=None,
        forms={c: frozenset() for c in IsoConvention}, scanned=0, elapsed=0.0,
    )


def merge_reports(r1: ExtremalReport, r2: ExtremalReport) -> ExtremalReport:
    """Associative, commutative merge: larger max wins, ties union the forms.

    A losing side's truncation does not matter: none of its tables attain
    the winning maximum.
    """
    if (r1.n, r1.k) != (r2.n, r2.k):
        raise ValueError("cannot merge reports over different search spaces")
    if r1.max_sw == r2.max_sw:
        max_sw, complete = r1.max_sw, r1.complete and r2.complete
        forms = {c: r1.forms[c] | r2.forms[c] for c in IsoConvention}
    else:
        win = max(r1, r2, key=lambda r: -1 if r.max_sw is None else r.max_sw)
        max_sw, forms, complete = win.max_sw, dict(win.forms), win.complete
    return ExtremalReport(
        n=r1.n, k=r1.k, max_sw=max_sw,
        forms=forms, scanned=r1.scanned + r2.scanned,
        elapsed=r1.elapsed + r2.elapsed, complete=complete,
    )


def format_report(report: ExtremalReport) -> str:
    """Summary header followed by the extremal automata as DFA blocks."""
    lines = [
        f"n={report.n} k={report.k} scanned={report.scanned} "
        f"max_sw={report.max_sw if report.max_sw is not None else 'none'} "
        f"forms={report.form_count()} convention={IsoConvention.STATES_AND_SYMBOLS.value} "
        f"worker_s={report.elapsed:.1f} forms_states_only={report.form_count(IsoConvention.STATES_ONLY)}"
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


def _switch_counts_batch(n: int, delta: "np.ndarray", fixed: "np.ndarray | None" = None):
    """Switch counts of a batch of tables (-1: not synchronizing), and the
    mask of those rejected up front because every symbol is injective.

    `delta` holds the free columns, shape (b, n, free_k).  `fixed`, one
    transformation shared by the batch (the n-cycle in cyclic search), is
    every table's symbol 0.  The breadth-first search starts at the full
    set and one edge is one maximal symbol run, so a table's switch count
    is the first level that reaches a singleton.
    """
    b, _, free_k = delta.shape
    full = (1 << n) - 1
    # a column is injective iff its n target bits cover every state
    bits = np.left_shift(1, delta.astype(np.int32))
    injective = (np.bitwise_or.reduce(bits, axis=1) == full).all(axis=1)
    injective &= fixed is None or len(set(fixed.tolist())) == n

    # (map, index mask) per symbol: a free symbol's map is flat and indexed
    # like the frontier, the fixed symbol's one map by the subset alone
    maps = [(_image_maps(n, delta[:, :, s]).reshape(-1), -1) for s in range(free_k)]
    if fixed is not None:
        maps.append((_image_maps(n, fixed[None, :])[0], full))

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
        for img, mask in maps:
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
                nxt = (cur & ~full) | img[cur & mask]
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


def _scan_numpy(n: int, k: int, lo: int, hi: int, fixed: tuple[int, ...] | None = None,
                chunk: int | None = None):
    """Scan the index range [lo, hi) in batches of `chunk` tables.

    Returns (max_sw, tables, scanned, truncated, injective, nonsync): the
    maximal switch count (None if no table synchronizes), the tables
    attaining it as row tuples in index order, `hi - lo`, whether more than
    `_COLLECT_CAP` of them were found, and how many tables of the range
    were rejected as all-injective or left non-synchronizing.  `fixed`, a
    transformation, is every table's symbol 0, and an index encodes the
    k-1 free columns; None leaves all k columns free.  Only orbit
    representatives are scanned: a table whose index is the least among
    its conjugates under the centralizer of `fixed`.  The returned tables
    are these representatives, and each counts with its orbit size in
    `injective` and `nonsync`, so those still count every table of the
    range.  With no fixed symbol, or a centralizer of the identity alone,
    every table is its own orbit and no conjugates are built.
    """
    if chunk is None:
        chunk = max(2048, min(32768, (1 << 21) >> n))
    free_k = k if fixed is None else k - 1
    powers = np.array([n ** e for e in range(n * free_k - 1, -1, -1)], dtype=np.int64)
    relabelings, col0 = [], None
    if fixed is not None:
        perms, ranks = _perm_arrays(n)
        # index 0 is the identity, whose conjugate is the table itself
        relabelings = [(perms[j], ranks[j]) for j in _centralizer(n, fixed)[1:]]
        col0 = np.array(fixed, dtype=np.int16)

    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    truncated, injective, nonsync = False, 0, 0

    for start in range(lo, hi, chunk):
        idx = np.arange(start, min(start + chunk, hi), dtype=np.int64)
        free = (idx[:, None] // powers % n).astype(np.int16).reshape(-1, n, free_k)
        weight = 1
        if relabelings:
            # a conjugate's index: its digits, relabeled by the same gather
            # as `_canonical_tables` uses, dotted with the place values
            least = np.ones(idx.size, dtype=bool)
            stabilizer = np.ones(idx.size, dtype=np.int64)
            for perm, rank in relabelings:
                conj = rank[free[:, perm, :]].reshape(idx.size, -1) @ powers
                least &= conj >= idx
                stabilizer += conj == idx
            free = free[least]
            weight = (len(relabelings) + 1) // stabilizer[least]
        sw, rejected = _switch_counts_batch(n, free, col0)
        rejected_w = int(np.sum(weight * rejected))
        injective += rejected_w
        nonsync += int(np.sum(weight * (sw < 0))) - rejected_w

        batch_best = int(sw.max(initial=-1))
        if batch_best > best:
            best, tables, truncated = batch_best, [], False
        if batch_best == best >= 0:
            hits = np.nonzero(sw == best)[0]
            room = _COLLECT_CAP - len(tables)
            truncated |= hits.size > room
            found = free[hits[:room]]
            if col0 is not None:
                found = np.concatenate((np.broadcast_to(col0[:, None], (len(found), n, 1)), found), axis=2)
            tables.extend(tuple(map(tuple, rows)) for rows in found.tolist())
    return (best if best >= 0 else None), tables, hi - lo, truncated, injective, nonsync


# ---------------------------------------------------------------------------
# Canonicalization
#
# Extremal searches can surface tens of thousands of tables attaining the
# maximum (the cyclic spaces especially), so the n!-candidate minimization
# is vectorized: all relabeled tables of a chunk are built at once, and each
# candidate's n*k uint8 entries are compared as one fixed-width byte string,
# which orders exactly as the row tuples do.  The gather that builds the
# candidates reads them as 8-byte indices, so one gather holds at most
# _CANONICAL_BUDGET entries (32 MiB of indices): whole tables when one
# table's n! candidates fit, else a slice of one table's permutations.
# `_perm_arrays` holds all n! permutations, so `canonical_form` and both
# searches refuse tables past _CANONICAL_MAX_STATES states (9! = 362,880).
# ---------------------------------------------------------------------------

_CANONICAL_MAX_STATES = 9
_CANONICAL_BUDGET = 1 << 22


@lru_cache(maxsize=8)
def _perm_arrays(n: int):
    p = np.array(list(permutations(range(n))), dtype=np.uint8)
    return p, np.argsort(p, axis=1).astype(np.uint8)


@lru_cache(maxsize=8)
def _centralizer(n: int, fixed: tuple[int, ...]) -> tuple[int, ...]:
    """Indices into `_perm_arrays(n)` of the relabelings that map the
    transformation `fixed` to itself, in order (the identity first)."""
    perms, ranks = _perm_arrays(n)
    f = np.array(fixed, dtype=np.uint8)
    moved = ranks[np.arange(perms.shape[0])[:, None], f[perms]]
    return tuple(np.nonzero((moved == f).all(axis=1))[0].tolist())


def _lesser(best, cand):
    """Elementwise smaller of two (keys, tables) minima; None is no minimum."""
    if best is None:
        return cand
    better = cand[0] < best[0]
    return np.where(better, cand[0], best[0]), np.where(better[:, None, None], cand[1], best[1])


def _canonical_tables(n: int, k: int, tables) -> dict[IsoConvention, set[tuple]]:
    """Canonical forms of many n-state k-symbol tables under both conventions.

    A form is the lexicographically minimal table over all state
    relabelings, and under STATES_AND_SYMBOLS over all symbol orders too.
    """
    out: dict[IsoConvention, set[tuple]] = {c: set() for c in IsoConvention}
    if not tables:
        return out
    perms, ranks = _perm_arrays(n)
    nperm = perms.shape[0]
    width = n * k
    chunk = max(1, _CANONICAL_BUDGET // (nperm * width))
    piece = _CANONICAL_BUDGET // width
    arr = np.array(tables, dtype=np.uint8)  # (m, n, k)
    for start in range(0, arr.shape[0], chunk):
        sub = arr[start:start + chunk]
        rows = np.arange(sub.shape[0])
        best = None
        for sym in permutations(range(k)):
            cols = sub[:, :, list(sym)]
            least = None
            for lo in range(0, nperm, piece):
                # candidate j places old state perms[j, p] at index p and
                # renames every target q to ranks[j, q]
                jidx = np.arange(lo, min(lo + piece, nperm))[None, :, None, None]
                cand = ranks[jidx, cols[:, perms[lo:lo + piece], :]]  # (ms, piece, n, k)
                keys = np.ascontiguousarray(cand).reshape(len(rows), -1, width).view(f"S{width}")[:, :, 0]
                jmin = keys.argmin(axis=1)
                least = _lesser(least, (keys[rows, jmin], cand[rows, jmin]))
            if best is None:  # the identity symbol order comes first
                out[IsoConvention.STATES_ONLY].update(tuple(map(tuple, t)) for t in least[1].tolist())
            best = _lesser(best, least)
        out[IsoConvention.STATES_AND_SYMBOLS].update(tuple(map(tuple, t)) for t in best[1].tolist())
    return out


def canonical_form(dfa: Dfa, convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS) -> Dfa:
    """Lexicographically minimal transition table over all relabelings.

    Two automata are isomorphic under the convention iff their canonical
    forms are equal.  Explicit minimization over n! (times k!) relabelings;
    only intended for the small automata that come out of extremal searches.
    """
    if dfa.n > _CANONICAL_MAX_STATES:
        raise ValueError(f"canonical_form supports at most {_CANONICAL_MAX_STATES} states")
    (rows,) = _canonical_tables(dfa.n, dfa.k, [dfa.rows])[convention]
    return Dfa(rows)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _scan_worker(args):
    n, k, lo, hi, fixed = args
    t0 = time.monotonic()
    max_sw, tables, scanned, truncated, injective, nonsync = _scan_numpy(n, k, lo, hi, fixed)
    forms = _canonical_tables(n, k, tables)
    picklable = {conv.value: sorted(tabs) for conv, tabs in forms.items()}
    return max_sw, picklable, scanned, truncated, time.monotonic() - t0, (lo, hi), (injective, nonsync)


def _report_from_scan(n, k, max_sw, form_tables, scanned, elapsed, truncated) -> ExtremalReport:
    forms = {
        conv: frozenset(Dfa(rows) for rows in form_tables[conv.value])
        for conv in IsoConvention
    }
    return ExtremalReport(
        n=n, k=k, max_sw=max_sw,
        forms=forms, scanned=scanned, elapsed=elapsed, complete=not truncated,
    )


def _run_shards(n, k, fixed, shards, parallelism, long, progress):
    """Scan every table whose symbol 0 is `fixed` (None: every table) in
    shards, on `parallelism` worker processes, and merge their reports."""
    workers = 1 if parallelism is None else parallelism
    if workers < 1:
        raise ValueError("need at least one worker")
    total = n ** (n * (k if fixed is None else k - 1))
    if total > LONG_THRESHOLD and not long:
        raise SearchSpaceError(
            f"{total} tables exceed the quick-search threshold; "
            "pass long=True (--long on the command line)"
        )
    if shards is None:
        shards = max(1, min(workers * 8, total))
    jobs = [(n, k, lo, hi, fixed) for lo, hi in shard_space(total, shards) if lo < hi]
    report = empty_report(n, k)
    parallel = workers > 1 and len(jobs) > 1
    with Pool(workers) if parallel else nullcontext() as pool:
        results = pool.imap_unordered(_scan_worker, jobs) if parallel else map(_scan_worker, jobs)
        for max_sw, tables, scanned, truncated, elapsed, (lo, hi), (injective, nonsync) in results:
            part = _report_from_scan(n, k, max_sw, tables, scanned, elapsed, truncated)
            if progress:
                progress(f"SHARD [{lo},{hi}) DONE max={max_sw} forms={part.form_count()} "
                         f"tables_per_s={scanned / max(elapsed, 1e-9):.0f} "
                         f"injective={injective} nonsync={nonsync}")
            report = merge_reports(report, part)
    return report


def extremal_search(
    n: int,
    k: int = 2,
    shards: int | None = None,
    parallelism: int | None = None,
    *,
    long: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Scan every n-state k-symbol transition table for the maximal switch count.

    Spaces beyond LONG_THRESHOLD tables need long=True, the one size
    confirmation of every search; n > 9 is refused.  Returns the maximum
    together with the canonical extremal automata; scanning was raw, so
    forms are deduplicated only at the end.
    """
    if n < 2 or k < 1:
        raise SearchSpaceError("extremal_search needs n >= 2 and k >= 1")
    if n > _CANONICAL_MAX_STATES:
        raise SearchSpaceError(f"extremal searches beyond {_CANONICAL_MAX_STATES} states are not supported")
    return _run_shards(n, k, None, shards, parallelism, long, progress)


def cyclic_extremal_search(
    n: int,
    k: int = 2,
    shards: int | None = None,
    parallelism: int | None = None,
    *,
    long: bool = False,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Extremal search over cyclic automata: symbol 0 is fixed as the n-cycle.

    Every cyclic automaton is isomorphic to one whose first symbol is the
    standard cycle, so only the remaining k-1 columns are enumerated, and
    of those tables only one per orbit under the n rotations that commute
    with the cycle is scanned and canonicalized.  `scanned` still counts
    all n^(n(k-1)) tables.
    """
    if not 2 <= n <= _CANONICAL_MAX_STATES:
        raise SearchSpaceError(f"cyclic search supports 2 <= n <= {_CANONICAL_MAX_STATES}")
    if k not in (2, 3):
        raise SearchSpaceError("cyclic search supports k in {2, 3}")
    cycle = tuple((q + 1) % n for q in range(n))
    return _run_shards(n, k, cycle, shards, parallelism, long, progress)
