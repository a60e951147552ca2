"""Exhaustive extremal searches over small transition tables.

Enumeration is raw: every table in mixed-radix order, cheap rejection first
(at least one symbol must be non-injective), synchronization and switch
count after.  One numpy scanner runs the breadth-first switch search on
whole batches of automata at once, and one batch canonicalizer reduces the
extremal tables to forms up to isomorphism; `canonical_form` is its
one-table call.  Shards are independent index ranges; their reports merge
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
# Gathered extremal tables per scan before the report is marked incomplete.
_COLLECT_CAP = 100_000
# Distinct functional powers of a transformation on n points all appear
# among exponents 1 .. n-1 + Landau(n).
_LANDAU = {1: 1, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 12, 8: 15, 9: 20}


def _max_power(n: int) -> int:
    return n - 1 + _LANDAU[n]


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

    Extremal forms are kept canonically under both isomorphism conventions;
    `convention` selects which one `extremal_forms` reports.  `elapsed` is
    the sum of the shards' seconds, so with parallel workers it exceeds the
    wall time.  `complete` is False when the per-scan collection cap was hit
    (never expected for the published search sizes).
    """

    n: int
    k: int
    convention: IsoConvention
    max_sw: int | None
    forms: dict[IsoConvention, frozenset[Dfa]]
    scanned: int
    elapsed: float
    complete: bool = True

    @property
    def extremal_forms(self) -> frozenset[Dfa]:
        return self.forms[self.convention]

    def form_count(self, convention: IsoConvention | None = None) -> int:
        return len(self.forms[convention or self.convention])

    def sorted_forms(self, convention: IsoConvention | None = None) -> list[Dfa]:
        return sorted(self.forms[convention or self.convention], key=lambda d: d.rows)


def empty_report(n: int, k: int, convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS) -> ExtremalReport:
    return ExtremalReport(
        n=n, k=k, convention=convention, max_sw=None,
        forms={c: frozenset() for c in IsoConvention}, scanned=0, elapsed=0.0,
    )


def merge_reports(r1: ExtremalReport, r2: ExtremalReport) -> ExtremalReport:
    """Associative, commutative merge: larger max wins, ties union the forms.

    A losing side's truncation does not matter: none of its tables attain
    the winning maximum.
    """
    if (r1.n, r1.k, r1.convention) != (r2.n, r2.k, r2.convention):
        raise ValueError("cannot merge reports over different search spaces")
    if r1.max_sw == r2.max_sw:
        max_sw, complete = r1.max_sw, r1.complete and r2.complete
        forms = {c: r1.forms[c] | r2.forms[c] for c in IsoConvention}
    else:
        win = max(r1, r2, key=lambda r: -1 if r.max_sw is None else r.max_sw)
        max_sw, forms, complete = win.max_sw, dict(win.forms), win.complete
    return ExtremalReport(
        n=r1.n, k=r1.k, convention=r1.convention, max_sw=max_sw,
        forms=forms, scanned=r1.scanned + r2.scanned,
        elapsed=r1.elapsed + r2.elapsed, complete=complete,
    )


def format_report(report: ExtremalReport) -> str:
    """Summary header followed by the extremal automata as DFA blocks."""
    lines = [
        f"n={report.n} k={report.k} scanned={report.scanned} "
        f"max_sw={report.max_sw if report.max_sw is not None else 'none'} "
        f"forms={report.form_count()} convention={report.convention.value} "
        f"worker_s={report.elapsed:.1f}"
    ]
    if report.convention is not IsoConvention.STATES_ONLY:
        lines[0] += f" forms_states_only={report.form_count(IsoConvention.STATES_ONLY)}"
    if not report.complete:
        lines.append("# warning: extremal collection was truncated")
    for i, dfa in enumerate(report.sorted_forms()):
        lines.append(f"# extremal form {i + 1}")
        lines.append(serialize_dfa(dfa).rstrip("\n"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Batched numpy scanner
# ---------------------------------------------------------------------------

def _switch_counts_batch(n: int, delta: "np.ndarray", cyclic: bool) -> "np.ndarray":
    """Switch counts for a batch of tables; -1 marks non-synchronizing ones.

    `delta` holds the free transition columns, shape (b, n, free_k); in
    cyclic mode the implicit extra first symbol is the standard n-cycle.
    Tables whose symbols are all injective are rejected up front, the rest
    get per-symbol subset-image maps and their functional powers, and one
    breadth-first level runs at a time across the whole batch.  A table's
    switch count is the first level at which a singleton subset appears
    (the power-closure reading of switch counts: one BFS edge per maximal
    symbol run).
    """
    b, _, free_k = delta.shape
    size = 1 << n
    full = size - 1
    dtype = np.uint8 if size <= 256 else np.uint16
    singleton_cols = np.array([1 << q for q in range(n)], dtype=np.int64)
    jmax = _max_power(n)
    out = np.full(b, -1, dtype=np.int16)

    # In cyclic mode symbol 0 is the standard cycle for every table; its
    # subset images are plain bit rotations, shared across the batch.
    shared_maps = []
    if cyclic:
        for j in range(1, n):
            rot = [((v << j) | (v >> (n - j))) & full for v in range(size)]
            shared_maps.append(np.array(rot, dtype=dtype))

    # stage 1: keep only tables with at least one non-injective symbol
    # (the cyclic symbol is a permutation, so only free columns matter)
    noninj = np.zeros(b, dtype=bool)
    for s in range(free_k):
        col = np.sort(delta[:, :, s], axis=1)
        noninj |= (col[:, 1:] == col[:, :-1]).any(axis=1)
    keep = np.nonzero(noninj)[0]
    if keep.size == 0:
        return out
    d = delta[keep]
    bs = keep.size

    # subset-image maps, built over subsets in increasing order
    bit = np.left_shift(1, d.astype(np.int64))  # (bs, n, free_k)
    per_maps = []
    for s in range(free_k):
        img = np.zeros((bs, size), dtype=dtype)
        bits_s = bit[:, :, s].astype(dtype)
        for v in range(1, size):
            low = v & (v - 1)
            q = (v ^ low).bit_length() - 1
            img[:, v] = img[:, low] | bits_s[:, q]
        base = img
        per_maps.append(base)
        prev = base
        for _ in range(2, jmax + 1):
            prev = np.take_along_axis(base, prev.astype(np.int64), axis=1)
            per_maps.append(prev)

    # batched BFS from the full set
    visited = np.zeros((bs, size), dtype=bool)
    visited[:, full] = True
    frontier = visited.copy()
    active = np.ones(bs, dtype=bool)
    result = np.full(bs, -1, dtype=np.int16)
    level = 0
    while True:
        level += 1
        fr = frontier & active[:, None]
        rows_i, cols_i = np.nonzero(fr)
        if rows_i.size == 0:
            break
        nxt = np.zeros((bs, size), dtype=bool)
        for m in per_maps:
            nxt[rows_i, m[rows_i, cols_i]] = True
        for m in shared_maps:
            nxt[rows_i, m[cols_i]] = True
        new = nxt & ~visited
        visited |= new
        hit = new[:, singleton_cols].any(axis=1) & active
        result[hit] = level
        active[hit] = False
        frontier = new

    out[keep] = result
    return out


def _scan_numpy(n: int, k: int, lo: int, hi: int, cyclic: bool = False, chunk: int | None = None):
    """Scan the index range [lo, hi) in batches of `chunk` tables.

    Returns (max_sw, tables, scanned, truncated): the maximal switch count
    (None if no table synchronizes), the tables attaining it as row tuples
    in index order, and whether more than `_COLLECT_CAP` of them were found.
    In cyclic mode an index encodes the k-1 free columns and the tables gain
    the standard n-cycle as symbol 0.
    """
    size = 1 << n
    if chunk is None:
        chunk = max(2048, min(32768, (1 << 21) // size))
    free_k = k - 1 if cyclic else k
    digit_count = n * free_k
    powers = [n ** (digit_count - 1 - pos) for pos in range(digit_count)]
    cycle = np.roll(np.arange(n, dtype=np.int16), -1)[:, None]

    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    truncated = False

    for start in range(lo, hi, chunk):
        idx = np.arange(start, min(start + chunk, hi), dtype=np.int64)
        b = idx.shape[0]
        digits = np.empty((b, digit_count), dtype=np.int16)
        for pos in range(digit_count):
            digits[:, pos] = (idx // powers[pos]) % n
        free = digits.reshape(b, n, free_k)
        sw = _switch_counts_batch(n, free, cyclic)

        batch_best = int(sw.max(initial=-1))
        if batch_best > best:
            best, tables, truncated = batch_best, [], False
        if batch_best == best >= 0:
            hits = np.nonzero(sw == best)[0]
            room = _COLLECT_CAP - len(tables)
            truncated |= hits.size > room
            found = free[hits[:room]]
            if cyclic:
                found = np.concatenate((np.broadcast_to(cycle, (len(found), n, 1)), found), axis=2)
            tables.extend(tuple(map(tuple, rows)) for rows in found.tolist())
    return (best if best >= 0 else None), tables, hi - lo, truncated


# ---------------------------------------------------------------------------
# Canonicalization
#
# Extremal searches can surface tens of thousands of tables attaining the
# maximum (the cyclic spaces especially), so the n!-candidate minimization
# is vectorized: all relabeled tables of a chunk are built at once, and each
# candidate's n*k uint8 entries are compared as one fixed-width byte string,
# which orders exactly as the row tuples do.  The gather that builds the
# candidates reads them as 8-byte indices, so a chunk holds about 2**22
# candidate entries (32 MiB of indices), but at least one table.
# ---------------------------------------------------------------------------

_CANONICAL_MAX_STATES = 9


@lru_cache(maxsize=8)
def _perm_arrays(n: int):
    p = np.array(list(permutations(range(n))), dtype=np.int64)
    return p, np.argsort(p, axis=1).astype(np.uint8)


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
    jidx = np.arange(nperm)[None, :, None, None]
    arr = np.array(tables, dtype=np.uint8)  # (m, n, k)
    chunk = max(1, (1 << 22) // (nperm * width))
    identity = tuple(range(k))
    for start in range(0, arr.shape[0], chunk):
        sub = arr[start:start + chunk]
        rows = np.arange(sub.shape[0])
        best_key = best_tab = None
        for sym in permutations(range(k)):
            # candidate j places old state perms[j, p] at index p and
            # renames every target q to ranks[j, q]
            cand = ranks[jidx, sub[:, :, list(sym)][:, perms, :]]  # (ms, n!, n, k)
            keys = np.ascontiguousarray(cand).reshape(len(rows), nperm, width).view(f"S{width}")[:, :, 0]
            jmin = keys.argmin(axis=1)
            key, tab = keys[rows, jmin], cand[rows, jmin]
            if sym == identity:
                out[IsoConvention.STATES_ONLY].update(tuple(map(tuple, t)) for t in tab.tolist())
                best_key, best_tab = key, tab
            else:
                better = key < best_key
                best_key = np.where(better, key, best_key)
                best_tab = np.where(better[:, None, None], tab, best_tab)
        out[IsoConvention.STATES_AND_SYMBOLS].update(tuple(map(tuple, t)) for t in best_tab.tolist())
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
    n, k, lo, hi, cyclic = args
    t0 = time.monotonic()
    max_sw, tables, scanned, truncated = _scan_numpy(n, k, lo, hi, cyclic)
    forms = _canonical_tables(n, k, tables)
    picklable = {conv.value: sorted(tabs) for conv, tabs in forms.items()}
    return max_sw, picklable, scanned, truncated, time.monotonic() - t0, (lo, hi)


def _report_from_scan(n, k, convention, max_sw, form_tables, scanned, elapsed, truncated) -> ExtremalReport:
    forms = {
        conv: frozenset(Dfa(rows) for rows in form_tables[conv.value])
        for conv in IsoConvention
    }
    return ExtremalReport(
        n=n, k=k, convention=convention, max_sw=max_sw,
        forms=forms, scanned=scanned, elapsed=elapsed, complete=not truncated,
    )


def _run_shards(n, k, total, cyclic, shards, parallelism, convention, progress):
    if shards is None:
        shards = max(1, min((parallelism or 1) * 8, total))
    jobs = [(n, k, lo, hi, cyclic) for lo, hi in shard_space(total, shards) if lo < hi]
    report = empty_report(n, k, convention)
    parallel = parallelism and parallelism > 1 and len(jobs) > 1
    with Pool(parallelism) if parallel else nullcontext() as pool:
        results = pool.imap_unordered(_scan_worker, jobs) if parallel else map(_scan_worker, jobs)
        for max_sw, tables, scanned, truncated, elapsed, (lo, hi) in results:
            part = _report_from_scan(n, k, convention, max_sw, tables, scanned, elapsed, truncated)
            if progress:
                progress(f"SHARD [{lo},{hi}) DONE max={max_sw} forms={part.form_count()}")
            report = merge_reports(report, part)
    return report


def extremal_search(
    n: int,
    k: int = 2,
    shards: int | None = None,
    parallelism: int | None = None,
    *,
    long: bool = False,
    allow_huge: bool = False,
    convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Scan every n-state k-symbol transition table for the maximal switch count.

    Guards: spaces beyond LONG_THRESHOLD tables need long=True, and binary
    spaces beyond n = 6 additionally need allow_huge=True (they are far past
    desk scale).  Returns the maximum together with the canonical extremal
    automata; scanning was raw, so forms are deduplicated only at the end.
    """
    if n < 2 or k < 1:
        raise SearchSpaceError("extremal_search needs n >= 2 and k >= 1")
    if n > 9:
        raise SearchSpaceError("extremal searches beyond 9 states are not supported")
    if k == 2 and n > 6 and not allow_huge:
        raise SearchSpaceError(
            f"binary search at n={n} enumerates {n}**{2 * n} tables; "
            "pass allow_huge=True to insist"
        )
    total = n ** (n * k)
    if total > LONG_THRESHOLD and not long:
        raise SearchSpaceError(
            f"{total} tables exceed the quick-search threshold; pass long=True"
        )
    return _run_shards(n, k, total, False, shards, parallelism, convention, progress)


def cyclic_extremal_search(
    n: int,
    k: int = 2,
    shards: int | None = None,
    parallelism: int | None = None,
    *,
    long: bool = False,
    convention: IsoConvention = IsoConvention.STATES_AND_SYMBOLS,
    progress: Callable[[str], None] | None = None,
) -> ExtremalReport:
    """Extremal search over cyclic automata: symbol 0 is fixed as the n-cycle.

    Every cyclic automaton is isomorphic to one whose first symbol is the
    standard cycle, so only the remaining k-1 columns are enumerated.
    """
    if not 2 <= n <= 9:
        raise SearchSpaceError("cyclic search supports 2 <= n <= 9")
    if k not in (2, 3):
        raise SearchSpaceError("cyclic search supports k in {2, 3}")
    total = n ** (n * (k - 1))
    if total > LONG_THRESHOLD and not long:
        raise SearchSpaceError(
            f"{total} tables exceed the quick-search threshold; pass long=True"
        )
    return _run_shards(n, k, total, True, shards, parallelism, convention, progress)
