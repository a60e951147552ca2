"""Exhaustive extremal searches over small transition tables.

Enumeration is raw: every table in mixed-radix order, cheap rejection first
(at least one symbol must be non-injective), synchronization and switch
count after.  Two engines share that contract: a plain-Python reference
scanner, kept simple enough to audit, and a numpy engine that runs the same
breadth-first switch search on whole batches of automata at once.  Shards
are independent index ranges; their reports merge associatively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from multiprocessing import Pool
from typing import Callable, Iterable

import numpy as np

from .automaton import Dfa, IsoConvention, canonical_form, serialize_dfa
from .synchro import is_synchronizing, min_switch_count


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


@dataclass(frozen=True)
class Shard:
    """A half-open range of enumeration indices for one search space."""

    n: int
    k: int
    lo: int
    hi: int

    def __post_init__(self):
        total = self.n ** (self.n * self.k)
        if not 0 <= self.lo <= self.hi <= total:
            raise ValueError(f"shard range [{self.lo}, {self.hi}) outside [0, {total})")


def shard_space(n: int, k: int, count: int) -> list[Shard]:
    """Partition the full enumeration space [0, n**(n*k)) into `count` shards."""
    if count < 1:
        raise ValueError("need at least one shard")
    total = n ** (n * k)
    bounds = [total * i // count for i in range(count + 1)]
    return [Shard(n, k, bounds[i], bounds[i + 1]) for i in range(count)]


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
    """Associative, commutative merge: larger max wins, ties union the forms."""
    if (r1.n, r1.k, r1.convention) != (r2.n, r2.k, r2.convention):
        raise ValueError("cannot merge reports over different search spaces")
    if r2.max_sw is None or (r1.max_sw is not None and r1.max_sw > r2.max_sw):
        max_sw, forms = r1.max_sw, dict(r1.forms)
    elif r1.max_sw is None or r2.max_sw > r1.max_sw:
        max_sw, forms = r2.max_sw, dict(r2.forms)
    else:
        max_sw = r1.max_sw
        forms = {c: r1.forms[c] | r2.forms[c] for c in IsoConvention}
    return ExtremalReport(
        n=r1.n, k=r1.k, convention=r1.convention, max_sw=max_sw,
        forms=forms, scanned=r1.scanned + r2.scanned,
        elapsed=r1.elapsed + r2.elapsed,
        complete=r1.complete and r2.complete,
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
# Reference scanner (plain Python, trivially auditable)
# ---------------------------------------------------------------------------

def _scan_reference(n: int, k: int, lo: int, hi: int, cyclic: bool = False):
    """Scan an index range one table at a time; returns (max_sw, tables, scanned)."""
    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    free_k = k - 1 if cyclic else k
    cycle = tuple((q + 1) % n for q in range(n))
    for index in range(lo, hi):
        if cyclic:
            free = decode_table(n, free_k, index)
            rows = tuple((cycle[q],) + free[q] for q in range(n))
        else:
            rows = decode_table(n, k, index)
        # cheap rejection: some symbol must merge two states
        if all(len(set(col)) == n for col in zip(*rows)):
            continue
        dfa = Dfa(rows)
        if not is_synchronizing(dfa):
            continue
        sw = min_switch_count(dfa)
        if sw > best:
            best = sw
            tables = [rows]
        elif sw == best:
            tables.append(rows)
    return (best if best >= 0 else None), tables, hi - lo


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
    """Same contract as `_scan_reference`, vectorized over batches of tables."""
    size = 1 << n
    if chunk is None:
        chunk = max(2048, min(32768, (1 << 21) // size))
    free_k = k - 1 if cyclic else k
    digit_count = n * free_k
    powers = [n ** (digit_count - 1 - pos) for pos in range(digit_count)]

    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    truncated = False

    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        idx = np.arange(start, stop, dtype=np.int64)
        b = idx.shape[0]
        digits = np.empty((b, digit_count), dtype=np.int16)
        for pos in range(digit_count):
            digits[:, pos] = (idx // powers[pos]) % n
        sw = _switch_counts_batch(n, digits.reshape(b, n, free_k), cyclic)

        batch_best = int(sw.max(initial=-1))
        if batch_best > best:
            best = batch_best
            tables = []
        if batch_best == best and best >= 0:
            cycle = tuple((q + 1) % n for q in range(n))
            for i in np.nonzero(sw == best)[0]:
                if len(tables) >= _COLLECT_CAP:
                    truncated = True
                    break
                table_index = int(idx[i])
                if cyclic:
                    free = decode_table(n, free_k, table_index)
                    tables.append(tuple((cycle[q],) + free[q] for q in range(n)))
                else:
                    tables.append(decode_table(n, k, table_index))
    return (best if best >= 0 else None), tables, hi - lo, truncated


# ---------------------------------------------------------------------------
# Batch canonicalization
#
# Extremal searches can surface tens of thousands of tables attaining the
# maximum (the cyclic spaces especially), so the n!-candidate minimization
# is vectorized: all relabeled tables are built at once and compared as
# packed integer keys.  Semantics match `canonical_form` exactly and the
# test suite cross-checks the two.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _perm_arrays(n: int):
    p = np.array(list(permutations(range(n))), dtype=np.int64)
    return p, np.argsort(p, axis=1)


def _canonical_tables(n: int, k: int, tables) -> dict[IsoConvention, set[tuple]]:
    """Canonical forms of many tables under both conventions."""
    out: dict[IsoConvention, set[tuple]] = {c: set() for c in IsoConvention}
    if not tables:
        return out
    bits = max(1, (n - 1).bit_length())
    if n > 8 or n * k * bits > 63:
        for rows in tables:
            dfa = Dfa(rows)
            for conv in IsoConvention:
                out[conv].add(canonical_form(dfa, conv).rows)
        return out

    perms, ranks = _perm_arrays(n)
    ranks = ranks.astype(np.uint8)
    nperm = perms.shape[0]
    jidx = np.arange(nperm)[None, :, None, None]
    arr = np.array(tables, dtype=np.uint8)  # (m, n, k)
    m = arr.shape[0]
    chunk = max(16, (1 << 25) // (nperm * n * k))
    sym_orders = list(permutations(range(k)))
    for start in range(0, m, chunk):
        sub = arr[start:start + chunk]
        ms = sub.shape[0]
        best_key = None
        best_tab = None
        ident_tab = None
        for sym in sym_orders:
            relabeled = sub[:, :, list(sym)][:, perms, :]       # (ms, n!, n, k)
            cand = ranks[jidx, relabeled]                       # (ms, n!, n, k)
            flat = cand.reshape(ms, nperm, n * k)
            key = np.zeros((ms, nperm), dtype=np.int64)
            for pos in range(n * k):
                key = (key << bits) | flat[:, :, pos]
            jmin = key.argmin(axis=1)
            kmin = key[np.arange(ms), jmin]
            tmin = cand[np.arange(ms), jmin]                    # (ms, n, k)
            if sym == tuple(range(k)):
                ident_tab = tmin
            if best_key is None:
                best_key, best_tab = kmin, tmin
            else:
                better = kmin < best_key
                best_key = np.where(better, kmin, best_key)
                best_tab = np.where(better[:, None, None], tmin, best_tab)
        for i in range(ms):
            out[IsoConvention.STATES_ONLY].add(
                tuple(tuple(int(t) for t in row) for row in ident_tab[i]))
            out[IsoConvention.STATES_AND_SYMBOLS].add(
                tuple(tuple(int(t) for t in row) for row in best_tab[i]))
    return out


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _scan_worker(args):
    n, k, lo, hi, cyclic, engine = args
    t0 = time.monotonic()
    if engine == "reference":
        max_sw, tables, scanned = _scan_reference(n, k, lo, hi, cyclic)
        truncated = False
    else:
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


def _run_shards(n, k, total, cyclic, shards, parallelism, engine, convention, progress):
    if shards is None:
        shards = max(1, min((parallelism or 1) * 8, total))
    bounds = [total * i // shards for i in range(shards + 1)]
    jobs = [
        (n, k, bounds[i], bounds[i + 1], cyclic, engine)
        for i in range(shards)
        if bounds[i] < bounds[i + 1]
    ]
    report = empty_report(n, k, convention)
    if parallelism and parallelism > 1 and len(jobs) > 1:
        with Pool(parallelism) as pool:
            results = pool.imap_unordered(_scan_worker, jobs)
            for max_sw, tables, scanned, truncated, elapsed, (lo, hi) in results:
                part = _report_from_scan(n, k, convention, max_sw, tables, scanned, elapsed, truncated)
                if progress:
                    progress(f"SHARD [{lo},{hi}) DONE max={max_sw} forms={part.form_count()}")
                report = merge_reports(report, part)
    else:
        for job in jobs:
            max_sw, tables, scanned, truncated, elapsed, (lo, hi) = _scan_worker(job)
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
    engine: str = "numpy",
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
    if engine not in ("numpy", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    return _run_shards(n, k, total, False, shards, parallelism, engine, convention, progress)


def cyclic_extremal_search(
    n: int,
    k: int = 2,
    shards: int | None = None,
    parallelism: int | None = None,
    *,
    long: bool = False,
    engine: str = "numpy",
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
    if engine not in ("numpy", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    return _run_shards(n, k, total, True, shards, parallelism, engine, convention, progress)
