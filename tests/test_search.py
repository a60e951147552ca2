import multiprocessing
import os
import pickle
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from operator import attrgetter

import numpy as np
import pytest

from oracles import brute_canonical_form, decode_table
from syncswitch import search
from syncswitch.automaton import Dfa, IsoConvention
from syncswitch.families import p_variant
from syncswitch.search import (
    canonical_form,
    cyclic_extremal_search,
    extremal_search,
    format_report,
    _scan_numpy,
)
from syncswitch.synchro import (
    NotSynchronizingError,
    is_synchronizing,
    min_switch_count,
    shortest_sync_length,
)


def _table(fixed, k: int, index: int):
    """The table of an index: symbol 0 is the map `fixed`, then the k-1
    free columns, which the index holds column by column, symbol 1
    leading."""
    n = len(fixed)
    digits = sum(decode_table(n, k - 1, index), ())  # the n(k-1) base-n digits, big-endian
    free = list(zip(*(digits[c * n:(c + 1) * n] for c in range(k - 1))))
    return tuple((fixed[q],) + free[q] for q in range(n))


def _cycle(n: int):
    return tuple((q + 1) % n for q in range(n))


def _conjugates(rows, fixed):
    """The conjugates of a table under the relabelings p that commute with
    its symbol 0, `fixed`: row q moves to p(q), every target t becomes p(t)."""
    n = len(rows)
    out = set()
    for p in permutations(range(n)):
        if all(p[fixed[q]] == fixed[p[q]] for q in range(n)):
            moved = [None] * n
            for q in range(n):
                moved[p[q]] = tuple(p[t] for t in rows[q])
            out.add(tuple(moved))
    return out


def _scan_reference(n: int, k: int, lo: int, hi: int, fixed):
    """Plain-Python scan of an index range of the tables whose symbol 0 is
    `fixed`, one table at a time, with the scalar engines; returns
    (max_sw, tables) like `_scan_numpy`, but `tables` holds every extremal
    table as row tuples, not orbit representatives."""
    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    for index in range(lo, hi):
        rows = _table(fixed, k, index)
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
    return best, tables


def _with_symbol0(col, free):
    """Whole tables, shape (b, n, k): the map `col` as symbol 0 of every
    table, beside the free columns `free`, shape (b, n, k-1)."""
    col = np.broadcast_to(np.asarray(col, dtype=np.int16)[:, None], (len(free), len(col), 1))
    return np.concatenate((col, free), axis=2)


def _rows(table):
    return tuple(map(tuple, table.tolist()))


def _found(tally):
    """The tables a scan tally holds, as row tuples in index order."""
    return [_rows(t) for tables in tally.found for t in tables]


def _assert_orbits_cover(fast, ref, fixed):
    # the scan keeps one extremal table per orbit; the orbits of the kept
    # tables are disjoint and together hold every extremal table
    assert fast.best == ref[0]
    orbits = [_conjugates(rows, fixed) for rows in _found(fast)]
    closure = set().union(*orbits)
    assert sum(map(len, orbits)) == len(closure)
    assert closure == set(ref[1])


def test_search_needs_a_worker():
    # the shard ranges' partition of each map's tables is pinned by the
    # `scanned` equalities of the pool-path tests
    with pytest.raises(ValueError, match="at least one worker"):
        extremal_search(3, parallelism=0)


def test_class_representatives():
    # OEIS A001372: the transformations of [n] up to relabeling
    for n, classes in enumerate([1, 3, 7, 19, 47, 130, 343], start=1):
        reps, rank = search._classes(n)
        assert len(reps) == classes and sum(reps.values()) == n ** n
        # a search reads only its own n, so each n walked replaces the last
        # (one held rank table is 775 MB at n = 9)
        assert search._classes.cache_info().currsize == 1
        # each class size is n! over the map's centralizer, and the
        # dict is in rank order: decreasing (size, map), position r of the
        # list being rank r of the table
        assert all(size * len(search._centralizer(n, f)) == factorial(n) for f, size in reps.items())
        assert list(reps.items()) == sorted(reps.items(), key=lambda item: (item[1], item[0]), reverse=True)
        assert rank.dtype == np.uint16 and rank.shape == (n ** n,)
        if n <= 6:
            index = {f: i for i, f in enumerate(product(range(n), repeat=n))}
            assert rank[[index[f] for f in reps]].tolist() == list(range(len(reps)))
            # every map of a class has its rank: rank r holds class r's size
            assert np.bincount(rank).tolist() == list(reps.values())
        if n <= 5:
            # maps in index order, each map's rank the position of its form's class
            forms = [canonical_form(Dfa([(t,) for t in f])).rows for f in product(range(n), repeat=n)]
            assert dict(Counter(forms)) == {tuple((t,) for t in f): size for f, size in reps.items()}
            position = {tuple((t,) for t in f): r for r, f in enumerate(reps)}
            assert rank.tolist() == [position[form] for form in forms]


def test_engines_agree_exhaustively_small():
    # every binary table on 2 and 3 states, one symbol-0 map at a time
    for n in (2, 3):
        for fixed in product(range(n), repeat=n):
            ref = _scan_reference(n, 2, 0, n ** n, fixed)
            (fast,) = _scan_numpy(n, 2, [(fixed, 0, n ** n)])
            _assert_orbits_cover(fast, ref, fixed)


def test_engines_agree_on_n4_slice():
    # symbol 0 is 0 -> 1 -> 2 -> 3 -> 3, which only the identity
    # relabeling leaves unchanged, so every table of the slice is scanned
    fixed, lo, hi = (1, 2, 3, 3), 20_000, 22_000
    assert len(search._centralizer(4, fixed)) == 1
    ref = _scan_reference(4, 3, lo, hi, fixed)
    (fast,) = _scan_numpy(4, 3, [(fixed, lo, hi)])
    assert fast.best == ref[0]
    assert _found(fast) == ref[1]


def test_engines_agree_cyclic():
    for n, k in [(4, 2), (3, 3), (5, 2)]:
        total = n ** (n * (k - 1))
        ref = _scan_reference(n, k, 0, total, _cycle(n))
        (fast,) = _scan_numpy(n, k, [(_cycle(n), 0, total)])
        _assert_orbits_cover(fast, ref, _cycle(n))


@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
def test_driver_matches_raw_pass(n, k):
    # the raw pass scores every table: each of the n^n columns as symbol 0,
    # beside all free columns, with no orbit filter, no symbol order and no
    # class weights
    index = np.arange(n ** (n * (k - 1)))
    digits = [index // n ** e % n for e in range(n * (k - 1) - 1, -1, -1)]
    free = np.stack(digits, axis=1).astype(np.int16).reshape(-1, n, k - 1)
    best, tables = -1, []
    for col in product(range(n), repeat=n):
        sw, _ = search._switch_counts_batch(n, _with_symbol0(col, free))
        if sw.max() > best:
            best, tables = int(sw.max()), []
        for cols in free[sw == best].tolist():
            tables.append(tuple((col[q],) + tuple(cols[q]) for q in range(n)))
    report = extremal_search(n, k)
    assert (report.max_sw, report.scanned, report.complete) == (best, n ** (n * k), True)
    expected = search._canonical_tables(n, k, tables)
    for conv in IsoConvention:
        assert report.forms[conv] == set(map(Dfa, expected[conv]))


def test_extremal_n2_and_n3():
    r2 = extremal_search(2)
    assert r2.max_sw == 1 and r2.scanned == 16
    r3 = extremal_search(3)
    assert r3.max_sw == 3
    assert r3.form_count(IsoConvention.STATES_AND_SYMBOLS) == 6
    assert r3.scanned == 729
    # one symbol: symbol 0 alone, no free column
    r4 = extremal_search(4, 1)
    assert (r4.max_sw, r4.scanned, r4.form_count()) == (1, 256, 4)


def test_extremal_forms_recheck():
    report = extremal_search(3)
    for conv in IsoConvention:
        for dfa in report.forms[conv]:
            assert is_synchronizing(dfa)
            assert min_switch_count(dfa) == report.max_sw


def test_pair_criterion_never_rejects():
    # against subset BFS on every binary 3-state table
    for index in range(3 ** 6):
        dfa = Dfa(decode_table(3, 2, index))
        by_pairs = is_synchronizing(dfa)
        try:
            shortest_sync_length(dfa)
            by_subsets = True
        except NotSynchronizingError:
            by_subsets = False
        assert by_pairs == by_subsets


def test_driver_completeness_follows_the_winner(monkeypatch):
    # one shard per map: at n=3 the maps reaching the maximum 3 keep at
    # most 3 orbit representatives each under the symbol order, and losing
    # maps keep more
    kept = [(t.best, _found(t)) for f in search._classes(3)[0]
            for t in _scan_numpy(3, 2, [(f, 0, 27)], True)]
    assert max(len(t) for sw, t in kept if sw == 3) == 3
    assert max(len(t) for sw, t in kept if sw < 3) > 3
    full = extremal_search(3)
    with monkeypatch.context() as m:
        # the pool path splits each map's 27 tables into 3 shards
        m.setattr(search, "POOL_GRAIN", 0)
        assert full.complete and extremal_search(3, parallelism=2).forms == full.forms
    monkeypatch.setattr(search, "_COLLECT_CAP", 3)
    capped = extremal_search(3)
    assert capped.complete and capped.forms == full.forms
    monkeypatch.setattr(search, "_COLLECT_CAP", 2)
    assert not extremal_search(3).complete


def test_truncation_resets_when_the_maximum_rises(monkeypatch):
    # symbol 0 is 0 <-> 1, 2 -> 0, whose centralizer is trivial; in batches
    # of 2 tables (16 >> 3) the first holds two tables with switch count 1,
    # over the cap, and the second holds the only table with 2
    monkeypatch.setattr(search, "_COLLECT_CAP", 1)
    monkeypatch.setattr(search, "_SCAN_ENTRIES", 16)
    (tally,) = _scan_numpy(3, 2, [((1, 0, 0), 0, 4)])
    assert (tally.best, len(_found(tally)), tally.truncated) == (2, 1, False)


def test_packed_batches_match_parts_alone(monkeypatch):
    # in batches of 5 tables (40 >> 3) one kernel call holds the end of one
    # part and the start of the next; the identity's range [0, 5) holds no
    # symbol 1 ranked at or above the identity, so the mask empties it
    parts = [((0, 1, 2), 0, 5)] + [(f, 2, 25) for f in search._classes(3)[0]]
    alone = [_scan_numpy(3, 2, [part], True)[0] for part in parts]
    assert (alone[0].best, alone[0].injective, alone[0].nonsync, alone[0].count) == (-1, 0, 0, 0)
    sizes = []
    kernel = search._switch_counts_batch
    monkeypatch.setattr(search, "_switch_counts_batch", lambda n, t: sizes.append(len(t)) or kernel(n, t))
    monkeypatch.setattr(search, "_SCAN_ENTRIES", 40)
    packed = _scan_numpy(3, 2, parts, True)
    # every batch but the last is full, so batches cross part boundaries
    assert len(sizes) > 2 and set(sizes[:-1]) == {5}
    fields = attrgetter("best", "truncated", "injective", "nonsync", "count")
    for one, many in zip(alone, packed):
        assert fields(one) == fields(many)
        assert _found(one) == _found(many)


@pytest.mark.parametrize("grain", [search.POOL_GRAIN, 0])
def test_shard_counts_weight_the_symbol_swap(monkeypatch, grain):
    # a binary n=4 table whose symbol 1 ranks above its symbol 0 counts
    # twice, for its skipped 0<->1 swap, so in process and on the pool the
    # SHARD sums count all 4^8 tables: 576 with two permutation symbols and
    # 13,440 more that do not synchronize (the histogram's 14,016 - 576)
    monkeypatch.setattr(search, "POOL_GRAIN", grain)
    lines = []
    report = extremal_search(4, 2, parallelism=2, progress=lines.append)
    fields = [dict(f.split("=") for f in line.split() if "=" in f) for line in lines]
    assert report.scanned == 4 ** 8 and report.workers == (2 if grain == 0 else 1)
    assert sum(int(f["injective"]) for f in fields) == 576
    assert sum(int(f["nonsync"]) for f in fields) == 13440


def test_cyclic_small():
    r = cyclic_extremal_search(3, 3)
    assert r.max_sw == 3
    r = cyclic_extremal_search(5, 2)
    assert r.max_sw == 7
    assert r.scanned == 5 ** 5


@pytest.mark.parametrize("n, k", [(5, 2), (4, 3)])
def test_cyclic_shards_agree(monkeypatch, n, k):
    # one shard per map in-process against 24 shards over 3 pool workers
    one = cyclic_extremal_search(n, k)
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    lines = []
    many = cyclic_extremal_search(n, k, parallelism=3, progress=lines.append)
    assert len(lines) > len({line.split()[1] for line in lines})
    assert (many.max_sw, many.scanned, many.complete) == (one.max_sw, one.scanned, one.complete)
    assert many.forms == one.forms


_GRAIN_SPACES = [(extremal_search, 4, 2), (extremal_search, 3, 3), (cyclic_extremal_search, 5, 2),
                 (cyclic_extremal_search, 4, 3)]


def _outcome(report):
    return report.max_sw, report.scanned, report.complete, report.forms


@pytest.mark.parametrize("fn, n, k", _GRAIN_SPACES)
def test_small_search_starts_no_pool(monkeypatch, fn, n, k):
    # below the grain a second worker is allowed but never started
    one = fn(n, k, parallelism=1)
    monkeypatch.setattr(search, "Pool", lambda *args: pytest.fail("pool started"))
    two = fn(n, k, parallelism=2)
    assert _outcome(two) == _outcome(one)
    assert one.workers == two.workers == 1


@pytest.mark.parametrize("fn, n, k", _GRAIN_SPACES)
def test_pool_path_agrees(monkeypatch, fn, n, k):
    # a grain of 0 sends the same spaces through the worker pool
    one = fn(n, k, parallelism=1)
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    two = fn(n, k, parallelism=2)
    assert _outcome(two) == _outcome(one)
    assert two.workers == 2


@pytest.fixture
def inline_pool(monkeypatch):
    """A fake worker pool that maps in-process, so no process starts; the
    returned lists record the pool sizes asked for and the jobs sent."""
    sizes, jobs_sent = [], []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        @staticmethod
        def imap_unordered(fn, jobs):
            jobs = list(jobs)
            jobs_sent.extend(jobs)
            return map(fn, jobs)

    monkeypatch.setattr(search, "Pool", InlinePool)
    return sizes, jobs_sent


def test_pool_has_at_most_one_worker_per_job(monkeypatch, inline_pool):
    # binary (5,2) is above the grain and makes 47 maps * 67 ranges = 3,149
    # jobs
    sizes, jobs = inline_pool
    calls, canonical_tables = [], search._canonical_tables
    monkeypatch.setattr(search, "_canonical_tables", lambda n, k, tables, ranked:
                        calls.append(len(tables)) or canonical_tables(n, k, tables, ranked))
    lines = []
    report = extremal_search(5, 2, parallelism=5000, progress=lines.append)
    shards = sum(line.startswith("SHARD") for line in lines)
    assert shards == 3149
    assert sizes == [shards] and report.workers == shards
    # the pool only scans: the caller canonicalizes the 6 kept tables in
    # one call, their 0<->1 swaps among the symbol orders it scores
    assert not any(job[0] is search._canonical_tables for job in jobs)
    assert calls == [6]
    assert _outcome(report) == _outcome(extremal_search(5, 2))


@pytest.mark.parametrize("fn, ranked", [(extremal_search, True), (cyclic_extremal_search, False)])
def test_scan_jobs_carry_no_array(monkeypatch, inline_pool, fn, ranked):
    # a scan job is (n, k, parts, ranked): a worker reads the rank table
    # the caller built before the pool started, so no job pickles it
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    fn(4, 2, parallelism=2)
    scans = [job[1:] for job in inline_pool[1] if job[0] is _scan_numpy]
    assert scans and all(job[:2] == (4, 2) and job[3] is ranked for job in scans)
    assert not any(isinstance(x, np.ndarray) for job in scans for x in job)
    assert max(len(pickle.dumps(job)) for job in scans) < 1000


def test_rank_mask_reads_the_leading_digit():
    # a (3,3) index is symbol 1's map index times 27 plus symbol 2's, so
    # [27m, 27m + 27) holds every table whose symbol 1 is map m.  The scan
    # keeps none of them iff m ranks below symbol 0, or the orbit filter
    # moves them all to a conjugate of m with a lower index
    reps, rank = search._classes(3)
    index = {f: i for i, f in enumerate(product(range(3), repeat=3))}
    for fixed in reps:
        for f, m in index.items():
            conjugates = _conjugates(tuple(zip(fixed, f)), fixed)
            least = min(index[tuple(row[1] for row in rows)] for rows in conjugates) == m
            (tally,) = _scan_numpy(3, 3, [(fixed, 27 * m, 27 * m + 27)], True)
            assert (tally.count > 0) == (rank[m] >= rank[index[fixed]] and least)


def test_cyclic_forms_recheck():
    report = cyclic_extremal_search(4, 2)
    assert report.max_sw <= 7  # cannot beat the overall binary n=4 maximum
    for conv in IsoConvention:
        for dfa in report.forms[conv]:
            assert min_switch_count(dfa) == report.max_sw


def test_search_guards(monkeypatch):
    # each call is refused by its own guard, before the class walk: five
    # need long=True
    monkeypatch.setattr(search, "_classes", lambda n: pytest.fail("classes made"))
    threshold = "exceed the quick-search threshold"
    with pytest.raises(ValueError, match=threshold):
        extremal_search(7, 2)
    with pytest.raises(ValueError, match=threshold):
        extremal_search(5, 3)
    # the class list of [9]^9 marks 9^9 maps, so n=9 needs long=True even for k=1
    with pytest.raises(ValueError, match=threshold):
        extremal_search(9, 1)
    with pytest.raises(ValueError, match="beyond 9 states"):
        extremal_search(10, 2)
    with pytest.raises(ValueError, match=threshold):
        cyclic_extremal_search(9, 2)
    # the cyclic search takes any k >= 1: 5^15 tables need long=True
    with pytest.raises(ValueError, match=threshold):
        cyclic_extremal_search(5, 4)
    with pytest.raises(ValueError, match="needs k >= 1"):
        cyclic_extremal_search(5, 0)
    # 2^64 and 3^63 tables per symbol-0 map overflow the scan's int64 index
    with pytest.raises(ValueError, match="64-bit index"):
        extremal_search(2, 33, long=True)
    with pytest.raises(ValueError, match="64-bit index"):
        cyclic_extremal_search(3, 22, long=True)
    # a worker count below 1 is refused before the n=8 class list is made
    with pytest.raises(ValueError, match="at least one worker"):
        extremal_search(8, 1, parallelism=0)


def test_rank_table_is_built_before_the_pool(monkeypatch, inline_pool):
    # the class walk runs once, in the caller before the pool starts, so
    # forked workers inherit the rank table; the cyclic search never walks
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    classes, built = search._classes, []
    classes.cache_clear()
    imap_unordered = search.Pool.imap_unordered

    def record(fn, jobs):
        built.append(classes.cache_info().currsize)
        return imap_unordered(fn, jobs)

    monkeypatch.setattr(search.Pool, "imap_unordered", staticmethod(record))
    assert extremal_search(4, 2, parallelism=2).workers == 2
    assert built == [1] and classes.cache_info().misses == 1
    monkeypatch.setattr(search, "_classes", lambda n: pytest.fail("classes made"))
    assert cyclic_extremal_search(4, 2, parallelism=2).workers == 2


_TIMED = search._timed


def _timed_logging_rank(job):
    """`search._timed`, first logging the job's function, this process's
    pid and whether it holds the class tables (pickled by reference, so a
    pool job logs in its worker)."""
    with open(os.environ["RANK_LOG"], "a") as log:
        log.write(f"{job[0].__name__} {os.getpid()} {search._classes.cache_info().currsize}\n")
    return _TIMED(job)


def test_pool_workers_inherit_the_rank_table(monkeypatch, tmp_path):
    # forkserver, the default start method on Linux from Python 3.14, makes
    # every worker import the package afresh and redo the class walk; the
    # pool forks where the platform can, whatever the default, so only the
    # caller walks
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    log = tmp_path / "ranks.log"
    classes = search._classes

    @lru_cache(maxsize=8)
    def logged_classes(n):
        with open(log, "a") as out:
            out.write(f"build {os.getpid()} 0\n")
        return classes.__wrapped__(n)

    monkeypatch.setenv("RANK_LOG", str(log))
    monkeypatch.setattr(search, "_classes", logged_classes)
    monkeypatch.setattr(search, "_timed", _timed_logging_rank)
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        report = extremal_search(4, 2, parallelism=2)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert report.workers == 2 and report.max_sw == 7
    lines = [line.split() for line in log.read_text().splitlines()]
    assert [pid for what, pid, _ in lines if what == "build"] == [str(os.getpid())]
    scans = [(pid, held) for what, pid, held in lines if what == "_scan_numpy"]
    assert scans and all(pid != str(os.getpid()) and held == "1" for pid, held in scans)


def test_format_report():
    # every header field but the timing, for a binary and a cyclic space,
    # and for cyclic (3,1), whose one table is a permutation: no table
    # synchronizes, so there is no maximum and no form block
    for report, header in [
        (extremal_search(3),
         "n=3 k=2 scanned=729 max_sw=3 forms=6 convention=states+symbols forms_states_only=12"),
        (cyclic_extremal_search(5, 2),
         "n=5 k=2 scanned=3125 max_sw=7 forms=112 convention=states+symbols forms_states_only=112"),
        (cyclic_extremal_search(3, 1),
         "n=3 k=1 scanned=1 max_sw=none forms=0 convention=states+symbols forms_states_only=0"),
    ]:
        text = format_report(report)
        fields = [f for f in text.splitlines()[0].split() if not f.startswith(("worker_s=", "wall_s="))]
        assert fields == header.split() + ["workers=1"]
        assert text.count("# extremal form") == report.form_count()
        assert "# warning" not in text


def test_format_report_truncation_warning(monkeypatch):
    monkeypatch.setattr(search, "_COLLECT_CAP", 1)
    report = extremal_search(3)
    assert not report.complete
    lines = format_report(report).splitlines()
    assert lines[1] == "# warning: extremal collection was truncated"


def test_progress_lines():
    lines = []
    extremal_search(3, progress=lines.append)
    # one shard for each of the 7 symbol-0 maps, named on its line
    reps = search._classes(3)[0]
    assert sorted(line.split()[1] for line in lines) == sorted("a=" + ",".join(map(str, f)) for f in reps)
    assert all(line.startswith("SHARD a=") and " [0,27) DONE max=" in line for line in lines)
    fields = [dict(f.split("=") for f in line.split() if "=" in f) for line in lines]
    assert all("forms" not in f and float(f["tables_per_s"]) > 0 for f in fields)
    # of the 729 binary 3-state tables, 36 have two permutation symbols,
    # and 144 of the rest do not synchronize (the pair criterion agrees);
    # each map's counts are weighted by its class size
    assert sum(int(f["injective"]) for f in fields) == 36
    nonsync = sum(1 for i in range(3 ** 6) if not is_synchronizing(Dfa(decode_table(3, 2, i))))
    assert sum(int(f["nonsync"]) for f in fields) == nonsync - 36 == 144


@pytest.mark.parametrize("n, k", [(4, 2), (3, 3)])
def test_cyclic_progress_counts(monkeypatch, n, k):
    # each shard weights its orbit representatives by their orbit sizes,
    # so the sums count every cyclic table of the space; the pool path
    # splits it into 8 shards per worker
    monkeypatch.setattr(search, "POOL_GRAIN", 0)
    lines = []
    cyclic_extremal_search(n, k, parallelism=2, progress=lines.append)
    assert len(lines) == 16
    fields = [dict(f.split("=") for f in line.split() if "=" in f) for line in lines]
    tables = [Dfa(_table(_cycle(n), k, i)) for i in range(n ** (n * (k - 1)))]
    injective = sum(all(len(set(col)) == n for col in zip(*d.rows)) for d in tables)
    nonsync = sum(not is_synchronizing(d) for d in tables) - injective
    assert sum(int(f["injective"]) for f in fields) == injective
    assert sum(int(f["nonsync"]) for f in fields) == nonsync


def _form(dfa, conv):
    """The canonical form under `conv`: `canonical_form` for STATES_AND_SYMBOLS,
    the searches' STATES_ONLY form otherwise."""
    if conv is IsoConvention.STATES_AND_SYMBOLS:
        return canonical_form(dfa)
    (rows,) = search._canonical_tables(dfa.n, dfa.k, [dfa.rows])[conv]
    return Dfa(rows)


@pytest.mark.parametrize("conv", list(IsoConvention))
def test_canonical_form_matches_reference(conv):
    rng = random.Random(4)
    for _ in range(120):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        dfa = Dfa([[rng.randrange(n) for _ in range(k)] for _ in range(n)])
        assert _form(dfa, conv) == brute_canonical_form(dfa, conv)


def test_canonical_form_matches_reference_n8_k3():
    rng = random.Random(8)
    dfa = Dfa([[rng.randrange(8) for _ in range(3)] for _ in range(8)])
    for conv in IsoConvention:
        assert _form(dfa, conv) == brute_canonical_form(dfa, conv)


@pytest.mark.parametrize("n, k, cyclic", [
    (3, 2, False), (2, 3, False), (2, 4, False), (3, 3, False), (5, 2, True), (3, 4, True), (2, 5, True),
])
def test_search_forms_match_reference(n, k, cyclic):
    maps = [_cycle(n)] if cyclic else product(range(n), repeat=n)
    runs = [_scan_reference(n, k, 0, n ** (n * (k - 1)), f) for f in maps]
    max_sw = max(sw for sw, _ in runs)
    tables = [rows for sw, found in runs if sw == max_sw for rows in found]
    report = (cyclic_extremal_search if cyclic else extremal_search)(n, k)
    assert report.max_sw == max_sw
    for conv in IsoConvention:
        expected = {brute_canonical_form(Dfa(rows), conv) for rows in tables}
        assert report.forms[conv] == expected


# ---------------------------------------------------------------------------
# The batch kernel against the scalar engine and a pinned histogram
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, k, cyclic", [
    (5, 2, False), (6, 2, False), (7, 2, False), (4, 3, False),
    (6, 2, True), (7, 2, True), (4, 3, True),
])
def test_kernel_matches_scalar_engine(n, k, cyclic):
    # symbol 0 is the n-cycle, or a random permutation and three random
    # maps with 50 tables each
    rng = np.random.default_rng(n * 10 + k + cyclic)
    cycle = np.roll(np.arange(n, dtype=np.int16), -1)
    maps = [cycle] if cyclic else [rng.permutation(n).astype(np.int16)] + list(
        rng.integers(0, n, size=(3, n), dtype=np.int16))
    got, expected = [], []
    for fixed in maps:
        free = rng.integers(0, n, size=(200 // len(maps), n, k - 1), dtype=np.int16)
        sw, injective = search._switch_counts_batch(n, _with_symbol0(fixed, free))
        got += zip(sw.tolist(), injective.tolist())
        for cols in free.tolist():
            rows = [[int(fixed[q])] + cols[q] for q in range(n)]
            perm = all(len(set(col)) == n for col in zip(*rows))
            try:
                expected.append((min_switch_count(Dfa(rows)), perm))
            except NotSynchronizingError:
                expected.append((-1, perm))
    assert got == expected
    assert min(expected)[0] == -1 and max(expected)[0] >= 3


def test_kernel_histogram_all_binary_n4():
    # every binary 4-state table: each of the 256 columns as symbol 0,
    # beside all 256 columns as symbol 1
    cols = np.array(list(product(range(4), repeat=4)), dtype=np.int16)
    counts, injective = Counter(), 0
    for col in cols:
        sw, inj = search._switch_counts_batch(4, _with_symbol0(col, cols[:, :, None]))
        counts.update(sw.tolist())
        injective += int(inj.sum())
    assert dict(counts) == {
        -1: 14016, 1: 28672, 2: 9216, 3: 10224, 4: 1488, 5: 1824, 7: 96,
    }
    assert injective == 576  # (4!)**2 tables with two permutation symbols


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_split_candidates_match(monkeypatch, k):
    # a budget below one table's 8! candidates makes every table split its
    # permutations into uneven pieces; the forms must not change
    rng = random.Random(80 + k)
    tables = [tuple(tuple(rng.randrange(8) for _ in range(k)) for _ in range(8)) for _ in range(3)]
    whole = search._canonical_tables(8, k, tables)
    monkeypatch.setattr(search, "_CANONICAL_BUDGET", 3001 * 8 * k)
    assert search._canonical_tables(8, k, tables) == whole


@pytest.mark.parametrize("n, k, count", [(6, 4, 4), (5, 5, 4), (7, 3, 4), (1, 3, 2), (1, 1, 1), (5, 1, 6)])
def test_canonical_key_blocks_match_reference(n, k, count):
    # at (6,4), (5,5) and (7,3) a candidate's n*k base-n digits pass 2^53,
    # so its key is two blocks of rows, the second scored only on the
    # permutations that tie on the first; n = 1 has the one key 0, and
    # k = 1 one symbol order.  The tables share one batch, so a
    # permutation that ties for one (table, symbol order) row is scored
    # on every row.
    rng = random.Random(n * 100 + k)
    dfas = [Dfa([[rng.randrange(n) for _ in range(k)] for _ in range(n)]) for _ in range(count)]
    forms = search._canonical_tables(n, k, [d.rows for d in dfas])
    for conv in IsoConvention:
        assert forms[conv] == {brute_canonical_form(d, conv).rows for d in dfas}


@pytest.mark.parametrize("n", range(1, 10))
def test_perm_arrays_are_lexicographic(n):
    perms, ranks = search._perm_arrays(n)
    assert perms.dtype == ranks.dtype == np.uint8
    assert np.array_equal(perms, np.array(list(permutations(range(n)))))
    assert perms[0].tolist() == list(range(n))
    assert (np.take_along_axis(perms, ranks.astype(np.intp), axis=1) == np.arange(n)).all()


def test_relabeling_bound(monkeypatch):
    # 9! 3! relabelings is the largest size canonicalized; 7! 7! is refused
    # before anything is built, by canonical_form and by both searches
    for name in ("_perm_arrays", "_classes", "_search"):
        monkeypatch.setattr(search, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    search._refuse_many_relabelings(9, 3)
    search._refuse_many_relabelings(3, 9)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="relabelings"):
        canonical_form(p_variant(7))
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="relabelings"):
        extremal_search(2, 10)
    with pytest.raises(ValueError, match="relabelings"):
        cyclic_extremal_search(2, 13)
