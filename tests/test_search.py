import dataclasses
import random

import numpy as np
import pytest

from oracles import brute_canonical_form
from syncswitch import search
from syncswitch.automaton import Dfa, IsoConvention
from syncswitch.search import (
    SearchSpaceError,
    canonical_form,
    cyclic_extremal_search,
    decode_table,
    empty_report,
    encode_table,
    extremal_search,
    format_report,
    merge_reports,
    shard_space,
    _scan_numpy,
)
from syncswitch.synchro import (
    NotSynchronizingError,
    is_synchronizing,
    min_switch_count,
    shortest_sync_length,
)


def _cyclic_table(n: int, k: int, index: int):
    """The cyclic table of an index: the n-cycle, then the k-1 free columns."""
    free = decode_table(n, k - 1, index)
    return tuple(((q + 1) % n,) + free[q] for q in range(n))


def _rotations(rows):
    """The conjugates of a table under the n rotations q -> q + j, which
    commute with the n-cycle: row q moves to q + j, every target gains j."""
    n = len(rows)
    return {tuple(tuple((t + j) % n for t in rows[(q - j) % n]) for q in range(n)) for j in range(n)}


def _scan_reference(n: int, k: int, lo: int, hi: int, cyclic: bool = False):
    """Plain-Python scan of an index range, one table at a time, with the
    scalar engines; returns (max_sw, tables, scanned) like `_scan_numpy`,
    but `tables` holds every extremal table, not orbit representatives."""
    best = -1
    tables: list[tuple[tuple[int, ...], ...]] = []
    for index in range(lo, hi):
        rows = _cyclic_table(n, k, index) if cyclic else decode_table(n, k, index)
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


def test_decode_encode_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, 3)
        index = rng.randrange(n ** (n * k))
        rows = decode_table(n, k, index)
        assert encode_table(n, k, rows) == index
        assert len(rows) == n and all(len(r) == k for r in rows)


def test_shard_space_partitions():
    for total in (3 ** 6, 5 ** 5, 3):
        shards = shard_space(total, 5)
        assert len(shards) == 5
        assert shards[0][0] == 0 and shards[-1][1] == total
        assert sum(hi - lo for lo, hi in shards) == total
        for a, b in zip(shards, shards[1:]):
            assert a[1] == b[0] and a[0] <= a[1]
    with pytest.raises(ValueError):
        shard_space(3 ** 6, 0)
    with pytest.raises(ValueError):
        extremal_search(3, shards=0)
    with pytest.raises(ValueError, match="at least one worker"):
        extremal_search(3, parallelism=0)


def test_engines_agree_exhaustively_small():
    for n in (2, 3):
        ref = _scan_reference(n, 2, 0, n ** (2 * n))
        fast = _scan_numpy(n, 2, 0, n ** (2 * n))
        assert ref[0] == fast[0]
        assert sorted(ref[1]) == sorted(fast[1])


def test_engines_agree_on_n4_slice():
    lo, hi = 20_000, 26_000
    ref = _scan_reference(4, 2, lo, hi)
    fast = _scan_numpy(4, 2, lo, hi)
    assert ref[0] == fast[0]
    assert sorted(ref[1]) == sorted(fast[1])


def test_engines_agree_cyclic():
    # the scan keeps one extremal table per rotation orbit; the orbits of
    # the kept tables are disjoint and together hold every extremal table
    for n, k in [(4, 2), (3, 3), (5, 2)]:
        total = n ** (n * (k - 1))
        ref = _scan_reference(n, k, 0, total, cyclic=True)
        fast = _scan_numpy(n, k, 0, total, fixed=tuple((q + 1) % n for q in range(n)))
        assert ref[0] == fast[0]
        orbits = [_rotations(rows) for rows in fast[1]]
        closure = set().union(*orbits)
        assert sum(map(len, orbits)) == len(closure)
        assert closure == set(ref[1])
        assert fast[2] == total


def test_extremal_n2_and_n3():
    r2 = extremal_search(2)
    assert r2.max_sw == 1 and r2.scanned == 16
    r3 = extremal_search(3)
    assert r3.max_sw == 3
    assert r3.form_count(IsoConvention.STATES_AND_SYMBOLS) == 6
    assert r3.scanned == 729


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


def test_merge_reports():
    r3 = extremal_search(3)
    empty = empty_report(3, 2)
    assert merge_reports(r3, empty).forms == r3.forms
    sharded = extremal_search(3, shards=2)
    assert sharded.forms == r3.forms and sharded.max_sw == r3.max_sw
    assert sharded.scanned == r3.scanned
    with pytest.raises(ValueError):
        merge_reports(r3, empty_report(4, 2))


def test_merge_completeness_follows_the_winner():
    full = extremal_search(3)
    lost = dataclasses.replace(empty_report(3, 2), max_sw=2, complete=False)
    assert merge_reports(full, lost).complete and merge_reports(lost, full).complete
    tied = dataclasses.replace(full, complete=False)
    assert not merge_reports(full, tied).complete
    assert not merge_reports(tied, full).complete


def test_truncation_resets_when_the_maximum_rises(monkeypatch):
    # chunks of 8 tables: the second and the third each hold one table
    # with switch count 2, two in all, over the cap; the fourth holds the
    # only table with 3
    monkeypatch.setattr(search, "_COLLECT_CAP", 1)
    max_sw, tables, scanned, truncated, *_ = _scan_numpy(3, 2, 0, 32, chunk=8)
    assert (max_sw, len(tables), scanned, truncated) == (3, 1, 32, False)


def test_merge_commutative():
    from syncswitch.search import _scan_worker, _report_from_scan

    parts = []
    total = 3 ** 6
    for lo, hi in [(0, total // 2), (total // 2, total)]:
        max_sw, forms, scanned, trunc, elapsed, *_ = _scan_worker((3, 2, lo, hi, None))
        parts.append(_report_from_scan(3, 2, max_sw, forms, scanned, elapsed, trunc))
    ab = merge_reports(parts[0], parts[1])
    ba = merge_reports(parts[1], parts[0])
    assert ab.max_sw == ba.max_sw and ab.forms == ba.forms and ab.scanned == ba.scanned
    full = extremal_search(3)
    assert ab.max_sw == full.max_sw and ab.forms == full.forms


def test_cyclic_small():
    r = cyclic_extremal_search(3, 3)
    assert r.max_sw == 3
    r = cyclic_extremal_search(5, 2)
    assert r.max_sw == 7
    assert r.scanned == 5 ** 5


@pytest.mark.parametrize("n, k", [(5, 2), (4, 3)])
def test_cyclic_shards_agree(n, k):
    one = cyclic_extremal_search(n, k, shards=1)
    seven = cyclic_extremal_search(n, k, shards=7)
    assert (seven.max_sw, seven.scanned, seven.complete) == (one.max_sw, one.scanned, one.complete)
    assert seven.forms == one.forms


def test_cyclic_forms_recheck():
    report = cyclic_extremal_search(4, 2)
    assert report.max_sw <= 7  # cannot beat the overall binary n=4 maximum
    for conv in IsoConvention:
        for dfa in report.forms[conv]:
            assert min_switch_count(dfa) == report.max_sw


def test_search_guards():
    # each call is refused by its own guard: three need long=True
    threshold = "exceed the quick-search threshold"
    with pytest.raises(SearchSpaceError, match=threshold):
        extremal_search(7, 2)
    with pytest.raises(SearchSpaceError, match=threshold):
        extremal_search(6, 2)
    with pytest.raises(SearchSpaceError, match="beyond 9 states"):
        extremal_search(10, 2)
    with pytest.raises(SearchSpaceError, match=threshold):
        cyclic_extremal_search(9, 2)
    with pytest.raises(SearchSpaceError, match=r"k in \{2, 3\}"):
        cyclic_extremal_search(5, 4)


def test_format_report():
    # every header field but the timing, for a binary and a cyclic space
    for report, header in [
        (extremal_search(3),
         "n=3 k=2 scanned=729 max_sw=3 forms=6 convention=states+symbols forms_states_only=12"),
        (cyclic_extremal_search(5, 2),
         "n=5 k=2 scanned=3125 max_sw=7 forms=112 convention=states+symbols forms_states_only=112"),
    ]:
        text = format_report(report)
        fields = [f for f in text.splitlines()[0].split() if not f.startswith("worker_s=")]
        assert fields == header.split()
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
    extremal_search(3, shards=4, progress=lines.append)
    assert len(lines) == 4
    assert all(line.startswith("SHARD [") and "DONE max=" in line for line in lines)
    fields = [dict(f.split("=") for f in line.split() if "=" in f) for line in lines]
    assert all(float(f["tables_per_s"]) > 0 for f in fields)
    # of the 729 binary 3-state tables, 36 have two permutation symbols,
    # and 144 of the rest do not synchronize (the pair criterion agrees)
    assert sum(int(f["injective"]) for f in fields) == 36
    nonsync = sum(1 for i in range(3 ** 6) if not is_synchronizing(Dfa(decode_table(3, 2, i))))
    assert sum(int(f["nonsync"]) for f in fields) == nonsync - 36 == 144


@pytest.mark.parametrize("n, k", [(4, 2), (3, 3)])
def test_cyclic_progress_counts(n, k):
    # each shard weights its orbit representatives by their orbit sizes,
    # so the sums count every cyclic table of the space
    lines = []
    cyclic_extremal_search(n, k, shards=5, progress=lines.append)
    assert len(lines) == 5
    fields = [dict(f.split("=") for f in line.split() if "=" in f) for line in lines]
    tables = [Dfa(_cyclic_table(n, k, i)) for i in range(n ** (n * (k - 1)))]
    injective = sum(all(len(set(col)) == n for col in zip(*d.rows)) for d in tables)
    nonsync = sum(not is_synchronizing(d) for d in tables) - injective
    assert sum(int(f["injective"]) for f in fields) == injective
    assert sum(int(f["nonsync"]) for f in fields) == nonsync


@pytest.mark.parametrize("conv", list(IsoConvention))
def test_canonical_form_matches_reference(conv):
    rng = random.Random(4)
    for _ in range(120):
        n, k = rng.randint(1, 6), rng.randint(1, 3)
        dfa = Dfa([[rng.randrange(n) for _ in range(k)] for _ in range(n)])
        assert canonical_form(dfa, conv) == brute_canonical_form(dfa, conv)


def test_canonical_form_matches_reference_n8_k3():
    rng = random.Random(8)
    dfa = Dfa([[rng.randrange(8) for _ in range(3)] for _ in range(8)])
    for conv in IsoConvention:
        assert canonical_form(dfa, conv) == brute_canonical_form(dfa, conv)


@pytest.mark.parametrize("n, k, cyclic", [(3, 2, False), (5, 2, True)])
def test_search_forms_match_reference(n, k, cyclic):
    total = n ** (n * (k - 1 if cyclic else k))
    max_sw, tables, _ = _scan_reference(n, k, 0, total, cyclic)
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
    rng = np.random.default_rng(n * 10 + k + cyclic)
    fixed = np.roll(np.arange(n, dtype=np.int16), -1) if cyclic else None
    free = rng.integers(0, n, size=(200, n, k - 1 if cyclic else k), dtype=np.int16)
    sw, injective = search._switch_counts_batch(n, free, fixed)
    expected, perms = [], []
    for cols in free.tolist():
        rows = [([int(fixed[q])] if cyclic else []) + cols[q] for q in range(n)]
        perms.append(all(len(set(col)) == n for col in zip(*rows)))
        try:
            expected.append(min_switch_count(Dfa(rows)))
        except NotSynchronizingError:
            expected.append(-1)
    assert sw.tolist() == expected
    assert injective.tolist() == perms
    assert -1 in expected and max(expected) >= 3


def test_kernel_histogram_all_binary_n4():
    index = np.arange(4 ** 8)
    digits = np.stack([(index // 4 ** (7 - pos)) % 4 for pos in range(8)], axis=1)
    sw, injective = search._switch_counts_batch(4, digits.astype(np.int16).reshape(-1, 4, 2))
    counts = dict(zip(*np.unique(sw, return_counts=True)))
    assert {int(v): int(c) for v, c in counts.items()} == {
        -1: 14016, 1: 28672, 2: 9216, 3: 10224, 4: 1488, 5: 1824, 7: 96,
    }
    assert injective.sum() == 576  # (4!)**2 tables with two permutation symbols


@pytest.mark.parametrize("k", [2, 3])
def test_canonical_split_candidates_match(monkeypatch, k):
    # a budget below one table's 8! candidates makes every table split its
    # permutations into uneven pieces; the forms must not change
    rng = random.Random(80 + k)
    tables = [tuple(tuple(rng.randrange(8) for _ in range(k)) for _ in range(8)) for _ in range(3)]
    whole = search._canonical_tables(8, k, tables)
    monkeypatch.setattr(search, "_CANONICAL_BUDGET", 3001 * 8 * k)
    assert search._canonical_tables(8, k, tables) == whole
