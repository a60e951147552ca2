import random
from collections import deque
from itertools import product

import pytest

from syncswitch import analysis
from syncswitch.analysis import (
    _closure,
    _walk,
    canonical_word,
    distance_context,
    measure,
    min_sc_pair_increase,
    pair_increase_bound,
    verify_lemmas,
)
from syncswitch.automaton import apply_set, full_set, is_singleton, set_members, state_set, union_table
from syncswitch.families import a_family, b_family, negate_index, s_set, signed_to_index
from syncswitch.synchro import min_switch_count


@pytest.fixture(scope="module")
def ctx6():
    return distance_context(6)


def distance(ctx, p, q):
    """`distance_by_index` on signed state labels."""
    return ctx.distance_by_index(signed_to_index(p, ctx.n), signed_to_index(q, ctx.n))


def _distances_by_definition(ctx):
    """Reference for `distance_by_index`, walking ab on ctx.dfa straight from
    the definition: on S, d(p, q) is the least k >= 1 with
    p(ab)^(n/3+k) = q(ab)^(n/3); on -S, d(p, q) = d(-q, -p).  Returns
    {(p, q): d} over every pair of S and every pair of -S."""
    n = ctx.n
    rows = ctx.dfa.rows

    def ab(q, times):
        for _ in range(times):
            q = rows[rows[q][0]][1]
        return q

    s_members = set_members(s_set(n))
    table = {}
    for p in s_members:
        for q in s_members:
            here, goal = ab(p, n // 3), ab(q, n // 3)
            for k in range(1, 2 * n + 1):
                here = ab(here, 1)
                if here == goal:
                    table[p, q] = k
                    table[negate_index(q, n), negate_index(p, n)] = k
                    break
            else:
                raise AssertionError(f"{q}(ab)^(n/3) is not on the ab-orbit of {p}")
    return table


@pytest.mark.parametrize("n", range(6, 61, 6))
def test_cycle_matches_paper_labels(n):
    # C, walked along ab from state 2, is the paper's even positives 2..n
    # plus odd negatives -1..-(n/3-1)
    labels = list(range(2, n + 1, 2)) + [-q for q in range(1, n // 3, 2)]
    ctx = distance_context(n)
    assert ctx.c_bits == state_set(signed_to_index(q, n) for q in labels)
    assert len(labels) == ctx.cycle_len


def test_distance_examples(ctx6):
    n = 6
    for q in (2, 4, 6, -1, -3, -5):
        assert distance(ctx6, q, q) == 4
    assert distance(ctx6, 6, -1) == 1
    assert distance(ctx6, -1, 6) == 3


@pytest.mark.parametrize("n", [6, 12, 18, 24])
def test_distance_matches_definition(n):
    ctx = distance_context(n)
    table = _distances_by_definition(ctx)
    assert len(table) == 2 * n * n
    assert {pair: ctx.distance_by_index(*pair) for pair in table} == table


def test_distance_antisymmetry(ctx6):
    table = _distances_by_definition(ctx6)
    members = [2, 4, 6, -1, -3, -5]
    for p in members:
        for q in members:
            if table[signed_to_index(p, 6), signed_to_index(q, 6)] == 4:
                continue  # one projection
            assert distance(ctx6, p, q) + distance(ctx6, q, p) == 4
            assert 0 < distance(ctx6, p, q) < 4


def test_distance_negative_class(ctx6):
    # d(p, q) = d(-q, -p) for arguments in -S
    assert distance(ctx6, -2, -6) == distance(ctx6, 6, 2)


def test_distance_mixed_class_rejected(ctx6):
    with pytest.raises(ValueError):
        distance(ctx6, 2, -2)


def test_measure_examples(ctx6):
    assert measure(ctx6, ctx6.s_bits) == 1
    assert measure(ctx6, 1 << signed_to_index(2, 6)) == 4
    pair = state_set([signed_to_index(-1, 6), signed_to_index(6, 6)])
    assert measure(ctx6, pair) == 3


def test_measure_negation_invariance(ctx6):
    rng = random.Random(2)
    members = set_members(ctx6.s_bits)
    for _ in range(40):
        sample = rng.sample(members, rng.randint(1, len(members)))
        bits = state_set(sample)
        neg = state_set(negate_index(i, 6) for i in sample)
        assert measure(ctx6, bits) == measure(ctx6, neg)


def _measure_by_pairs(table, bits):
    """Reference for `measure`, the max-min over pairs of members of the
    distances in `table` (from `_distances_by_definition`)."""
    members = set_members(bits)
    return max(min(table[i, j] for j in members) for i in members)


def test_measure_matches_pairwise_definition(ctx6):
    table = _distances_by_definition(ctx6)
    s_members = set_members(ctx6.s_bits)
    for bits in union_table(1 << q for q in s_members)[1:]:
        assert measure(ctx6, bits) == _measure_by_pairs(table, bits)
    for n in (12, 18):
        ctx = distance_context(n)
        table = _distances_by_definition(ctx)
        rng = random.Random(n)
        s_members = set_members(ctx.s_bits)
        for _ in range(2000):
            sample = rng.sample(s_members, rng.randint(1, len(s_members)))
            for bits in (state_set(sample), state_set(negate_index(i, n) for i in sample)):
                assert measure(ctx, bits) == _measure_by_pairs(table, bits)
        # S and -S whole, and every singleton: at n = 18 the 36 states fill 3 slices
        for bits in [ctx.s_bits, ctx.neg_s_bits] + [1 << i for i in range(2 * n)]:
            assert measure(ctx, bits) == _measure_by_pairs(table, bits)


def test_measure_errors(ctx6):
    with pytest.raises(ValueError):
        measure(ctx6, 0)
    mixed = (1 << signed_to_index(2, 6)) | (1 << signed_to_index(1, 6))
    with pytest.raises(ValueError):
        measure(ctx6, mixed)


def test_pair_increase_frozen_values(ctx6):
    assert min_sc_pair_increase(ctx6, 2) == 7
    assert min_sc_pair_increase(ctx6, 3) == 7
    ctx12 = distance_context(12)
    assert min_sc_pair_increase(ctx12, 4) == 15


def _pair_increase_by_01_bfs(ctx, k):
    """Reference for `min_sc_pair_increase`: a 0/1 BFS over (ordered pair,
    last symbol) nodes, where a symbol that repeats the last one costs no
    switch; the goal test d(p, q) = k+1 runs on each node as it is popped."""
    cl = ctx.cycle_len
    n2 = 2 * ctx.n
    rows = ctx.dfa.rows
    width = 3  # last symbol: 0 = none, 1 = a, 2 = b
    d = ctx.distance_by_index
    c_members = set_members(ctx.c_bits)
    dist = {}
    dq = deque()
    for p in c_members:
        for q in c_members:
            if p != q and d(p, q) <= k - 1 and (k < cl - 1 or d(p, q) == k - 1):
                node = (p * n2 + q) * width
                dist[node] = 0
                dq.append((0, node))
    while dq:
        cost, node = dq.popleft()
        if dist.get(node) != cost:
            continue
        pq, last = divmod(node, width)
        p, q = divmod(pq, n2)
        if d(p, q) == k + 1:
            return cost
        for s in range(2):
            nc = cost if last == s + 1 else cost + 1
            t = (rows[p][s] * n2 + rows[q][s]) * width + s + 1
            if t not in dist or nc < dist[t]:
                dist[t] = nc
                if nc == cost:
                    dq.appendleft((nc, t))
                else:
                    dq.append((nc, t))
    return None


@pytest.mark.parametrize("n", [6, 12, 18, 24])
def test_pair_increase_matches_01_bfs(n):
    ctx = distance_context(n)
    for k in range(2, ctx.cycle_len):
        assert min_sc_pair_increase(ctx, k) == _pair_increase_by_01_bfs(ctx, k)


def test_pair_increase_closed_form(ctx6):
    for k in range(2, 4):
        assert min_sc_pair_increase(ctx6, k) == pair_increase_bound(6, k)
    with pytest.raises(ValueError):
        min_sc_pair_increase(ctx6, 1)
    with pytest.raises(ValueError):
        min_sc_pair_increase(ctx6, 4)


def test_canonical_word_6():
    w = canonical_word(6)
    assert w.letters().startswith("bab")
    assert w.switch_count == 15
    a6 = a_family(6)
    assert is_singleton(apply_set(a6, full_set(6), w))
    assert min_switch_count(a6) == 15


def test_canonical_word_12():
    assert canonical_word(12).switch_count == 79


def test_canonical_word_preconditions():
    for bad in (4, 7, 9):
        with pytest.raises(ValueError):
            canonical_word(bad)
    with pytest.raises(ValueError):
        distance_context(9)


def test_verify_lemmas_passes():
    report = verify_lemmas(6)
    assert report.all_pass, report.to_text()
    assert {c.lemma for c in report.checks} == {"L1", "L2", "L3", "L6", "L7", "L-setpair"}


def test_report_text_format():
    report = verify_lemmas(6)
    lines = report.to_text().strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        parts = line.split()
        assert parts[0] == "LEMMA" and parts[2] in ("PASS", "FAIL")


def test_setpair_statement_needs_cycle_scope(ctx6):
    """The set-pair statement fails on general subsets of S.

    A = {4, -1, -5} with w = aabbabbabbb has mu(A) = mu(Aw) = 2, but no pair
    at distance <= 2 maps to a pair at distance 2: the member -5 is
    projection-equivalent to the top state 6, so its distance to 4 jumps
    through the exceptional case.  Restricted to subsets of the cycle this
    cannot happen, which is the scope `verify_lemmas` checks.
    """
    n = 6
    dfa = ctx6.dfa
    bits = state_set(signed_to_index(q, n) for q in (4, -1, -5))
    word = [0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 1]
    image_of = {
        p: apply_set(dfa, 1 << p, word).bit_length() - 1 for p in set_members(bits)
    }
    mu_a = measure(ctx6, bits)
    mu_w = measure(ctx6, apply_set(dfa, bits, word))
    assert mu_a == mu_w == 2
    witnesses = [
        (p, q)
        for p in image_of
        for q in image_of
        if ctx6.distance_by_index(p, q) <= mu_a
        and ctx6.distance_by_index(image_of[p], image_of[q]) == mu_w
    ]
    assert witnesses == []


def _reachable_sets(dfa, start_bits, max_depth):
    """Reference for L1: the images of one start set under words of length
    <= max_depth, by its own breadth-first search."""
    seen = {start_bits}
    frontier = [start_bits]
    for _ in range(max_depth):
        nxt = []
        for bits in frontier:
            for s in range(dfa.k):
                img = apply_set(dfa, bits, (s,))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def _reachable_pairs(dfa, pairs):
    """Reference for L3: every state pair reachable from the given ones."""
    seen = set(pairs)
    frontier = list(seen)
    while frontier:
        nxt = []
        for p, q in frontier:
            for s in range(dfa.k):
                pair = (dfa.rows[p][s], dfa.rows[q][s])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n, images, pairs", [(6, 62, 60), (12, 1534, 248)])
def test_closure_matches_per_start_searches(n, images, pairs):
    ctx = distance_context(n)
    dfa = ctx.dfa
    c_members = set_members(ctx.c_bits)
    pool = union_table(1 << q for q in c_members)[1:]
    # the per-start searches stop at depth 4n, the unbounded closure does
    # not: equal sets show that such a depth bound would cut nothing
    union = set().union(*(_reachable_sets(dfa, bits, 4 * n) for bits in pool))
    by_symbol = [lambda sets, s=s: [apply_set(dfa, bits, (s,)) for bits in sets] for s in range(dfa.k)]
    closed = _closure(pool, by_symbol)
    assert closed == union and len(closed) == images

    starts = [(p, q) for p in c_members for q in c_members]
    rows = dfa.rows
    by_symbol = [lambda batch, s=s: [(rows[p][s], rows[q][s]) for p, q in batch] for s in range(dfa.k)]
    closed = _closure(starts, by_symbol)
    assert closed == _reachable_pairs(dfa, starts) and len(closed) == pairs


@pytest.mark.parametrize("n", [6, 12])
def test_walk_matches_letter_by_letter(n):
    # every binary word of length 0..9, from all 2n states
    dfa = b_family(n)
    tables = [bytes(dfa.column(s)).ljust(256, b"\0") for s in range(dfa.k)]
    states = list(range(2 * n))
    for length in range(10):
        for word in product((0, 1), repeat=length):
            targets = states
            for s in word:
                targets = [dfa.rows[q][s] for q in targets]
            assert list(_walk(tables, bytes(states), list(word))) == targets


def test_closure_cap():
    with pytest.raises(ValueError, match="cap of 200,000 nodes"):
        _closure([0], [lambda xs: [x + 1 for x in xs]])


def test_verify_lemmas_refuses_before_building(monkeypatch):
    # from n = 24 on, L1's closure always passes the cap: refuse up front
    monkeypatch.setattr(analysis, "distance_context", lambda n: pytest.fail("context built"))
    monkeypatch.setattr(analysis, "_closure", lambda *args: pytest.fail("closure started"))
    for n in (24, 30):
        with pytest.raises(ValueError, match="needs n < 24"):
            verify_lemmas(n)


def test_verify_lemmas_sampled_branches():
    """At n=18 the S-subsets (2^18) exceed the sample budget, so L6 takes
    all pairs and triples of S plus random subsets, and L-setpair pads the
    subsets of C and -C with random ones; L1 still closes all 4,095 subsets
    of C.  Every line is pinned, the closure sizes behind L1 and L3 included."""
    assert verify_lemmas(18).to_text().splitlines() == [
        "LEMMA L1 PASS subsets=4095 images=32766 violations=0",
        "LEMMA L2 PASS states=18 violations=0",
        "LEMMA L3 PASS pairs=564 violations=0",
        "LEMMA L6 PASS subsets=10000 violations=0",
        "LEMMA L7 PASS raising_steps=11 violations=0",
        "LEMMA L-setpair PASS cases=10000 violations=0 scope=C,-C",
    ]
