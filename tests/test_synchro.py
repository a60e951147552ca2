import ast
import inspect
import random
import signal
from collections import defaultdict
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_best_switch_then_length,
    brute_count_shortest,
    brute_count_switch_then_length,
    brute_min_switch,
    brute_min_switch_by_runs,
    brute_shortest_length,
    enumerate_sync_words,
)
from syncswitch import synchro
from syncswitch.analysis import canonical_word
from syncswitch.automaton import Dfa, Word, apply_set, full_set, is_singleton, switch_count
from syncswitch.closure import power_closure
from syncswitch.families import (
    a_family, cerny, cyclic_counterexample, fixture, p_variant, q_family, r_family, t7_shortest_words,
)
from syncswitch.synchro import (
    NotSynchronizingError,
    Objective,
    count_optimal_words,
    is_synchronizing,
    min_switch_count,
    optimal_sync_word,
    optimal_words,
    shortest_sync_length,
    subset_images,
)

SINGLE = Dfa([[0]])
IDENTITY2 = Dfa([[0, 0], [1, 1]])


def random_dfa(rng, n, k=2):
    return Dfa([[rng.randrange(n) for _ in range(k)] for _ in range(n)])


@pytest.mark.parametrize("n", [1, 7, 8, 9, 12, 13, 16, 17, 24, 25, 36, 46])
@pytest.mark.parametrize("k", [2, 3])
def test_subset_images_match_apply_set(n, k):
    # 12 and 13 sit on each side of the 12-bit slice boundary (one table a
    # symbol up to 12 states, two slices up to 24); 25, 36 and 46 take the
    # loop over 3 and 4 slices, past the searches' bound.  From n = 24 on
    # the 2**n subsets are too many, so it takes a seeded sample plus the
    # full and empty sets
    rng = random.Random(1000 * n + k)
    dfa = random_dfa(rng, n, k)
    subsets = range(1 << n) if n < 24 else [rng.getrandbits(n) for _ in range(4000)] + [(1 << n) - 1, 0]
    images = subset_images(dfa)
    assert len(images) == k
    for s, image in enumerate(images):
        assert image(subsets) == [apply_set(dfa, v, [s]) for v in subsets]


@pytest.mark.parametrize("n", [1, 7, 12, 13, 17, 24])
@pytest.mark.parametrize("k", [1, 3])
def test_preimage_maps_match_definition(n, k):
    # the preimage of V under s is every state that s maps into V
    rng = random.Random(1000 * n + k + 7)
    dfa = random_dfa(rng, n, k)
    subsets = range(1 << n) if n < 17 else [rng.getrandbits(n) for _ in range(4000)] + [(1 << n) - 1, 0]
    maps = synchro._preimage_maps(dfa)
    assert len(maps) == k
    for s, preimage in enumerate(maps):
        assert preimage(subsets) == [
            sum(1 << p for p, row in enumerate(dfa.rows) if v >> row[s] & 1) for v in subsets
        ]


def test_scalar_optima_share_one_preimage_build():
    # ssl, sw, a word and a count of one automaton back to back build its
    # preimage maps once, both engines searching backward over them; only
    # the last automaton's are held
    synchro._preimage_maps.cache_clear()
    builds = lambda: synchro._preimage_maps.cache_info().misses  # noqa: E731
    shortest_sync_length(cerny(5))
    min_switch_count(Dfa([list(row) for row in cerny(5).rows]))
    optimal_sync_word(cerny(5), Objective.SWITCH_THEN_LENGTH)
    count_optimal_words(cerny(5), Objective.LENGTH)
    assert builds() == 1
    min_switch_count(cerny(6))
    shortest_sync_length(cerny(5))
    assert builds() == 3


def test_searches_refuse_past_24_states_before_building_tables(monkeypatch):
    # the slices cover any n: 24 states is the subset searches' own bound,
    # checked before a table is built
    def no_tables(bits):
        raise AssertionError("a refused search built a lookup table")

    monkeypatch.setattr(synchro, "union_table", no_tables)
    dfa = cerny(25)
    maps = synchro._preimage_maps.cache_info()
    calls = [shortest_sync_length, min_switch_count]
    for objective in Objective:
        calls += [lambda d, o=objective: optimal_sync_word(d, o),
                  lambda d, o=objective: count_optimal_words(d, o),
                  lambda d, o=objective: optimal_words(d, o, limit=1)]
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call(dfa)
        assert str(refused.value) == "subset search over 25 states needs 2**25 nodes; refusing"
    assert synchro._preimage_maps.cache_info() == maps
    assert is_synchronizing(dfa)


def test_is_synchronizing():
    assert is_synchronizing(cerny(4))
    assert not is_synchronizing(IDENTITY2)
    assert is_synchronizing(cyclic_counterexample())
    assert is_synchronizing(SINGLE)


def test_is_synchronizing_past_the_subset_limit():
    # the pair criterion has no state cap: an exponential search would hang here
    assert is_synchronizing(cerny(300))
    c150 = list(cerny(150).rows)
    assert not is_synchronizing(Dfa(c150 + [[t + 150 for t in row] for row in c150]))
    assert not is_synchronizing(Dfa(list(cerny(100).rows) + [[100, 100]]))  # a sink no symbol leaves
    assert is_synchronizing(a_family(100))


def test_shortest_sync_length():
    assert shortest_sync_length(cerny(4)) == 9
    assert shortest_sync_length(r_family(5)) == 16
    assert shortest_sync_length(SINGLE) == 0


def test_min_switch_count():
    assert min_switch_count(cerny(4)) == 5
    assert min_switch_count(SINGLE) == 0


# Two blocks, {0, 1} and {2, 3}, that no symbol connects.  Their searches pop
# buckets whose subsets were all expanded already, several under
# SWITCH_THEN_LENGTH, where many tags reach the same subsets.
TWO_BLOCKS3 = Dfa([[1, 0, 0], [0, 0, 1], [3, 2, 2], [2, 2, 3]])
TWO_BLOCKS4 = Dfa([[1, 0, 0, 1], [0, 0, 1, 1], [3, 2, 2, 3], [2, 2, 3, 3]])


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block, or the decorated function, once
    `seconds` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# a search that loops on buckets with nothing left to expand never runs dry:
# the time limit makes that a failure, not a hang
@time_limit(5)
def test_not_synchronizing_errors():
    for dfa in (IDENTITY2, TWO_BLOCKS3, TWO_BLOCKS4):
        assert not is_synchronizing(dfa)
        for op in (shortest_sync_length, min_switch_count):
            with pytest.raises(NotSynchronizingError):
                op(dfa)
        for objective in Objective:
            for op in (optimal_sync_word, count_optimal_words, optimal_words):
                with pytest.raises(NotSynchronizingError):
                    op(dfa, objective)
            # the search runs before the limit is applied
            with pytest.raises(NotSynchronizingError, match=r"^no singleton reachable from the full state set$"):
                optimal_words(dfa, objective, limit=0)


def test_single_state_results():
    for objective in Objective:
        res = optimal_sync_word(SINGLE, objective)
        assert res.word == Word() and res.length == res.switch == 0
    assert count_optimal_words(SINGLE, Objective.LENGTH) == 1
    assert count_optimal_words(SINGLE, Objective.SWITCH_THEN_LENGTH) == 1
    assert optimal_words(SINGLE, Objective.LENGTH) == [Word()]


def test_optimal_word_objectives_on_t8a():
    dfa = fixture("t8a")
    by_len = optimal_sync_word(dfa, Objective.LENGTH)
    assert (by_len.length, by_len.switch) == (42, 33)
    best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
    assert (best.switch, best.length) == (31, 43)
    assert best.switch == min_switch_count(dfa)
    for res in (by_len, best):
        assert is_singleton(apply_set(dfa, full_set(dfa.n), res.word))
        assert res.word.switch_count == res.switch
        assert len(res.word) == res.length


def test_optimal_words_limit():
    dfa = fixture("t7")  # three shortest words
    assert optimal_words(dfa, Objective.LENGTH, limit=0) == []
    assert optimal_words(dfa, Objective.LENGTH, limit=1) == optimal_words(dfa, Objective.LENGTH)[:1]
    # the memo holds (t7, LENGTH) from the calls above: a lookup before the
    # refusal would count a hit, a search a miss
    memo = synchro._tight_dag.cache_info()
    with pytest.raises(ValueError, match=r"^limit must be at least 0, got -1$"):
        optimal_words(dfa, Objective.LENGTH, limit=-1)
    assert synchro._tight_dag.cache_info() == memo


@pytest.fixture
def searches():
    """Reads the number of tight DAGs built since the memo was emptied."""
    synchro._tight_dag.cache_clear()
    return lambda: synchro._tight_dag.cache_info().misses


def test_word_count_and_words_share_one_search(searches):
    dfa = fixture("t7")
    words = sorted(t7_shortest_words(), key=lambda w: w.symbols)
    assert optimal_sync_word(dfa, Objective.LENGTH).word == words[0]
    assert count_optimal_words(dfa, Objective.LENGTH) == 3
    assert optimal_words(dfa, Objective.LENGTH) == words
    assert searches() == 1
    # a separately built automaton with equal rows reuses the held search
    assert count_optimal_words(Dfa([list(row) for row in dfa.rows]), Objective.LENGTH) == 3
    assert searches() == 1
    # another objective, or another automaton, builds a new one; only the
    # last pair is held
    optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
    assert searches() == 2
    optimal_sync_word(cerny(4), Objective.SWITCH_THEN_LENGTH)
    assert searches() == 3
    count_optimal_words(dfa, Objective.SWITCH_THEN_LENGTH)
    assert searches() == 4


def test_interleaved_objectives_on_r10(searches):
    # the values CI pins through separate processes, asked for here in one
    # process with the objectives alternating
    dfa = r_family(10)
    shortest = optimal_sync_word(dfa, Objective.LENGTH)
    assert count_optimal_words(dfa, Objective.SWITCH_THEN_LENGTH) == 56245430916
    assert count_optimal_words(dfa, Objective.LENGTH) == 112490861832
    best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
    assert (shortest.length, shortest.switch) == (56, 56)
    assert best.word.letters() == "abcacabcacdabcacedabcacfedabcacgfedabcachgfedacbcaacabca"
    assert (best.length, best.switch) == (56, 55)
    assert searches() == 4


def _brute_optimal_words(dfa, max_len):
    """objective -> its optimal words, sorted, from every synchronizing word
    of length <= max_len.  An objective whose optimum may lie past max_len is
    left out: LENGTH when no word that short synchronizes, and
    SWITCH_THEN_LENGTH when no word that short attains the minimal switch
    count."""
    words = list(enumerate_sync_words(dfa, max_len))
    if not words:
        return {}
    shortest = min(map(len, words))
    optima = {Objective.LENGTH: sorted(w for w in words if len(w) == shortest)}
    best = min((switch_count(w), len(w)) for w in words)
    if brute_min_switch_by_runs(dfa, best[0]) == best[0]:
        optima[Objective.SWITCH_THEN_LENGTH] = sorted(
            w for w in words if (switch_count(w), len(w)) == best
        )
    return optima


def test_optimal_words_match_brute_force():
    rng = random.Random(23)
    cases = [cyclic_counterexample()]
    while len(cases) < 40:
        dfa = random_dfa(rng, rng.choice((2, 3, 4, 4)), rng.choice((2, 3, 4)))
        if is_synchronizing(dfa):
            cases.append(dfa)
    # k = 5 over 2 or 3 states, no one letter a reset word: at most steps of
    # the walk most letters have no in-edge
    while len(cases) < 46:
        dfa = random_dfa(rng, rng.choice((2, 3)), 5)
        if is_synchronizing(dfa) and shortest_sync_length(dfa) >= 2:
            cases.append(dfa)
    checked = 0
    for dfa in cases:
        # k = 4 fills the buckets of SWITCH_THEN_LENGTH with many tags at once
        for objective, expected in _brute_optimal_words(dfa, {2: 9, 3: 7, 4: 6, 5: 6}[dfa.k]).items():
            assert [w.symbols for w in optimal_words(dfa, objective)] == expected
            checked += 1
    assert checked >= 82


@pytest.mark.parametrize("objective", list(Objective))
def test_tight_dag_in_edges(objective):
    """Every kept in-edge (s, Y) of a node X has pre_s(Y) = X and leads to
    the tag of s; every DAG node's count is the sum of its out-edge
    targets' counts (1 at the full set's nodes); and the singletons' counts
    sum to the count of optimal words."""
    rng = random.Random(31)
    subjects = [r_family(8), p_variant(8)]
    while len(subjects) < 62:
        dfa = random_dfa(rng, rng.randint(1, 8), rng.randint(1, 4))
        if is_synchronizing(dfa):
            subjects.append(dfa)
    for dfa in subjects:
        ways, edges, goals = synchro._tight_dag(dfa, objective)
        preimages = synchro._preimage_maps(dfa)
        nodes = {(cost, tag, v): count for (cost, tag), sets in ways.items() for v, count in sets.items()}
        below = defaultdict(int)  # node -> the counts of its out-edge targets, summed
        for (cost, tag, x), inbound in edges.items():
            assert (cost, tag, x) in nodes
            for s, source in inbound:
                assert preimages[s]([source[2]]) == [x]
                assert tag == (s + 1 if objective is Objective.SWITCH_THEN_LENGTH else 0)
                below[source] += nodes[cost, tag, x]
        assert set(below) <= set(nodes)
        for node, count in nodes.items():
            assert count == (1 if node in goals else below[node])
        singletons = [(v, count) for (cost, _, v), count in nodes.items() if cost == 0]
        assert all(is_singleton(v) for v, _ in singletons)
        assert sum(count for _, count in singletons) == count_optimal_words(dfa, objective)


def test_optimal_words_enumeration_matches_count():
    dfa = fixture("t7")
    found = optimal_words(dfa, Objective.LENGTH)
    assert len(found) == count_optimal_words(dfa, Objective.LENGTH) == 3
    assert found == sorted(found, key=lambda w: w.symbols)
    assert len(set(found)) == 3


def test_optimal_word_is_lexicographically_minimal():
    rng = random.Random(7)
    for _ in range(30):
        dfa = random_dfa(rng, 4)
        if not is_synchronizing(dfa):
            continue
        for objective in (Objective.LENGTH, Objective.SWITCH_THEN_LENGTH):
            res = optimal_sync_word(dfa, objective)
            all_best = optimal_words(dfa, objective)
            assert res.word == all_best[0]
            assert len(all_best) == count_optimal_words(dfa, objective)


def test_engines_subtract_sets_out_of_place():
    """`a.difference(b)` walks a; CPython's `a -= b` walks all of b whenever
    b is at most 8 times larger than a.  In the searches b is the growing
    set of seen subsets: with `-=` in the letter step, `shortest_sync_length`
    on the sparse automata of perfbench's `engines` (a_family(13),
    a_family(20), q_family(18), random n=12) took 15-50% longer on a 2-vCPU
    host."""
    tree = ast.parse(inspect.getsource(synchro))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Sub)]


def _outcome(value):
    try:
        return value()
    except NotSynchronizingError:
        return None


def test_level_search_matches_bucket_search():
    """The scalar optima (level search) against the optimal words of the
    bucket search, which tracks the first symbol of a suffix instead of
    closing runs."""
    rng = random.Random(29)
    subjects = [random_dfa(rng, rng.randint(1, 10), rng.choice((2, 3))) for _ in range(600)]
    for family, lo, step in ((cerny, 2, 1), (p_variant, 2, 1), (r_family, 5, 1), (q_family, 4, 2), (a_family, 3, 1)):
        subjects += [family(n) for n in range(lo, 15, step)]
    nonsync = 0
    for dfa in subjects:
        ssl = _outcome(lambda: shortest_sync_length(dfa))
        sw = _outcome(lambda: min_switch_count(dfa))
        assert ssl == _outcome(lambda: optimal_sync_word(dfa, Objective.LENGTH).length)
        assert sw == _outcome(lambda: optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH).switch)
        assert (ssl is None) == (sw is None) == (not is_synchronizing(dfa))
        nonsync += ssl is None
    assert 50 <= nonsync < 600


def _forward_level(dfa, runs):
    """The forward level search: the first level, counted from the full
    set over images, that holds a singleton."""
    if dfa.n == 1:
        return 0
    singletons = {1 << q for q in range(dfa.n)}
    for level, sets in synchro._levels([full_set(dfa.n)], subset_images(dfa), runs):
        if not singletons.isdisjoint(sets):
            return level
    raise NotSynchronizingError("no singleton reachable from the full state set")


def test_scalar_optima_match_forward_search_and_brute_force():
    """ssl and sw (backward from the singletons) against the forward level
    search on every automaton of a seeded corpus, n = 1..11 and k = 1..4,
    and against brute force where its word or run enumeration is cheap."""
    rng = random.Random(31)
    corpus = [random_dfa(rng, n, k) for n in range(1, 12) for k in range(1, 5) for _ in range(4)]
    corpus += [cerny(n) for n in range(2, 12)] + [a_family(n) for n in range(3, 12)]
    corpus += [IDENTITY2, TWO_BLOCKS3, TWO_BLOCKS4]
    nonsync = brute = 0
    for dfa in corpus:
        ssl, sw = _outcome(lambda: shortest_sync_length(dfa)), _outcome(lambda: min_switch_count(dfa))
        assert ssl == _outcome(lambda: _forward_level(dfa, runs=False))
        assert sw == _outcome(lambda: _forward_level(dfa, runs=True))
        assert (ssl is None) == (sw is None) == (not is_synchronizing(dfa))
        nonsync += ssl is None
        if dfa.n > 5:
            continue
        # the run sequence of a fewest-run word passes no subset twice, so
        # none synchronizing up to 2^n runs means none synchronizes at all
        assert brute_min_switch_by_runs(dfa, 1 << dfa.n) == sw
        if ssl is not None and dfa.k ** ssl <= 4096:
            assert brute_shortest_length(dfa, ssl) == ssl
            brute += 1
    assert nonsync >= 30 and brute >= 60


# ---------------------------------------------------------------------
# brute-force agreement (small automata)
# ---------------------------------------------------------------------

def test_brute_force_agreement_n3():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        dfa = random_dfa(rng, 3)
        if not is_synchronizing(dfa):
            continue
        checked += 1
        assert shortest_sync_length(dfa) == brute_shortest_length(dfa, 8)
        assert min_switch_count(dfa) == brute_min_switch(dfa, 10) == brute_min_switch_by_runs(dfa, 10)


def test_brute_force_switch_then_length():
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        dfa = random_dfa(rng, 4)
        if not is_synchronizing(dfa):
            continue
        checked += 1
        best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
        cap = max(12, best.length)
        assert (best.switch, best.length) == brute_best_switch_then_length(dfa, cap)


def test_brute_force_count():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        dfa = random_dfa(rng, 4)
        if not is_synchronizing(dfa):
            continue
        checked += 1
        ssl = shortest_sync_length(dfa)
        assert count_optimal_words(dfa, Objective.LENGTH) == brute_count_shortest(dfa, ssl)


def test_brute_force_count_switch_then_length():
    rng = random.Random(19)
    randoms = (random_dfa(rng, 4, k) for k in [2] * 60 + [3] * 60)
    synchronizing = [dfa for dfa in randoms if is_synchronizing(dfa)]
    # p_variant(4) has three optimal words over four symbols
    for dfa in [cerny(4), p_variant(4), a_family(5), cyclic_counterexample()] + synchronizing:
        best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
        assert (best.switch, best.length) == brute_best_switch_then_length(dfa, best.length)
        assert count_optimal_words(dfa, Objective.SWITCH_THEN_LENGTH) == \
            brute_count_switch_then_length(dfa, best.switch, best.length)
    assert len(synchronizing) >= 40


# Backward from the singletons the word engine reaches about n^2 sets on
# A_n and C_n, where a search forward from the full set reaches nearly all
# 2^n: the time limit makes such a search a failure.  Check 12 covers
# canonical_word at 6 and 12 only.
@pytest.mark.parametrize("n", [18, 24])
@time_limit(5)
def test_canonical_word_is_unique_optimum(n):
    dfa = a_family(n)
    best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
    assert best.word == canonical_word(n)
    assert count_optimal_words(dfa, Objective.SWITCH_THEN_LENGTH) == 1


@pytest.mark.parametrize("n", [20, 24])
@pytest.mark.parametrize("objective", Objective)
@time_limit(5)
def test_cerny_word_and_count_at_20_and_24(n, objective):
    # one word of length (n-1)^2 and 2n-3 runs is optimal under both objectives
    best = optimal_sync_word(cerny(n), objective)
    assert (best.length, best.switch) == ((n - 1) ** 2, 2 * n - 3)
    assert count_optimal_words(cerny(n), objective) == 1


# ---------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------

@st.composite
def synchronizing_dfas(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(2)] for _ in range(n)]
    dfa = Dfa(rows)
    if not is_synchronizing(dfa):
        # make state 0 absorbing under symbol 0 so a reset word exists
        rows = [[0, row[1]] for row in rows]
        dfa = Dfa(rows)
    return dfa


@given(synchronizing_dfas())
@settings(max_examples=60, deadline=None)
def test_switch_at_most_length_and_closure_equivalence(dfa):
    if not is_synchronizing(dfa):
        return
    sw = min_switch_count(dfa)
    assert sw <= shortest_sync_length(dfa)
    closed, _ = power_closure(dfa)
    assert shortest_sync_length(closed) == sw


@given(synchronizing_dfas(max_n=5))
@settings(max_examples=40, deadline=None)
def test_optimal_words_synchronize(dfa):
    if not is_synchronizing(dfa):
        return
    for objective in Objective:
        res = optimal_sync_word(dfa, objective)
        assert is_singleton(apply_set(dfa, full_set(dfa.n), res.word))
    best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
    assert best.switch == min_switch_count(dfa)
