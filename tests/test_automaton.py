import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncswitch import search
from syncswitch.automaton import (
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
    switch_count,
    union_table,
)
from syncswitch.families import cerny
from syncswitch.search import canonical_form


# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------

@st.composite
def dfas(draw, max_n=6, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
    return Dfa(rows)


def words(max_k=3, max_len=12):
    return st.lists(st.integers(0, max_k - 1), max_size=max_len)


# ---------------------------------------------------------------------
# switch_count
# ---------------------------------------------------------------------

def test_switch_count_examples():
    assert switch_count([]) == 0
    assert Word.from_letters("aaab").switch_count == 2
    assert Word.from_letters("b aaa b aaa b").switch_count == 5


def test_switch_count_recursion():
    # sw(aaw) = sw(aw) and sw(abw) = 1 + sw(bw) for a != b
    assert switch_count([0, 0, 1, 0]) == switch_count([0, 1, 0])
    assert switch_count([0, 1, 1, 0]) == 1 + switch_count([1, 1, 0])
    assert switch_count([0]) == 1


@given(words(), words())
def test_switch_count_concatenation(u, v):
    joined = switch_count(u + v)
    apart = switch_count(u) + switch_count(v)
    if u and v and u[-1] == v[0]:
        assert joined == apart - 1
    else:
        assert joined == apart


@given(words())
def test_switch_count_bounds(w):
    sw = switch_count(w)
    assert sw <= len(w)
    assert (sw == 0) == (len(w) == 0)


# ---------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------

def test_apply_state_cerny():
    # one state is the singleton set {q}
    c4 = cerny(4)
    assert apply_set(c4, 1 << 0, Word()) == 1 << 0
    assert apply_set(c4, 1 << 0, Word.from_letters("a")) == 1 << 1
    word = Word.from_letters("baaabaaab")
    targets = {apply_set(c4, 1 << q, word) for q in range(4)}
    assert targets == {1 << 1}


def test_apply_state_rejects_bad_symbol():
    with pytest.raises(ValueError, match=r"symbol index 2 out of range \[0, 2\)"):
        apply_set(cerny(4), 1 << 0, [2])


def test_apply_set_cerny():
    c4 = cerny(4)
    assert set_members(apply_set(c4, full_set(4), [1])) == [1, 2, 3]
    assert apply_set(c4, 0, Word.from_letters("abab")) == 0
    assert is_singleton(apply_set(c4, full_set(4), Word.from_letters("baaabaaab")))


@given(dfas(), st.data())
def test_apply_set_union_distribution(dfa, data):
    w = data.draw(st.lists(st.integers(0, dfa.k - 1), max_size=8))
    v = data.draw(st.integers(0, full_set(dfa.n)))
    u = data.draw(st.integers(0, full_set(dfa.n)))
    assert apply_set(dfa, v | u, w) == apply_set(dfa, v, w) | apply_set(dfa, u, w)


@given(dfas(), st.data())
def test_apply_set_cardinality_monotone(dfa, data):
    w = data.draw(st.lists(st.integers(0, dfa.k - 1), min_size=1, max_size=8))
    v = data.draw(st.integers(0, full_set(dfa.n)))
    sizes = [v.bit_count()]
    cur = v
    for s in w:
        cur = apply_set(dfa, cur, [s])
        sizes.append(cur.bit_count())
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_union_table():
    assert union_table([]) == [0]
    rng = random.Random(0)
    for size in range(14):
        bits = [rng.getrandbits(24) for _ in range(size)]
        table = union_table(bits)
        assert len(table) == 1 << size
        for m, union in enumerate(table):
            assert union == reduce(or_, (bits[i] for i in set_members(m)), 0)


# ---------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------

def _form(dfa, conv):
    """The canonical form under `conv`: `canonical_form` for STATES_AND_SYMBOLS,
    the searches' STATES_ONLY form otherwise."""
    if conv is IsoConvention.STATES_AND_SYMBOLS:
        return canonical_form(dfa)
    (rows,) = search._canonical_tables(dfa.n, dfa.k, [dfa.rows])[conv]
    return Dfa(rows)


def test_canonical_idempotent():
    c4 = cerny(4)
    for conv in IsoConvention:
        once = _form(c4, conv)
        assert _form(once, conv) == once


@given(dfas(max_n=5), st.data())
@settings(max_examples=40)
def test_canonical_invariant_under_relabeling(dfa, data):
    perm = data.draw(st.permutations(list(range(dfa.n))))
    relabeled = _relabel(dfa, perm)
    for conv in IsoConvention:
        assert _form(dfa, conv) == _form(relabeled, conv)
    sym_perm = data.draw(st.permutations(list(range(dfa.k))))
    both = _relabel(dfa, perm, sym_perm)
    assert canonical_form(dfa) == canonical_form(both)


def _relabel(dfa, state_map, symbol_map=None):
    """Rename state q to state_map[q] (and symbol s to symbol_map[s])."""
    if symbol_map is None:
        symbol_map = range(dfa.k)
    rows = [[0] * dfa.k for _ in range(dfa.n)]
    for q, row in enumerate(dfa.rows):
        for s, t in enumerate(row):
            rows[state_map[q]][symbol_map[s]] = state_map[t]
    return Dfa(rows)


def test_canonical_symbol_swap():
    c4 = cerny(4)
    swapped = Dfa([[row[1], row[0]] for row in c4.rows])
    assert canonical_form(c4) == canonical_form(swapped)
    assert _form(c4, IsoConvention.STATES_ONLY) != _form(swapped, IsoConvention.STATES_ONLY)


def test_canonical_guard():
    with pytest.raises(ValueError):
        canonical_form(Dfa([[0] * 2] * 10))


# ---------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------

def test_serialize_header():
    assert serialize_dfa(cerny(4)).startswith("4 2\n")


def test_parse_comments_and_whitespace():
    text = "# a comment\n3 2  # inline\n\n1 1\n2 1  \n0 2\n"
    dfa = parse_dfa(text)
    assert dfa.rows == ((1, 1), (2, 1), (0, 2))


def test_parse_no_trailing_newline():
    assert parse_dfa("1 1\n0") == Dfa([[0]])


@given(dfas())
def test_round_trip(dfa):
    assert parse_dfa(serialize_dfa(dfa)) == dfa


def test_parse_errors():
    for text, message in [
        ("", "empty input"),
        ("x 2\n", "header must be 'n k', got 'x 2'"),
        ("2\n0 0\n1 1\n", "header must be 'n k', got '2'"),
        ("2 2\n0 0\n", "expected 2 rows, got 1"),
        ("2 2\n0 0 1\n1 1\n", "row 0: expected 2 entries, got 3"),
        ("2 2\n0 2\n1 1\n", r"row 0: entry 2 out of range \[0, 2\)"),
        ("2 2\n0 zero\n1 1\n", "row 0: entry 'zero' is not an integer"),
    ]:
        with pytest.raises(DfaParseError, match=message):
            parse_dfa(text)


def test_large_dfa_round_trip():
    """A Dfa has no state cap; only the costly operations bound their size."""
    dfa = Dfa([[(q + 1) % 40, 0] for q in range(40)])
    assert dfa.n == 40
    assert parse_dfa(serialize_dfa(dfa)) == dfa


# ---------------------------------------------------------------------
# words
# ---------------------------------------------------------------------

def test_word_letters_round_trip():
    w = Word.from_letters("ababbaba")
    assert w.letters() == "ababbaba"
    assert len(w) == 8
    assert w.switch_count == 7
