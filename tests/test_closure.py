import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_min_switch_by_runs, decode_table
from syncswitch.automaton import Dfa, serialize_dfa
from syncswitch.cli import main
from syncswitch.closure import f2_transform, f_transform, power_closure
from syncswitch.families import cerny, fixture, p_family
from syncswitch.synchro import is_synchronizing, min_switch_count, shortest_sync_length


@st.composite
def small_dfas(draw, max_n=6, max_k=3):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, max_k))
    return Dfa([[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)])


def test_closure_of_cerny4():
    closed, provenance = power_closure(cerny(4))
    # alphabet {a, b, a^2, a^3}: a^4 is the identity, b^2 = b
    assert closed.k == 4
    assert provenance == ((0, 1), (1, 1), (0, 2), (0, 3))
    assert shortest_sync_length(closed) == 5


def test_closure_is_fixpoint():
    closed, _ = power_closure(cerny(5))
    twice, _ = power_closure(closed)
    assert {twice.column(s) for s in range(twice.k)} == {closed.column(s) for s in range(closed.k)}


def test_closure_keeps_identity_symbols():
    dfa = Dfa([[1, 0], [0, 1]])  # symbol 1 is the identity
    closed, provenance = power_closure(dfa)
    assert closed.k == 2
    assert provenance == ((0, 1), (1, 1))


def test_closure_adds_nothing_for_involutions():
    # every symbol of p_family squares to the identity or itself
    closed, _ = power_closure(p_family(6))
    assert closed.k == p_family(6).k


def test_closure_comment_lines(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(serialize_dfa(cerny(4)).encode()), encoding="utf-8"))
    assert main(["closure", "-"]) == 0
    # exactly two comment lines, after the last table row
    assert capsys.readouterr().out.endswith("0 3 1 2\n# s2 = a^2\n# s3 = a^3\n")


@given(small_dfas())
@settings(max_examples=60, deadline=None)
def test_closure_is_power_closed(dfa):
    closed, provenance = power_closure(dfa)
    identity = tuple(range(closed.n))
    columns = [closed.column(s) for s in range(closed.k)]
    # added columns are pairwise distinct and never the identity
    added = columns[dfa.k:]
    assert len(set(added)) == len(added)
    assert identity not in added
    assert all(exp >= 2 for _, exp in provenance[dfa.k:])
    # every power of every closure symbol is the identity or already present
    present = set(columns)
    for col in columns:
        power = col
        seen = {col}
        while True:
            power = tuple(col[q] for q in power)
            if power in seen:
                break
            seen.add(power)
            assert power == identity or power in present


def test_f_transform_shape_and_values():
    f = f_transform(cerny(4))
    assert (f.n, f.k) == (8, 3)
    assert min_switch_count(f) == 18
    assert min_switch_count(f_transform(cerny(5))) == 2 * shortest_sync_length(cerny(5))


def test_f_transform_is_power_closed():
    f = f_transform(fixture("t4"))
    identity = tuple(range(f.n))
    for s in range(f.k):
        col = f.column(s)
        squared = tuple(col[q] for q in col)
        assert squared in (col, identity)


def test_f_transform_theorem_small():
    for dfa in (cerny(2), cerny(3), fixture("t3"), fixture("t5")):
        assert min_switch_count(f_transform(dfa)) == 2 * shortest_sync_length(dfa)


@given(small_dfas(max_n=5))
@settings(max_examples=50, deadline=None)
def test_f_transform_doubles_reset_length(dfa):
    if not is_synchronizing(dfa):
        return
    assert min_switch_count(f_transform(dfa)) == 2 * shortest_sync_length(dfa)


def test_f2_transform_shape_and_values():
    f2 = f2_transform(cerny(4))
    assert (f2.n, f2.k) == (12, 2)
    assert min_switch_count(f2) == 18


def test_f2_requires_binary():
    with pytest.raises(ValueError, match="f2_transform needs a binary automaton, got k=3"):
        f2_transform(p_family(4))


def test_f2_exact_switch_count_all_n3():
    """Corrected F2 behavior, exhaustive over synchronizing binary 3-state tables.

    sw(F2(A)) is 2 ssl(A) when some shortest reset word of A ends in b (the
    symbol fixing plain states in the gadget) and 2 ssl(A) + 1 otherwise.
    The one-step simulation reads "a b x" per original letter x, so a word
    ending in a pays for one extra trailing run.
    """
    from syncswitch.synchro import Objective, optimal_words

    for index in range(3 ** 6):
        dfa = Dfa(decode_table(3, 2, index))
        if not is_synchronizing(dfa):
            continue
        ssl = shortest_sync_length(dfa)
        b_ending = any(w.symbols[-1] == 1 for w in optimal_words(dfa, Objective.LENGTH))
        expected = 2 * ssl + (0 if b_ending else 1)
        assert min_switch_count(f2_transform(dfa)) == expected


def test_f2_one_above_double_length_on_t3_t4():
    # the two known exceptions to the published F2 equality; the run-by-run
    # oracle confirms the engine independently
    for name, ssl, sw in (("t3", 3, 7), ("t4", 8, 17)):
        dfa = fixture(name)
        assert shortest_sync_length(dfa) == ssl
        assert min_switch_count(f2_transform(dfa)) == sw == 2 * ssl + 1
        assert brute_min_switch_by_runs(f2_transform(dfa), sw) == sw


def test_transforms_preserve_synchronizability():
    for dfa in (cerny(3), fixture("t4")):
        assert is_synchronizing(f_transform(dfa))
        assert is_synchronizing(f2_transform(dfa))
