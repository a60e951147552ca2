import math
import random

import pytest

from syncswitch.automaton import Word, apply_set, full_set, is_singleton, set_members
from syncswitch.families import (
    FIXTURE_NAMES,
    a_family,
    b_family,
    cerny,
    cyclic_counterexample,
    fixture,
    fixture_expectation,
    negate_index,
    p_family,
    p_variant,
    q_family,
    r_family,
    s_set,
    signed_to_index,
)
from syncswitch.synchro import Objective, is_synchronizing, min_switch_count, optimal_sync_word, shortest_sync_length


def test_cerny_table():
    c4 = cerny(4)
    assert c4.column(0) == (1, 2, 3, 0)
    assert c4.column(1) == (1, 1, 2, 3)
    assert min_switch_count(cerny(2)) == 1


def test_p_family_sync_state():
    # the merging symbol funnels everything into state 0
    dfa = p_family(5)
    res = optimal_sync_word(dfa, Objective.LENGTH)
    assert set_members(apply_set(dfa, full_set(5), res.word)) == [0]


def test_p_variant_small():
    assert min_switch_count(p_variant(2)) == 1
    assert min_switch_count(p_variant(5)) == 13
    assert min_switch_count(p_variant(8)) == 34


def test_r_family_roman():
    r5 = r_family(5)
    assert (min_switch_count(r5), shortest_sync_length(r5)) == (15, 16)
    assert r_family(6).k == 4
    assert r_family(8).k == 6


def test_q_family_values():
    assert min_switch_count(q_family(4)) == 1
    assert min_switch_count(q_family(6)) == 5
    assert min_switch_count(q_family(8)) == 13


def test_a_family_small_values():
    assert min_switch_count(a_family(3)) == 1
    assert min_switch_count(a_family(7)) == 23
    assert min_switch_count(a_family(12)) == 79


# The published formulas past the sizes of checks 1, 5 and 6, up to the
# 24-state limit of the subset searches: the backward level search reaches
# about n^2 subsets of these families.
@pytest.mark.parametrize("n", range(17, 25))
def test_cerny_formulas_to_24(n):
    dfa = cerny(n)
    assert (shortest_sync_length(dfa), min_switch_count(dfa)) == ((n - 1) ** 2, 2 * n - 3)


@pytest.mark.parametrize("n", range(19, 25))
def test_a_family_formula_to_24(n):
    assert min_switch_count(a_family(n)) == math.ceil(2 * n * (n - 2) / 3 - 1)


@pytest.mark.parametrize("n", range(18, 25, 2))
def test_q_family_formula_to_24(n):
    assert min_switch_count(q_family(n)) == (n * n - 6 * n + 10) // 2


def test_a_family_last_state_targets():
    # 0-indexed targets of the final state for the three residues of n mod 3
    assert a_family(6).rows[5] == (1, 1)
    assert a_family(7).rows[6] == (2, 2)
    assert a_family(8).rows[7] == (3, 3)


def test_preconditions():
    for ctor, bad in [
        (cerny, 1), (p_family, 1), (p_variant, 1),
        (r_family, 4), (q_family, 5), (q_family, 2),
        (a_family, 2), (b_family, 8), (b_family, 5),
    ]:
        with pytest.raises(ValueError):
            ctor(bad)
    with pytest.raises(ValueError):
        fixture("t99")
    with pytest.raises(ValueError):
        fixture_expectation("nope")


def test_families_synchronize():
    members = [cerny(5), p_family(5), p_variant(5), r_family(6), q_family(6),
               a_family(9), cyclic_counterexample()]
    members += [fixture(name) for name in FIXTURE_NAMES]
    assert all(is_synchronizing(dfa) for dfa in members)


# ---------------------------------------------------------------------
# signed double cover
# ---------------------------------------------------------------------

def test_signed_index_map():
    n = 6
    assert signed_to_index(1, n) == 0
    assert signed_to_index(-1, n) == 6
    assert signed_to_index(-6, n) == 11


def test_b_family_top_state():
    b6 = b_family(6)
    assert b6.rows[5] == (7, 7)  # state 6 maps to -2 under both symbols


def test_b_family_matches_signed_rules():
    # the documented signed rules, written out state by state
    def pos_step(q, s, n):
        if q == 1:
            return -1 if s == 0 else 2
        if q == n:
            return -(n // 3)
        if q % 2 == 0:
            return q + 1 if s == 0 else q - 1
        return q - 1 if s == 0 else q + 1

    for n in range(6, 49, 6):
        labels = list(range(1, n + 1)) + [-q for q in range(1, n + 1)]
        rows = [tuple(signed_to_index(pos_step(q, s, n) if q > 0 else -pos_step(-q, s, n), n)
                      for s in range(2)) for q in labels]
        assert b_family(n).rows == tuple(rows)


def test_b_family_not_synchronizing():
    assert not is_synchronizing(b_family(6))


def test_b_family_sign_symmetry():
    n = 6
    b6 = b_family(n)
    rng = random.Random(3)
    for _ in range(50):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 20))]
        for q in range(1, n + 1):
            (pos,) = set_members(apply_set(b6, 1 << signed_to_index(q, n), word))
            (neg,) = set_members(apply_set(b6, 1 << signed_to_index(-q, n), word))
            assert neg == negate_index(pos, n)


def test_b_family_s_sync_iff_a_sync():
    n = 6
    a6, b6 = a_family(n), b_family(n)
    s_bits = s_set(n)
    rng = random.Random(4)
    words = [[rng.randrange(2) for _ in range(rng.randrange(1, 25))] for _ in range(120)]
    words.append(list(optimal_sync_word(a6, Objective.LENGTH).word))
    for word in words:
        a_sync = is_singleton(apply_set(a6, full_set(n), word))
        s_sync = is_singleton(apply_set(b6, s_bits, word))
        assert a_sync == s_sync


def test_b_family_s_parity():
    n = 6
    b6 = b_family(n)
    s_bits = s_set(n)
    neg_s = ((s_bits << n) | (s_bits >> n)) & full_set(2 * n)
    rng = random.Random(5)
    for _ in range(60):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 16))]
        img = apply_set(b6, s_bits, word)
        inside = s_bits if len(word) % 2 == 0 else neg_s
        assert img & ~inside == 0


# ---------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------

def test_fixture_aliases():
    assert fixture("t8b") == a_family(8)
    assert fixture("t9b") == a_family(9)


def test_fixture_words_synchronize():
    for name in FIXTURE_NAMES:
        exp = fixture_expectation(name)
        if exp.shortest_word is None:
            continue
        dfa = fixture(name)
        word = Word.from_letters(exp.shortest_word)
        assert len(word) == exp.length
        assert word.switch_count == (exp.shortest_switch or exp.switch)
        assert is_singleton(apply_set(dfa, full_set(dfa.n), word))


def test_fixture_t4_metadata():
    dfa = fixture("t4")
    exp = fixture_expectation("t4")
    assert min_switch_count(dfa) == exp.switch == 7
    res = optimal_sync_word(dfa, Objective.LENGTH)
    assert res.word.letters() == exp.shortest_word == "ababbaba"
