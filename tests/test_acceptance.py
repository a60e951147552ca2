"""Acceptance criteria, one test per criterion.

Each test runs the corresponding check from `syncswitch.checks` (the same
battery the `verify-paper` CLI command uses) and prints its pass/fail line.
"""

import os

import pytest

import random

from oracles import brute_min_switch, brute_min_switch_by_runs, brute_shortest_length
from syncswitch import checks
from syncswitch.automaton import Dfa
from syncswitch.closure import f2_transform
from syncswitch.families import fixture


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"CHECK {result.check_id} {status} expected={result.expected} "
          f"got={result.got} [{result.seconds:.1f}s]")


def _run(fn, **kwargs):
    result = fn(**kwargs)
    _report(result)
    assert result.passed, f"criterion {result.check_id}: {result.got}"


def _jobs():
    return min(8, os.cpu_count() or 1)


def test_criterion_01_cerny_family():
    _run(checks.check_cerny_family)


def test_criterion_02_p_family():
    _run(checks.check_p_family)


def test_criterion_03_p_variant():
    _run(checks.check_p_variant)


def test_criterion_04_r_family():
    _run(checks.check_r_family)


def test_criterion_05_q_family():
    _run(checks.check_q_family)


def test_criterion_06_a_family():
    _run(checks.check_a_family)


def test_criterion_07_transforms():
    """Criterion 7 in full, with its two refuted sub-items pinned exactly.

    The criterion asserts sw(F2(A)) = 2 ssl(A) for t3 and t4, but the
    equality only holds when some shortest reset word of A ends in b, the
    symbol that fixes plain states in the F2 gadget; every shortest reset
    word of t3 ("aba") and t4 ("ababbaba") ends in a, which costs one extra
    switch.  The check is kept faithful to the criterion, so it stays red
    with exactly these two mismatches.  As it reports up to four, an exact
    match of its output also proves that every other sub-item holds.  The
    true values 7 and 17 are proven here by run-by-run word enumeration
    (tests/oracles.py), which shares no code with the engines; the
    corrected equality is verified for all binary 3-state automata in
    tests/test_closure.py.
    """
    result = checks.check_transforms()
    _report(result)
    assert (result.passed, result.got) == (
        False, "sw(F2(t3)): expected 6, got 7; sw(F2(t4)): expected 16, got 17")
    for name, ssl in (("t3", 3), ("t4", 8)):
        dfa = fixture(name)
        assert brute_shortest_length(dfa, ssl) == ssl
        assert brute_min_switch_by_runs(f2_transform(dfa), 2 * ssl + 1) == 2 * ssl + 1


def test_criterion_08_closure_equivalence():
    _run(checks.check_closure_equivalence)


def test_criterion_09_exhaustive_table():
    _run(checks.check_exhaustive_table, jobs=_jobs())


def test_criterion_09_counts_forms_up_to_states_and_symbols(monkeypatch):
    """The published counts are forms up to renaming states and symbols:
    the 12 forms of n=3 up to renaming states alone do not pass for them."""
    monkeypatch.setattr(checks, "_SEARCH_TABLE", {3: (3, 12)})
    result = checks.check_exhaustive_table(jobs=1)
    assert (result.passed, result.got) == (False, "forms(n=3): expected 12, got 6")


def test_criterion_10_fixtures():
    _run(checks.check_fixtures)


def test_criterion_11_cyclic():
    _run(checks.check_cyclic, jobs=_jobs())


def test_criterion_12_lemma_suite():
    _run(checks.check_lemma_suite)


def test_criterion_13_oracle_agreement():
    _run(checks.check_oracle_agreement)


def test_pruned_oracle_matches_plain_enumeration():
    """`brute_force_optima`'s branch and bound against plain word enumeration
    (tests/oracles.py): every binary table with 1, 2 or 3 states at max_len
    6, and check 13's 200 seeded 4-state tables at max_len 10, synchronizing
    or not."""
    cases = [(Dfa(rows), 6) for n in (1, 2, 3) for rows in checks._all_binary_tables(n)]
    rng = random.Random(checks.RANDOM_SEED)
    cases += [(Dfa([[rng.randrange(4), rng.randrange(4)] for _ in range(4)]), 10)
              for _ in range(200)]
    for dfa, max_len in cases:
        assert checks.brute_force_optima(dfa, max_len) == (
            brute_shortest_length(dfa, max_len), brute_min_switch(dfa, max_len)), dfa


@pytest.mark.skipif("SYNCSWITCH_RUN_LONG" not in os.environ,
                    reason="minutes of wall time; set SYNCSWITCH_RUN_LONG=1")
def test_criterion_09_long_n7():
    _run(checks.check_exhaustive_table, jobs=_jobs(), long=True)
