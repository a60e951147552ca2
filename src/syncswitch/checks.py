"""The full verification battery behind `syncswitch verify-paper`.

Each check reproduces one block of published reference values (family
formulas, transform identities, extremal-search tables, fixture data,
lemma suite, brute-force oracle agreement) and reports expected/got
strings.  `tests/test_acceptance.py` drives the same functions.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from .analysis import canonical_word, distance_context, min_sc_pair_increase, pair_increase_bound, verify_lemmas
from .automaton import Dfa, IsoConvention, Word, apply_set, full_set, is_singleton, union_table
from .closure import f2_transform, f_transform, power_closure
from .families import (
    FIXTURE_NAMES,
    a_family,
    cerny,
    cyclic_counterexample,
    fixture,
    fixture_expectation,
    p_family,
    p_variant,
    q_family,
    r_family,
    t7_shortest_words,
)
from .synchro import (
    Objective,
    count_optimal_words,
    is_synchronizing,
    min_switch_count,
    optimal_sync_word,
    optimal_words,
    shortest_sync_length,
)

RANDOM_SEED = 20260809


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    expected: str
    got: str
    seconds: float


class _Collector:
    """Accumulates expected/got pairs; the check passes when all match.
    `result` reports the seconds since the collector was made."""

    def __init__(self):
        self.mismatches: list[str] = []
        self.count = 0
        self.t0 = time.perf_counter()

    def eq(self, label: str, got, expected) -> None:
        self.count += 1
        if got != expected:
            self.mismatches.append(f"{label}: expected {expected}, got {got}")

    def true(self, label: str, flag: bool) -> None:
        self.eq(label, bool(flag), True)

    def result(self, check_id: str, summary: str) -> CheckResult:
        seconds = time.perf_counter() - self.t0
        if self.mismatches:
            return CheckResult(check_id, False, summary, "; ".join(self.mismatches[:4]), seconds)
        return CheckResult(check_id, True, summary, f"all {self.count} values match", seconds)


def check_cerny_family() -> CheckResult:
    """ssl(C_n) = (n-1)^2 and sw(C_n) = 2n-3 for 2 <= n <= 16."""
    c = _Collector()
    for n in range(2, 17):
        dfa = cerny(n)
        c.eq(f"ssl(C_{n})", shortest_sync_length(dfa), (n - 1) ** 2)
        c.eq(f"sw(C_{n})", min_switch_count(dfa), 2 * n - 3)
    return c.result("1", "ssl=(n-1)^2, sw=2n-3 for n=2..16")


def check_p_family() -> CheckResult:
    """sw(P_n) = ssl(P_n) = n(n-1)/2 for 2 <= n <= 12."""
    c = _Collector()
    for n in range(2, 13):
        dfa = p_family(n)
        c.eq(f"sw(P_{n})", min_switch_count(dfa), n * (n - 1) // 2)
        c.eq(f"ssl(P_{n})", shortest_sync_length(dfa), n * (n - 1) // 2)
    return c.result("2", "sw=ssl=n(n-1)/2 for n=2..12")


def check_p_variant() -> CheckResult:
    """sw of the p variant is (n^2+n-4)/2 for 2 <= n <= 12."""
    c = _Collector()
    for n in range(2, 13):
        c.eq(f"sw(variant_{n})", min_switch_count(p_variant(n)), (n * n + n - 4) // 2)
    return c.result("3", "sw=(n^2+n-4)/2 for n=2..12")


def check_r_family() -> CheckResult:
    """sw(R_n) = n(n+1)/2 for 5 <= n <= 12; ssl(R_5) = 16."""
    c = _Collector()
    for n in range(5, 13):
        c.eq(f"sw(R_{n})", min_switch_count(r_family(n)), n * (n + 1) // 2)
    c.eq("ssl(R_5)", shortest_sync_length(r_family(5)), 16)
    c.eq("sw(R_5)", min_switch_count(r_family(5)), 15)
    return c.result("4", "sw=n(n+1)/2 for n=5..12, ssl(R_5)=16")


def check_q_family() -> CheckResult:
    """sw(Q_n) = (n^2-6n+10)/2 for even 4 <= n <= 16."""
    c = _Collector()
    for n in range(4, 17, 2):
        c.eq(f"sw(Q_{n})", min_switch_count(q_family(n)), (n * n - 6 * n + 10) // 2)
    return c.result("5", "sw=(n^2-6n+10)/2 for even n=4..16")


_A_TABLE = {3: 1, 4: 5, 5: 9, 6: 15, 7: 23, 8: 31, 9: 41, 10: 53, 11: 65, 12: 79}


def check_a_family() -> CheckResult:
    """sw(A_n) = ceil(2/3 n(n-2) - 1) for 3 <= n <= 18, with the n=3..12 table."""
    c = _Collector()
    for n in range(3, 19):
        got = min_switch_count(a_family(n))
        c.eq(f"sw(A_{n})", got, math.ceil(2 * n * (n - 2) / 3 - 1))
        if n in _A_TABLE:
            c.eq(f"table(A_{n})", got, _A_TABLE[n])
    return c.result("6", "sw=ceil(2/3 n(n-2)-1) for n=3..18 incl. table 1,5,...,79")


def check_transforms() -> CheckResult:
    """sw(F(A)) = 2 ssl(A) and sw(F2(A)) = 2 ssl(A); sw(F(C_4)) = 18.

    Known red: the F2 equality is stated for every binary automaton but is
    false when every shortest reset word ends in the symbol that the F2
    gadget does not absorb; t3 ("aba") and t4 ("ababbaba") are such
    automata and come out one switch higher (7 and 17).  Those values are
    confirmed by run-by-run brute-force word enumeration, which shares no
    code with the engines, in tests/test_acceptance.py and
    tests/test_closure.py; the exact identity is stated on
    `f2_transform`.  This check stays faithful to the criterion as stated
    rather than excluding the two false sub-items.
    """
    c = _Collector()
    subjects = [(f"C_{n}", cerny(n)) for n in range(2, 8)]
    subjects += [(name, fixture(name)) for name in ("t3", "t4", "t5")]
    for name, dfa in subjects:
        c.eq(f"sw(F({name}))", min_switch_count(f_transform(dfa)), 2 * shortest_sync_length(dfa))
    binary = [(f"C_{n}", cerny(n)) for n in range(2, 7)]
    binary += [(name, fixture(name)) for name in ("t3", "t4", "t5")]
    for name, dfa in binary:
        c.eq(f"sw(F2({name}))", min_switch_count(f2_transform(dfa)), 2 * shortest_sync_length(dfa))
    c.eq("sw(F(C_4))", min_switch_count(f_transform(cerny(4))), 18)
    return c.result("7", "sw(F)=2ssl on C_2..C_7+t3..t5; sw(F2)=2ssl on C_2..C_6+t3..t5; F(C_4)=18")


def _family_members() -> list[tuple[str, Dfa]]:
    """The family members with at most 10 states, and the fixtures among them."""
    members: list[tuple[str, Dfa]] = []
    for n in range(2, 11):
        members.append((f"C_{n}", cerny(n)))
        members.append((f"P_{n}", p_family(n)))
        members.append((f"variant_{n}", p_variant(n)))
    for n in range(5, 11):
        members.append((f"R_{n}", r_family(n)))
    for n in range(4, 11, 2):
        members.append((f"Q_{n}", q_family(n)))
    for n in range(3, 11):
        members.append((f"A_{n}", a_family(n)))
    members.append(("counterexample", cyclic_counterexample()))
    for name in FIXTURE_NAMES:
        dfa = fixture(name)
        if dfa.n <= 10:
            members.append((name, dfa))
    return members


def random_synchronizing_binary(n: int, rng: random.Random) -> Dfa:
    """Rejection-sample a synchronizing binary automaton on n states."""
    while True:
        rows = [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]
        dfa = Dfa(rows)
        if is_synchronizing(dfa):
            return dfa


def check_closure_equivalence() -> CheckResult:
    """sw(A) = ssl(power_closure(A)) across families and 500 random automata."""
    c = _Collector()
    for name, dfa in _family_members():
        closed, _ = power_closure(dfa)
        c.eq(f"closure({name})", shortest_sync_length(closed), min_switch_count(dfa))
    rng = random.Random(RANDOM_SEED)
    for i in range(500):
        n = 2 + i % 7  # state counts 2..8
        dfa = random_synchronizing_binary(n, rng)
        closed, _ = power_closure(dfa)
        c.eq(f"closure(random {i})", shortest_sync_length(closed), min_switch_count(dfa))
    return c.result("8", "sw = ssl of power closure on families (n<=10) + 500 random (n<=8)")


_SEARCH_TABLE = {2: (1, None), 3: (3, 6), 4: (7, 2), 5: (11, 6), 6: (19, 2)}


def check_exhaustive_table(jobs: int = 1, long: bool = False,
                           progress: Callable[[str], None] | None = None) -> CheckResult:
    """Binary exhaustive search maxima (and extremal form counts, up to
    renaming states and symbols) for n = 2..6; `long` adds n = 7: maximum 25,
    with t7 among the extremal forms."""
    from .search import canonical_form, extremal_search

    c = _Collector()
    for n, (max_sw, count) in _SEARCH_TABLE.items():
        report = extremal_search(n, 2, parallelism=jobs, progress=progress)
        c.eq(f"max_sw(n={n})", report.max_sw, max_sw)
        c.eq(f"scanned(n={n})", report.scanned, n ** (2 * n))
        if count is not None:
            c.eq(f"forms(n={n})", report.form_count(IsoConvention.STATES_AND_SYMBOLS), count)
    summary = "maxima 1,3,7,11,19 and counts -,6,2,6,2 for n=2..6"
    if long:
        report = extremal_search(7, 2, parallelism=jobs, long=True, progress=progress)
        c.eq("max_sw(n=7)", report.max_sw, 25)
        c.eq("scanned(n=7)", report.scanned, 7 ** 14)
        c.true("t7 extremal", canonical_form(fixture("t7")) in report.forms[IsoConvention.STATES_AND_SYMBOLS])
        summary += "; n=7 maximum 25 reached by t7"
    return c.result("9", summary)


def check_fixtures() -> CheckResult:
    """Every fixture reproduces its published (sw, ssl, witness) data."""
    c = _Collector()
    for name in FIXTURE_NAMES:
        dfa = fixture(name)
        exp = fixture_expectation(name)
        c.eq(f"{name} sw", min_switch_count(dfa), exp.switch)
        if exp.length is not None:
            c.eq(f"{name} ssl", shortest_sync_length(dfa), exp.length)
        if exp.optimal_count is not None:
            c.eq(f"{name} count", count_optimal_words(dfa, Objective.LENGTH), exp.optimal_count)
        if exp.shortest_word is not None:
            word = Word.from_letters(exp.shortest_word)
            c.true(f"{name} word syncs", is_singleton(apply_set(dfa, full_set(dfa.n), word)))
            c.eq(f"{name} word len", len(word), exp.length)
            got = optimal_sync_word(dfa, Objective.LENGTH)
            c.eq(f"{name} shortest word", got.word.letters(), exp.shortest_word)
            if exp.shortest_switch is not None:
                c.eq(f"{name} shortest sw", got.switch, exp.shortest_switch)
        if exp.best_switch_length is not None:
            best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
            c.eq(f"{name} best (sw,len)", (best.switch, best.length),
                 (exp.switch, exp.best_switch_length))
    # the three shortest words of t7 all have switch count 25
    t7 = fixture("t7")
    words = t7_shortest_words()
    for i, w in enumerate(words):
        c.true(f"t7 word {i} syncs", is_singleton(apply_set(t7, full_set(7), w)))
        c.eq(f"t7 word {i} sw", w.switch_count, 25)
        c.eq(f"t7 word {i} len", len(w), 32)
    c.eq("t7 optimal set", sorted(w.letters() for w in optimal_words(t7, Objective.LENGTH)),
         sorted(w.letters() for w in words))
    return c.result("10", "fixture (sw, ssl, witness) table incl. t8a (33,42)/(31,43)")


def check_cyclic(jobs: int = 1,
                 progress: Callable[[str], None] | None = None) -> CheckResult:
    """Cyclic maxima 2n-3 at n=5,7 (binary) and n=3 (ternary); the 4-state example."""
    from .search import cyclic_extremal_search

    c = _Collector()
    for n, k in [(5, 2), (7, 2), (3, 3)]:
        report = cyclic_extremal_search(n, k, parallelism=jobs, progress=progress)
        c.eq(f"cyclic(n={n},k={k})", report.max_sw, 2 * n - 3)
    example = cyclic_counterexample()
    c.eq("example sw", min_switch_count(example), 6)
    word = Word.from_letters("babacb")
    c.true("babacb syncs", is_singleton(apply_set(example, full_set(4), word)))
    cycle = example.column(0)
    c.true("symbol a cyclic", sorted(cycle) == list(range(4)) and
           all(cycle[q] == (q + 1) % 4 for q in range(4)))
    return c.result("11", "cyclic maxima 7,11,3 at (5,2),(7,2),(3,3); example sw=6")


def check_lemma_suite() -> CheckResult:
    """verify_lemmas all-pass at n=6,12; pair-increase closed form; canonical word."""
    c = _Collector()
    for n in (6, 12):
        report = verify_lemmas(n)
        for chk in report.checks:
            c.true(f"n={n} {chk.lemma}", chk.passed)
        ctx = distance_context(n)
        for k in range(2, 2 * n // 3):
            c.eq(f"n={n} pair_increase(k={k})", min_sc_pair_increase(ctx, k),
                 pair_increase_bound(n, k))
        word = canonical_word(n)
        dfa = a_family(n)
        c.true(f"n={n} canonical syncs", is_singleton(apply_set(dfa, full_set(n), word)))
        c.eq(f"n={n} canonical sw", word.switch_count, 2 * n * (n - 2) // 3 - 1)
        c.eq(f"n={n} unique optimum", count_optimal_words(dfa, Objective.SWITCH_THEN_LENGTH), 1)
        best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
        c.eq(f"n={n} optimum is canonical", best.word, word)
    return c.result("12", "lemma suite + Lemma-4 closed form + canonical word at n=6,12")


# ---------------------------------------------------------------------------
# Brute-force oracle (word enumeration straight from the definitions)
# ---------------------------------------------------------------------------

def brute_force_optima(dfa: Dfa, max_len: int) -> tuple[int | None, int | None]:
    """(shortest sync length, minimal switch count) over all words up to max_len.

    Depth-first over the word tree, tracking the current subset and switch
    count; a synchronizing prefix is recorded and not extended.  The empty
    word comes first: if the full set is a singleton, that is (0, 0).
    Branch and bound: a prefix of length L and switch count sw is not
    extended once L + 1 >= best_len and sw >= best_sw.  The prune is exact:
    extending a prefix never lowers its length or its switch count, so every
    word below it is at least as long as best_len and switches at least
    best_sw times, and neither optimum, which only falls, can be beaten
    there.  The image of every subset under a symbol comes from one full
    `union_table` of the symbol's targets: nothing is shared with the
    search engines.
    """
    k = dfa.k
    full = full_set(dfa.n)
    if is_singleton(full):
        return 0, 0
    images = [union_table(1 << row[s] for row in dfa.rows) for s in range(k)]
    best_len: int | None = None
    best_sw: int | None = None
    stack = [(full, 0, 0, -1)]  # subset, length, switches, last symbol
    while stack:
        v, length, sw, last = stack.pop()
        if length >= max_len:
            continue
        # every extension is at least length + 1 long and switches at least
        # sw times, so it can improve neither optimum
        if best_len is not None and length + 1 >= best_len and sw >= best_sw:
            continue
        for s in range(k):
            w = images[s][v]
            nsw = sw if s == last else sw + 1
            if w & (w - 1) == 0:
                if best_len is None or length + 1 < best_len:
                    best_len = length + 1
                if best_sw is None or nsw < best_sw:
                    best_sw = nsw
                continue
            stack.append((w, length + 1, nsw, s))
    return best_len, best_sw


def _all_binary_tables(n: int):
    for flat in product(range(n), repeat=2 * n):
        yield tuple((flat[2 * q], flat[2 * q + 1]) for q in range(n))


def check_oracle_agreement() -> CheckResult:
    """Engines agree with brute-force enumeration: all binary n<=3 + 200 random n=4."""
    c = _Collector()
    subjects: list[tuple[str, Dfa]] = []
    for n in (2, 3):
        for i, rows in enumerate(_all_binary_tables(n)):
            subjects.append((f"n{n}#{i}", Dfa(rows)))
    rng = random.Random(RANDOM_SEED)
    for i in range(200):
        rows = [[rng.randrange(4), rng.randrange(4)] for _ in range(4)]
        subjects.append((f"n4#{i}", Dfa(rows)))
    checked = 0
    for name, dfa in subjects:
        if not is_synchronizing(dfa):
            continue
        checked += 1
        ssl = shortest_sync_length(dfa)
        sw = min_switch_count(dfa)
        best = optimal_sync_word(dfa, Objective.SWITCH_THEN_LENGTH)
        cap = max(12, best.length)
        brute_len, brute_sw = brute_force_optima(dfa, cap)
        c.eq(f"{name} ssl", ssl, brute_len)
        c.eq(f"{name} sw", sw, brute_sw)
        c.eq(f"{name} witness sw", best.switch, sw)
        c.true(f"{name} witness syncs",
               is_singleton(apply_set(dfa, full_set(dfa.n), best.word)))
    c.true("enough synchronizing subjects", checked > 400)
    return c.result("13", "engine = brute force on all binary n<=3 and 200 random n=4")


def run_checks(long: bool = False, jobs: int = 1,
               progress: Callable[[str], None] | None = None) -> list[CheckResult]:
    if jobs < 1:
        raise ValueError("need at least one worker")
    battery = [
        check_cerny_family,
        check_p_family,
        check_p_variant,
        check_r_family,
        check_q_family,
        check_a_family,
        check_transforms,
        check_closure_equivalence,
        partial(check_exhaustive_table, jobs=jobs, long=long, progress=progress),
        check_fixtures,
        partial(check_cyclic, jobs=jobs, progress=progress),
        check_lemma_suite,
        check_oracle_agreement,
    ]
    results = []
    for check in battery:
        res = check()
        if progress:
            progress(f"check {res.check_id}: {'PASS' if res.passed else 'FAIL'} "
                     f"({res.seconds:.1f}s)")
        results.append(res)
    return results
