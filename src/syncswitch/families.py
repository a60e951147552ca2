"""Generators for the named automaton families and the extremal fixtures.

All generators use 0-indexed states; figures in the literature are usually
1-indexed, so state i here corresponds to state i+1 there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Dfa, Word


def cerny(n: int) -> Dfa:
    """The classic n-state binary automaton with reset length (n-1)^2.

    Symbol a cycles 0 -> 1 -> ... -> n-1 -> 0; symbol b maps 0 to 1 and
    fixes every other state.
    """
    if n < 2:
        raise ValueError("cerny needs n >= 2")
    rows = [[(q + 1) % n, q] for q in range(n)]
    rows[0][1] = 1
    return Dfa(rows)


def p_family(n: int) -> Dfa:
    """n states and n-1 symbols: one merging symbol plus adjacent swaps.

    Symbol 0 merges state 1 into state 0; symbol j (j >= 1) swaps states
    j and j+1; everything else is the identity.  Switch count and shortest
    reset length are both n(n-1)/2.
    """
    if n < 2:
        raise ValueError("p_family needs n >= 2")
    rows = [[q] * (n - 1) for q in range(n)]
    rows[1][0] = 0
    for j in range(1, n - 1):
        rows[j][j] = j + 1
        rows[j + 1][j] = j
    return Dfa(rows)


def p_variant(n: int) -> Dfa:
    """Variant of `p_family` with n symbols and switch count (n^2+n-4)/2.

    Symbol 0 maps state 0 to state 1 (identity elsewhere); symbol s >= 1
    swaps states s-1 and s.
    """
    if n < 2:
        raise ValueError("p_variant needs n >= 2")
    rows = [[q] * n for q in range(n)]
    rows[0][0] = 1
    for s in range(1, n):
        rows[s - 1][s] = s
        rows[s][s] = s - 1
    return Dfa(rows)


def r_family(n: int) -> Dfa:
    """n states and n-2 symbols; switch count n(n+1)/2.

    r_family(5) is the Roman automaton (reset length 16, switch count 15).
    In 0-indexed states: symbol 0 maps 2 to 1 and swaps 1 and 3; symbol 1
    swaps 2 and 3; symbol 2 swaps 0,1 and 3,4; symbol 3 swaps 1 and 5;
    symbol j >= 4 swaps j+1 and j+2.
    """
    if n < 5:
        raise ValueError("r_family needs n >= 5")
    k = n - 2
    rows = [[q] * k for q in range(n)]

    def swap(s, x, y):
        rows[x][s] = y
        rows[y][s] = x

    rows[2][0] = 1
    swap(0, 1, 3)
    swap(1, 2, 3)
    swap(2, 0, 1)
    swap(2, 3, 4)
    if k > 3:
        swap(3, 1, 5)
    for s in range(4, k):
        swap(s, s + 1, s + 2)
    return Dfa(rows)


def q_family(n: int) -> Dfa:
    """Binary automaton on an even number of states; switch count (n^2-6n+10)/2.

    Symbol a advances even states by one and fixes odd ones; symbol b maps
    state 0 to 2 and the last state to 0, advances the other odd states by
    one, and fixes the rest.  After one b the dynamics restrict to the odd
    half, where the pair (ab, b) acts as `cerny(n/2)`.
    """
    if n < 4 or n % 2:
        raise ValueError("q_family needs an even n >= 4")
    rows = []
    for q in range(n):
        a = q + 1 if q % 2 == 0 else q
        if q == 0:
            b = 2
        elif q == n - 1:
            b = 0
        elif q % 2 == 1:
            b = q + 1
        else:
            b = q
        rows.append([a, b])
    return Dfa(rows)


def a_family(n: int) -> Dfa:
    """Binary automaton with switch count ceil(2/3 n(n-2) - 1).

    In 1-indexed states: 1a = 1, 1b = 2; even states go a -> q+1, b -> q-1;
    odd states go a -> q-1, b -> q+1; the last state maps under both
    symbols to state n // 3 + n % 3.
    """
    if n < 3:
        raise ValueError("a_family needs n >= 3")
    target = n // 3 + n % 3 - 1
    rows = []
    for i in range(n):
        q = i + 1
        if q == 1:
            rows.append([0, 1])
        elif q == n:
            rows.append([target, target])
        elif q % 2 == 0:
            rows.append([i + 1, i - 1])
        else:
            rows.append([i - 1, i + 1])
    return Dfa(rows)


# ---------------------------------------------------------------------------
# Signed-state auxiliary automaton
# ---------------------------------------------------------------------------

def signed_to_index(q: int, n: int) -> int:
    """Map a signed state label (nonzero, |q| <= n) to a 0-based index.

    Positive q sits at q-1, negative q at n+|q|-1, so negation is the
    index shift i -> (i + n) mod 2n.
    """
    if q == 0 or abs(q) > n:
        raise ValueError(f"signed state {q} out of range for n={n}")
    return q - 1 if q > 0 else n - q - 1


def negate_index(i: int, n: int) -> int:
    return (i + n) % (2 * n)


def b_family(n: int) -> Dfa:
    """Signed double cover of `a_family(n)` on 2n states, for n divisible by 6.

    States carry labels 1..n and -1..-n (indices 0..n-1 and n..2n-1, see
    `signed_to_index`).  Transitions from 2..n-1 match `a_family`; 1a = -1,
    1b = 2, and the last state maps to -n/3; negated states mirror
    everything: (-q)x = -(qx).  So the positive half is `a_family(n)`'s
    table with the two negative targets, 1a and the last state's n/3 under
    both symbols, shifted by n, and the negative half is that block mapped
    through `negate_index`.  Not synchronizing as a plain DFA (images of q
    and -q stay negatives of each other); a word w synchronizes
    `a_family(n)` iff it maps the set S of even positive and odd negative
    states to a single state.
    """
    if n < 6 or n % 6:
        raise ValueError("b_family needs n divisible by 6")
    pos = [list(row) for row in a_family(n).rows]
    pos[0][0] += n
    pos[-1] = [t + n for t in pos[-1]]
    return Dfa(pos + [[negate_index(t, n) for t in row] for row in pos])


def s_set(n: int) -> int:
    """Bit mask of the set S in `b_family(n)`: even positives, odd negatives."""
    bits = 0
    for q in range(2, n + 1, 2):
        bits |= 1 << signed_to_index(q, n)
    for q in range(1, n + 1, 2):
        bits |= 1 << signed_to_index(-q, n)
    return bits


def cyclic_counterexample() -> Dfa:
    """4-state, 3-symbol cyclic automaton with switch count 6 > 2n-3.

    Symbol a is the 4-cycle, b maps state 0 to 2, c swaps states 2 and 3;
    babacb synchronizes it.
    """
    return Dfa([
        [1, 2, 0],
        [2, 1, 1],
        [3, 2, 3],
        [0, 3, 2],
    ])


# ---------------------------------------------------------------------------
# Extremal fixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixtureExpectation:
    """Published reference values a fixture must reproduce.

    `optimal_count` is the number of shortest synchronizing words;
    `shortest_word` the unique one when known (or one representative);
    `shortest_switch` its switch count when it differs from `switch`;
    `best_switch_length` the length of the (switch, length) optimum when
    the shortest word is not switch-minimal.
    """

    switch: int
    length: int | None = None
    optimal_count: int | None = None
    shortest_word: str | None = None
    shortest_switch: int | None = None
    best_switch_length: int | None = None


_FIXTURE_TABLES: dict[str, tuple[tuple[int, int], ...]] = {
    # (a, b) per state, transcribed from the published extremal examples
    "t3": ((0, 0), (0, 2), (2, 1)),
    "t4": ((0, 2), (2, 1), (1, 3), (1, 0)),
    "t5": ((0, 1), (1, 2), (3, 0), (4, 3), (2, 0)),
    "t6": ((0, 1), (1, 3), (2, 4), (4, 0), (3, 5), (3, 2)),
    "t7": ((0, 2), (1, 4), (3, 5), (2, 1), (2, 3), (6, 0), (5, 6)),
    "t8a": ((0, 2), (1, 4), (3, 0), (2, 7), (5, 1), (6, 3), (7, 6), (4, 3)),
    "t9a": ((0, 1), (2, 0), (1, 3), (7, 4), (5, 3), (4, 5), (7, 2), (6, 8), (8, 7)),
    "t10": ((0, 1), (2, 0), (1, 3), (7, 4), (5, 3), (4, 5), (7, 2), (6, 8), (9, 7), (8, 9)),
    "t11": ((0, 1), (2, 0), (1, 3), (7, 4), (5, 3), (4, 5), (7, 2), (6, 8), (9, 7), (8, 10), (10, 9)),
    # the second published examples for n = 8 and 9 are members of A_n
    "t8b": a_family(8).rows,
    "t9b": a_family(9).rows,
}

_T7_WORDS = tuple(
    "abbabab" + mid + "babbababbabbababba"
    for mid in ("abbaaba", "abbabab", "babbaba")
)

_FIXTURE_EXPECTATIONS: dict[str, FixtureExpectation] = {
    "t3": FixtureExpectation(switch=3, length=3, optimal_count=1, shortest_word="aba"),
    "t4": FixtureExpectation(switch=7, length=8, optimal_count=1, shortest_word="ababbaba"),
    "t5": FixtureExpectation(switch=11, length=15, optimal_count=1,
                             shortest_word="baababaababbaab"),
    "t6": FixtureExpectation(switch=19, length=23, optimal_count=1,
                             shortest_word="ababbababab" + "bababaabbaba"),
    "t7": FixtureExpectation(switch=25, length=32, optimal_count=3),
    "t8a": FixtureExpectation(
        switch=31, length=42, optimal_count=1,
        shortest_word="b" + "aaa" + "ba" * 3 + "a" + "ba" * 4 + "ab" * 2
        + "ba" * 3 + "ab" * 2 + "ba" * 2 + "a" + "ab" * 2,
        shortest_switch=33, best_switch_length=43),
    "t8b": FixtureExpectation(switch=31),
    "t9a": FixtureExpectation(
        switch=41, length=49, optimal_count=1,
        shortest_word="bb" + "ab" * 4 + "b" + "ab" * 5 + "b" + "ab" * 5 + "b"
        + "ba" * 3 + "ab" * 2 + "bb" + "ab" * 2),
    "t9b": FixtureExpectation(switch=41),
    "t10": FixtureExpectation(
        switch=53, length=63, optimal_count=1,
        shortest_word="bb" + "ab" * 4 + "b" + "ab" * 5 + "b" + "ab" * 6
        + "ba" * 3 + "ab" * 3 + "b" + "ba" * 3 + "ab" * 2 + "bb" + "ab" * 2),
    "t11": FixtureExpectation(
        switch=65, length=77, optimal_count=1,
        shortest_word="bb" + "ab" * 4 + "b" + "ab" * 5 + "b" + "ab" * 6
        + "ba" * 3 + "ab" * 4 + "ba" * 3 + "ab" * 3 + "b" + "ba" * 3
        + "ab" * 2 + "bb" + "ab" * 2),
}

FIXTURE_NAMES = tuple(_FIXTURE_EXPECTATIONS)


def fixture(name: str) -> Dfa:
    """One of the named extremal automata; t8b and t9b are a_family(8) and (9)."""
    try:
        table = _FIXTURE_TABLES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None
    return Dfa(table)


def fixture_expectation(name: str) -> FixtureExpectation:
    try:
        return _FIXTURE_EXPECTATIONS[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}") from None


def t7_shortest_words() -> tuple[Word, Word, Word]:
    """The three shortest synchronizing words of fixture t7."""
    return tuple(Word.from_letters(w) for w in _T7_WORDS)
