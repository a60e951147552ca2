"""Core DFA model: transition tables, words, state sets, isomorphism
conventions, and the plain-text interchange format.

States are indexed 0..n-1 and symbols 0..k-1 (rendered 'a', 'b', ...).
State sets are plain ints used as bit vectors: bit q is set iff state q
is a member.  A `Dfa` may have any number of states; each operation that
grows faster than its table refuses sizes past its own bound.
"""

from __future__ import annotations

from enum import Enum
from operator import index as _as_int
from typing import Iterable, Iterator


class DfaParseError(ValueError):
    """Input that is not in the DFA text format."""


class IsoConvention(Enum):
    """Which relabelings count as isomorphisms for the canonical forms of
    a search report (`search._canonical_tables`)."""

    STATES_ONLY = "states"
    STATES_AND_SYMBOLS = "states+symbols"


class Dfa:
    """Complete deterministic transition table over n states and k symbols.

    `rows[q][s]` is the successor of state q under symbol s.  Instances are
    immutable and hashable.
    """

    __slots__ = ("n", "k", "rows")

    def __init__(self, rows: Iterable[Iterable[int]]):
        tbl = tuple(tuple(_as_int(t) for t in row) for row in rows)
        if not tbl:
            raise ValueError("a DFA needs at least one state")
        n = len(tbl)
        k = len(tbl[0])
        if k < 1:
            raise ValueError("a DFA needs at least one symbol")
        for row in tbl:
            if len(row) != k:
                raise ValueError("ragged transition table")
            for t in row:
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range [0, {n})")
        self.n = n
        self.k = k
        self.rows = tbl

    def column(self, s: int) -> tuple[int, ...]:
        """The transformation of symbol s as a tuple indexed by state."""
        return tuple(row[s] for row in self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dfa) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Dfa({list(map(list, self.rows))!r})"


class Word:
    """A finite sequence of symbol indices.

    Words are immutable; `switch_count` is the length after collapsing each
    maximal run of equal symbols to a single symbol.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[int] = ()):
        syms = tuple(_as_int(s) for s in symbols)
        for s in syms:
            if s < 0:
                raise ValueError(f"negative symbol index {s}")
        self.symbols = syms

    @classmethod
    def from_letters(cls, text: str) -> "Word":
        """Parse a plain word string; whitespace is ignored."""
        syms = []
        for ch in text:
            if ch.isspace():
                continue
            code = ord(ch) - ord("a")
            if not 0 <= code < 26:
                raise ValueError(f"invalid word letter {ch!r}")
            syms.append(code)
        return cls(syms)

    @property
    def switch_count(self) -> int:
        return switch_count(self.symbols)

    def letters(self) -> str:
        """Render as the canonical plain string over 'a'..'z'."""
        if any(s >= 26 for s in self.symbols):
            raise ValueError("cannot render words over more than 26 symbols")
        return "".join(chr(ord("a") + s) for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        try:
            return f"Word({self.letters()!r})"
        except ValueError:
            return f"Word({self.symbols!r})"


def switch_count(word: Iterable[int]) -> int:
    """Length of the word after collapsing consecutive equal symbols."""
    count = 0
    prev = None
    for s in word:
        if s != prev:
            count += 1
            prev = s
    return count


# ---------------------------------------------------------------------------
# State sets (int bit vectors)
# ---------------------------------------------------------------------------

def full_set(n: int) -> int:
    """The set of all n states."""
    return (1 << n) - 1


def state_set(states: Iterable[int]) -> int:
    bits = 0
    for q in states:
        bits |= 1 << q
    return bits


def union_table(bits: Iterable[int]) -> list[int]:
    """table[m] = the union of bits[i] over the set bits i of m, built by
    doubling: [0] for no bits.  A zero bits[i] doubles the table as it is."""
    table = [0]
    for b in bits:
        table += [u | b for u in table] if b else table
    return table


def set_members(bits: int) -> list[int]:
    members = []
    while bits:
        low = bits & -bits
        members.append(low.bit_length() - 1)
        bits ^= low
    return members


def is_singleton(bits: int) -> bool:
    return bits != 0 and bits & (bits - 1) == 0


def apply_set(dfa: Dfa, bits: int, word: Iterable[int]) -> int:
    """Elementwise image of a state set under a word."""
    if bits >> dfa.n:
        raise ValueError("state set has bits beyond the automaton's states")
    rows = dfa.rows
    k = dfa.k
    for s in word:
        if not 0 <= s < k:
            raise ValueError(f"symbol index {s} out of range [0, {k})")
        new = 0
        rest = bits
        while rest:
            low = rest & -rest
            new |= 1 << rows[low.bit_length() - 1][s]
            rest ^= low
        bits = new
    return bits


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def serialize_dfa(dfa: Dfa) -> str:
    """Bit-exact text format: header 'n k', then one row of k targets per state."""
    lines = [f"{dfa.n} {dfa.k}"]
    for row in dfa.rows:
        lines.append(" ".join(str(t) for t in row))
    return "\n".join(lines) + "\n"


def parse_dfa(text: str) -> Dfa:
    """Parse the text format; '#' starts a comment, blank lines are skipped."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise DfaParseError("empty input")
    header = lines[0].split()
    if len(header) != 2:
        raise DfaParseError(f"header must be 'n k', got {lines[0]!r}")
    try:
        n, k = int(header[0]), int(header[1])
    except ValueError:
        raise DfaParseError(f"header must be 'n k', got {lines[0]!r}") from None
    if n < 1 or k < 1:
        raise DfaParseError(f"n and k must be positive, got {n} {k}")
    body = lines[1:]
    if len(body) != n:
        raise DfaParseError(f"expected {n} rows, got {len(body)}")
    rows = []
    for i, line in enumerate(body):
        tokens = line.split()
        if len(tokens) != k:
            raise DfaParseError(f"row {i}: expected {k} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                t = int(tok)
            except ValueError:
                raise DfaParseError(f"row {i}: entry {tok!r} is not an integer") from None
            if not 0 <= t < n:
                raise DfaParseError(f"row {i}: entry {t} out of range [0, {n})")
            row.append(t)
        rows.append(row)
    return Dfa(rows)

