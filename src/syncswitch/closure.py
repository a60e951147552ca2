"""Power closure and the two switch-count-preserving automaton transforms.

The power closure extends the alphabet with every distinct non-identity
functional power of a symbol; its shortest synchronizing word length equals
the minimal switch count of the original automaton.
"""

from __future__ import annotations

from .automaton import Dfa

# A symbol has up to n + g(n) distinct powers, each kept as a column; Landau's
# g(32) = 5,460 keeps every n <= 32 inside this bound, but g(64) = 2,042,040.
_MAX_POWERS = 1 << 16


def power_closure(dfa: Dfa) -> tuple[Dfa, tuple[tuple[int, int], ...]]:
    """Extend the alphabet with all distinct non-identity powers a^e, e > 1.

    Original symbols are always kept, even when they act as the identity;
    an added power must differ from the identity and from every column
    already present.  The result is power closed: any further power of a
    closure symbol is the identity or an existing column.  Refuses a
    symbol with more than _MAX_POWERS distinct powers.

    Returns the closure and each closure symbol's provenance as (base
    symbol, exponent): the original symbols first, with exponent 1, then
    the added powers grouped by base symbol with increasing exponent.
    """
    n, k = dfa.n, dfa.k
    identity = tuple(range(n))
    columns = [dfa.column(s) for s in range(k)]
    provenance = [(s, 1) for s in range(k)]
    present = set(columns)
    for s in range(k):
        base = columns[s]
        seen_powers = {base}
        power = base
        exp = 1
        while True:
            power = tuple(base[q] for q in power)
            exp += 1
            if power in seen_powers:
                break  # the power sequence has cycled; all powers visited
            seen_powers.add(power)
            if len(seen_powers) > _MAX_POWERS:
                raise ValueError(f"symbol {s} has more than {_MAX_POWERS:,} distinct powers")
            if power != identity and power not in present:
                columns.append(power)
                provenance.append((s, exp))
                present.add(power)
    rows = [[col[q] for col in columns] for q in range(n)]
    return Dfa(rows), tuple(provenance)


def f_transform(dfa: Dfa) -> Dfa:
    """Double the states and add a fresh symbol c.

    States q keep their index; their primed copies q' sit at q + n.  Old
    symbols fix every plain state and act as the original transitions on
    primed states; c maps q to q' and fixes primed states.  For a
    synchronizing input, the minimal switch count of the result is twice
    the input's shortest synchronizing word length.
    """
    n, k = dfa.n, dfa.k
    rows = []
    for q in range(n):
        rows.append([q] * k + [q + n])
    for q in range(n):
        rows.append([dfa.rows[q][s] for s in range(k)] + [q + n])
    return Dfa(rows)


def f2_transform(dfa: Dfa) -> Dfa:
    """Binary variant of the transform, tripling the states instead.

    Requires a two-symbol input.  The fresh symbol of `f_transform` is
    simulated by the word ab through an extra layer of states: plain q go
    a -> q'' and b -> q; primed q' carry the original transitions; doubly
    primed q'' go a -> q'' and b -> q'.  Copies sit at q + n and q + 2n.
    For a synchronizing input A, sw(F2(A)) = 2 ssl(A) if some shortest
    synchronizing word of A ends in b, and 2 ssl(A) + 1 otherwise: each
    letter x of A is read as "a b x", so a word ending in a leaves one
    trailing run that nothing absorbs.
    """
    if dfa.k != 2:
        raise ValueError(f"f2_transform needs a binary automaton, got k={dfa.k}")
    n = dfa.n
    rows = []
    for q in range(n):
        rows.append([q + 2 * n, q])
    for q in range(n):
        rows.append([dfa.rows[q][0], dfa.rows[q][1]])
    for q in range(n):
        rows.append([q + 2 * n, q + n])
    return Dfa(rows)
