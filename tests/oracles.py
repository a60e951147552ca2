"""Brute-force reference computations for validating the search engines.

Everything here works straight from definitions (word enumeration,
elementwise image application, and relabeling one candidate at a time);
none of it shares code with the search engines it is used to check.
"""

from itertools import permutations, product

from syncswitch.automaton import Dfa, IsoConvention, apply_set, full_set, is_singleton, switch_count


def decode_table(n, k, index):
    """Index -> transition table, mixed radix, flat position q*k+s, big-endian."""
    entries = [0] * (n * k)
    for pos in range(n * k - 1, -1, -1):
        index, entries[pos] = divmod(index, n)
    return tuple(tuple(entries[q * k:(q + 1) * k]) for q in range(n))


def enumerate_sync_words(dfa, max_len):
    """Yield every synchronizing word (as a tuple) of length <= max_len."""
    full = full_set(dfa.n)
    for length in range(0, max_len + 1):
        for word in product(range(dfa.k), repeat=length):
            if is_singleton(apply_set(dfa, full, word)):
                yield word


def brute_shortest_length(dfa, max_len):
    """Smallest length of a synchronizing word, or None up to max_len."""
    full = full_set(dfa.n)
    for length in range(0, max_len + 1):
        for word in product(range(dfa.k), repeat=length):
            if is_singleton(apply_set(dfa, full, word)):
                return length
    return None


def brute_min_switch(dfa, max_len):
    """Smallest switch count of a synchronizing word of length <= max_len."""
    best = None
    for word in enumerate_sync_words(dfa, max_len):
        sw = switch_count(word)
        if best is None or sw < best:
            best = sw
    return best


def _distinct_power_exponents(dfa, s):
    """Exponents 1..m with x^1..x^m the distinct powers of symbol x = s."""
    column = dfa.column(s)
    seen = set()
    power = column
    while power not in seen:
        seen.add(power)
        power = tuple(column[q] for q in power)
    return range(1, len(seen) + 1)


def brute_min_switch_by_runs(dfa, max_runs):
    """Smallest switch count of a synchronizing word, or None up to max_runs.

    Words are enumerated run by run: each run is one of the distinct
    powers x^1..x^m of a symbol x, applied with `apply_set`, and the images
    of all run sequences of one length are kept as a set.  The lower bound
    is complete because the powers of a transformation on finitely many
    states repeat: x^(m+1) equals some earlier x^j, so every x^e with
    e >= 1 acts as one of x^1..x^m, and every word with r runs has the
    image of some sequence of r listed runs.  Conversely a sequence of r
    listed runs is a word with at most r runs (adjacent runs of one symbol
    merge), so the first r at which a singleton appears is the minimum, and
    no word with fewer runs synchronizes.
    """
    runs = [(s,) * e for s in range(dfa.k) for e in _distinct_power_exponents(dfa, s)]
    images = {full_set(dfa.n)}
    for count in range(max_runs + 1):
        if any(is_singleton(bits) for bits in images):
            return count
        images = {apply_set(dfa, bits, run) for bits in images for run in runs}
    return None


def brute_count_shortest(dfa, length):
    """Number of synchronizing words of exactly the given length."""
    full = full_set(dfa.n)
    return sum(
        1 for word in product(range(dfa.k), repeat=length)
        if is_singleton(apply_set(dfa, full, word))
    )


def brute_count_switch_then_length(dfa, switch, length):
    """Number of synchronizing words with exactly the given switch count and length."""
    full = full_set(dfa.n)
    return sum(
        1 for word in product(range(dfa.k), repeat=length)
        if switch_count(word) == switch and is_singleton(apply_set(dfa, full, word))
    )


def brute_best_switch_then_length(dfa, max_len):
    """Lexicographically minimal (switch count, length) over words <= max_len."""
    best = None
    for word in enumerate_sync_words(dfa, max_len):
        cost = (switch_count(word), len(word))
        if best is None or cost < best:
            best = cost
    return best


def brute_canonical_form(dfa, convention):
    """Lexicographically minimal table over all relabelings, one at a time.

    Under STATES_ONLY only states are relabeled; under STATES_AND_SYMBOLS
    the symbols are permuted too.
    """
    n, k = dfa.n, dfa.k
    if convention is IsoConvention.STATES_AND_SYMBOLS:
        symbol_orders = list(permutations(range(k)))
    else:
        symbol_orders = [tuple(range(k))]
    rows = dfa.rows
    best = None
    for order in permutations(range(n)):
        # order[p] = old state placed at new index p
        rank = [0] * n
        for p, q in enumerate(order):
            rank[q] = p
        for sym_order in symbol_orders:
            cand = tuple(
                tuple(rank[rows[order[p]][sym_order[t]]] for t in range(k))
                for p in range(n)
            )
            if best is None or cand < best:
                best = cand
    return Dfa(best)
