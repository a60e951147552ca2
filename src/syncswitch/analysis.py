"""Distance and measure machinery on the signed double cover of `a_family`,
for state counts divisible by 6.

The signed automaton `b_family(n)` carries a distinguished set S (even
positive and odd negative states) whose synchronization mirrors that of
`a_family(n)`, and C, the ab-cycle through state 2: 2n/3 states on which
the word ab acts as a cyclic permutation.  The asymmetric distance d and
the max-min measure mu defined from it control how fast any synchronizing
word can make progress.
Both come from one signed cycle position per state (`DistanceContext.pos`):
d is a difference of positions mod 2n/3, and mu is the largest cyclic gap
of a set's positions, in S and in -S alike.  `verify_lemmas` checks the
published structural facts exhaustively where feasible and by fixed-seed
sampling elsewhere, within `_CLOSURE_CAP` nodes.
The pair-increase bound and the lemma closures walk state pairs and sets
with the level search of `synchro` (`_levels`), the one that computes the
shortest length and the minimal switch count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

from .automaton import Dfa, Word, set_members, state_set, union_table
from .families import b_family, negate_index, s_set, signed_to_index
from .synchro import _levels, _slice_maps, subset_images


@dataclass
class DistanceContext:
    """The distance model of `b_family(n)`: the classes S and -S, C (the
    ab-cycle through state 2), and one cycle position per state.

    For i in S, pos[i] is the position on C of i(ab)^(n/3), numbered along
    the ab-cycle from state 2; for i in -S it is minus the position of -i.
    Then d(i, j) = (pos[j] - pos[i]) mod 2n/3, read as 2n/3 when 0, in both
    classes.  `positions` reads the positions of whole sets: a
    `synchro._slice_maps` map from state sets to the bit masks of their
    members' positions mod 2n/3.
    """

    n: int
    dfa: Dfa                       # b_family(n)
    cycle_len: int                 # 2n/3
    s_bits: int                    # the set S
    neg_s_bits: int                # -S, the complement of S
    c_bits: int                    # C, the ab-cycle through state 2
    pos: list[int]                 # signed cycle position, per index
    positions: Callable[[Iterable[int]], list[int]]  # state sets -> position masks

    def distance_by_index(self, i: int, j: int) -> int:
        """Asymmetric distance d(i, j) of two states both in S or both in -S.

        On S, d(i, j) is the least k >= 1 with i(ab)^(n/3+k) = j(ab)^(n/3);
        values lie in [1, 2n/3] with d(i, i) = 2n/3.  On -S,
        d(i, j) = d(-j, -i).
        """
        if (self.s_bits >> i ^ self.s_bits >> j) & 1:
            raise ValueError("distance needs both states in S or both in -S")
        return (self.pos[j] - self.pos[i] - 1) % self.cycle_len + 1


def distance_context(n: int) -> DistanceContext:
    if n < 6 or n % 6:
        raise ValueError("the analysis is defined for n divisible by 6")
    dfa = b_family(n)
    rows = dfa.rows
    step_ab = [rows[rows[i][0]][1] for i in range(2 * n)]

    cycle_len = 2 * n // 3
    # walk the ab-cycle from state 2: its states are C, numbered in order
    start = signed_to_index(2, n)
    on_cycle = {}
    cur = start
    for p in range(cycle_len):
        on_cycle[cur] = p
        cur = step_ab[cur]
    if cur != start or len(on_cycle) != cycle_len:
        raise AssertionError("ab does not cycle C as expected")
    c_bits = state_set(on_cycle)

    s_bits = s_set(n)
    pos = [0] * (2 * n)
    for i in set_members(s_bits):
        cur = i
        for _ in range(n // 3):
            cur = step_ab[cur]
        pos[i] = on_cycle[cur]
        pos[negate_index(i, n)] = -pos[i]
    return DistanceContext(n=n, dfa=dfa, cycle_len=cycle_len, s_bits=s_bits,
                           neg_s_bits=_negate_bits(s_bits, n), c_bits=c_bits, pos=pos,
                           positions=_slice_maps(2 * n, [[1 << p % cycle_len for p in pos]])[0])


def _negate_bits(bits: int, n: int) -> int:
    """The negated set: index i -> (i + n) mod 2n rotates the 2n-bit set by n."""
    return (bits >> n | bits << n) & ((1 << 2 * n) - 1)


def measure(ctx: DistanceContext, bits: int) -> int:
    """Max-min distance of a nonempty set contained in S or in -S.

    Computed as the largest cyclic gap of the members' positions mod 2n/3:
    the distance from a member to its nearest other member is the gap from
    its position to the next distinct one.  1 for S itself, 2n/3 when all
    members share one position.  The largest gap is one more than the
    longest run of unset bits around the cyclic bit mask of the positions.
    """
    return _measures(ctx, [bits])[0]


def _measures(ctx: DistanceContext, sets: list[int]) -> list[int]:
    """The `measure` of each set, their masks from one `ctx.positions` call."""
    for bits in sets:
        if bits == 0:
            raise ValueError("measure of the empty set is undefined")
        if bits & ~ctx.s_bits and bits & ~ctx.neg_s_bits:
            raise ValueError("measure needs a set inside S or inside -S")
    cl = ctx.cycle_len
    mus = []
    for mask in ctx.positions(sets):
        # the unset bits of the mask written twice: every cyclic run of them
        # appears whole, and none is longer than it is around the cycle
        gaps = ~(mask | mask << cl) & ((1 << 2 * cl) - 1)
        gap = 1
        while gaps:  # each pass shortens every run by one
            gaps &= gaps >> 1
            gap += 1
        mus.append(gap)
    return mus


def _pair_images(dfa: Dfa) -> list:
    """images[s](pairs): the image under symbol s of each ordered state pair."""
    rows = dfa.rows
    return [lambda pairs, s=s: [(rows[p][s], rows[q][s]) for p, q in pairs] for s in range(dfa.k)]


def min_sc_pair_increase(ctx: DistanceContext, k: int) -> int:
    """Minimal switch count of a word raising some admissible pair distance to k+1.

    Minimum over ordered pairs p, q in C with d(p, q) <= k-1 (exactly k-1
    when k = 2n/3-1) and words w with d(pw, qw) = k+1: the level search of
    `synchro`, one symbol run a step, over ordered pairs, stopped at the
    first pass that reaches a goal pair.  The goals are every pair of S x S
    or -S x -S at distance k+1, merged pairs included when k+1 = 2n/3.
    Computing them up front answers as testing each reached pair does: the
    reached pairs lie in L3's closure of C x C, where no pair mixes S and -S
    (L3 takes the distance of each of them at n = 6, 12 and 18).
    """
    cl = ctx.cycle_len
    if not 2 <= k <= cl - 1:
        raise ValueError(f"k must be in [2, {cl - 1}], got {k}")
    d = ctx.distance_by_index
    c_members = set_members(ctx.c_bits)
    starts = [(p, q) for p in c_members for q in c_members
              if p != q and d(p, q) <= k - 1 and (k < cl - 1 or d(p, q) == k - 1)]
    goals = {(p, q) for bits in (ctx.s_bits, ctx.neg_s_bits)
             for p in set_members(bits) for q in set_members(bits) if d(p, q) == k + 1}
    for level, pairs in _levels(starts, _pair_images(ctx.dfa), runs=True):
        if not goals.isdisjoint(pairs):
            return level
    raise ValueError(f"no word increases an admissible pair distance to {k + 1}")


def pair_increase_bound(n: int, k: int) -> int:
    """Closed form the pair-increase search must attain."""
    if 2 <= k <= n // 3:
        return 2 * n // 3 + 2 * k - 1
    return 2 * n - 2 * k + 1


def canonical_word(n: int) -> Word:
    """The unique minimal-switch, then minimal-length reset word of a_family(n).

    Concatenation of one stage word per measure level: a rotation prefix,
    the middle stages b(ba)^k(ab)^(n/3), the turning stage b(ba)^(2n/3-1)b,
    the closing stages (ba)^(n-k)b, and a final b.
    """
    if n < 6 or n % 6:
        raise ValueError("canonical_word needs n divisible by 6")
    a, b = 0, 1
    n3 = n // 3
    parts: list[int] = []
    parts += [b] + [a, b] * (n3 - 1)
    for k in range(2, n3):
        parts += [b] + [b, a] * k + [a, b] * n3
    parts += [b] + [b, a] * (2 * n3 - 1) + [b]
    for k in range(n3 + 1, 2 * n3):
        parts += [b, a] * (n - k) + [b]
    parts += [b]
    return Word(parts)


# ---------------------------------------------------------------------------
# Lemma verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    lemma: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"LEMMA {c.lemma} {'PASS' if c.passed else 'FAIL'} {c.detail}"
            for c in self.checks
        ]
        return "\n".join(lines) + "\n"


# Most nodes a `_closure` may hold.  L1's closure from every subset of C passes
# it from n = 24 on, so `verify_lemmas` refuses those n up front.
_CLOSURE_CAP = 200_000
# Sample budget of L6 and L-setpair past exhaustive reach, drawn with seed 0.
_SAMPLES = 10_000


def _closure(starts, images) -> set:
    """The starts and every node that some word leads to from one of them.

    The level search of `synchro`, one letter a step, from all starts at
    once.  `images[s]` maps a batch of nodes to their images under symbol s.
    Raises ValueError past _CLOSURE_CAP, checked after each symbol pass:
    that raises on the same inputs as a check before each added node, and
    overshoots the cap by at most one pass, at most one frontier.
    """
    seen = set(starts)
    for _, nodes in _levels(seen, images, runs=False):
        seen |= nodes
        if nodes and len(seen) > _CLOSURE_CAP:
            raise ValueError(f"closure exceeded its cap of {_CLOSURE_CAP:,} nodes")
    return seen


def _sampled(pool: list[int], members: list[int], smallest: int, rng: random.Random) -> list[int]:
    """The first _SAMPLES sets of `pool`, which is topped up in place to
    _SAMPLES with random subsets of `members`: a size drawn uniformly from
    [smallest, len(members)], then that many members."""
    while len(pool) < _SAMPLES:
        pool.append(state_set(rng.sample(members, rng.randint(smallest, len(members)))))
    return pool[:_SAMPLES]


def _walk(tables: list[bytes], states: bytes, word: list[int]) -> bytes:
    """The states that `word` leads `states` to, in order: one
    `bytes.translate` per letter, through `tables[s]`, symbol s's column
    padded to 256 bytes.  Each state fits in one byte: `verify_lemmas`
    refuses n >= 24, so `b_family(n)` has at most 46 states."""
    for s in word:
        states = states.translate(tables[s])
    return states


def verify_lemmas(n: int) -> LemmaReport:
    """Check the structural lemmas behind the a_family switch count.

    Exhaustive over pairs, triples and subsets of C, and over subsets of S
    while they fit in _SAMPLES; uniformly sampled (seed 0) beyond that.
    Failures come back as report entries, not exceptions.  Refuses n >= 24
    before building anything: L1's closure of the subsets of C passes
    _CLOSURE_CAP there.
    """
    if n >= 24:
        raise ValueError(f"verify_lemmas needs n < 24: from n = 24 on, L1's closure passes "
                         f"the cap of {_CLOSURE_CAP:,} nodes")
    ctx = distance_context(n)
    rng = random.Random(0)
    dfa = ctx.dfa
    cl = ctx.cycle_len
    checks: list[LemmaCheck] = []

    n_idx = signed_to_index(n, n)
    neg_n_idx = signed_to_index(-n, n)
    neg_c_bits = _negate_bits(ctx.c_bits, n)

    # L1: images of subsets of C that contain the top state stay inside C.
    c_members = set_members(ctx.c_bits)
    subset_pool = union_table(1 << q for q in c_members)[1:]
    set_images = subset_images(dfa)
    images = _closure(subset_pool, set_images)
    failures = 0
    for img in images:
        if (img >> n_idx) & 1 and img & ~ctx.c_bits:
            failures += 1
        if (img >> neg_n_idx) & 1 and img & ~neg_c_bits:
            failures += 1
    checks.append(LemmaCheck("L1", failures == 0,
                             f"subsets={len(subset_pool)} images={len(images)} violations={failures}"))

    # L2: the four distance identities, exhaustive over S^3.
    s_members = set_members(ctx.s_bits)
    d = ctx.distance_by_index
    failures = 0
    for i in s_members:
        if d(i, i) != cl:
            failures += 1
        for j in s_members:
            if ctx.pos[i] == ctx.pos[j]:  # one projection: d = 2n/3 both ways
                continue
            dij = d(i, j)
            if not 0 < dij < cl:
                failures += 1
            if dij + d(j, i) != cl:
                failures += 1
            for r in s_members:
                if dij < d(i, r) and dij + d(j, r) != d(i, r):
                    failures += 1
    checks.append(LemmaCheck("L2", failures == 0,
                             f"states={len(s_members)} violations={failures}"))

    # L3: a C-pair whose distance reaches 2n/3 has actually merged.
    pairs = _closure([(p, q) for p in c_members for q in c_members], _pair_images(dfa))
    failures = sum(1 for p, q in pairs if p != q and d(p, q) == cl)
    checks.append(LemmaCheck("L3", failures == 0,
                             f"pairs={len(pairs)} violations={failures}"))

    # L6: measure is a-invariant and grows by at most 1 under b.
    failures = 0
    if (1 << n) <= _SAMPLES:
        s_subsets = union_table(1 << q for q in s_members)[1:]
    else:
        s_subsets = _sampled([state_set(c) for size in (2, 3) for c in combinations(s_members, size)],
                             s_members, 1, rng)
    columns = [s_subsets] + [image(s_subsets) for image in set_images]
    for bits, mu, mu_a, mu_b in zip(s_subsets, *(_measures(ctx, sets) for sets in columns)):
        if mu_a != mu:
            failures += 1
        if mu_b > mu + 1:
            failures += 1
        if not (bits >> n_idx) & 1 and mu_b != mu:
            failures += 1
    checks.append(LemmaCheck("L6", failures == 0,
                             f"subsets={len(s_subsets)} violations={failures}"))

    # L7: along the optimal word, measure-raising b steps start inside C or -C.
    word = canonical_word(n)
    bits = ctx.s_bits
    mu = measure(ctx, bits)
    failures = 0
    raises_seen = 0
    for s in word:
        [nxt] = set_images[s]([bits])
        mu_next = measure(ctx, nxt)
        if s == 1 and mu_next == mu + 1:
            raises_seen += 1
            if bits & ~ctx.c_bits and bits & ~neg_c_bits:
                failures += 1
        bits = nxt
        mu = mu_next
    checks.append(LemmaCheck("L7", failures == 0,
                             f"raising_steps={raises_seen} violations={failures}"))

    # L-setpair: some pair realizes the measure before and after any word.
    # Checked on subsets of C and -C, the scope on which the switch-count
    # bound applies it.  On arbitrary subsets of S the statement can fail:
    # a member equivalent to the top state takes the exceptional distance
    # jump under b, which the accompanying case analysis does not cover.
    # Each word walks the members at once, one byte-translation per letter.
    tables = [bytes(dfa.column(s)).ljust(256, b"\0") for s in range(dfa.k)]
    failures = 0
    pool = _sampled(subset_pool + [_negate_bits(bits, n) for bits in subset_pool], c_members, 2, rng)
    for bits, mu_a in zip(pool, _measures(ctx, pool)):
        members = set_members(bits)
        targets = _walk(tables, bytes(members), rng.choices((0, 1), k=rng.randint(1, 4 * n)))
        mu_w = measure(ctx, state_set(targets))
        ok = False
        for p, pw in zip(members, targets):
            for q, qw in zip(members, targets):
                if d(p, q) <= mu_a and d(pw, qw) == mu_w:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            failures += 1
    checks.append(LemmaCheck("L-setpair", failures == 0,
                             f"cases={len(pool)} violations={failures} scope=C,-C"))

    return LemmaReport(tuple(checks))

