"""Construction and verification of height-N tower covers.

A tower is a clopen base together with its iterated one-step preimages;
a cover is finitely many towers of equal height whose levels exhaust the
state space.  The construction follows the two-part scheme: states in the
backward cone of the merge ("special") states are covered by two towers
per special state built from its preimage levels, and the rest is swept
by a clopen set W grown through repeated base extensions, yielding at
most 2q + 2 towers for q special states.

Every metric choice of the classical argument is replaced by a cylinder
choice (single states at current resolution) and every required
disjointness or idempotence property is checked exactly, once, where it
can fail; a failing check reports its clause.  build_rokhlin_cover runs
the independent verifier before returning.

Of the sweep base W, three properties hold by construction, as ``image``
and ``preimage`` distribute over unions and every state has a successor:
W holds its first state (it only grows); every state swept over lies in
W's first 2N preimage levels (one no earlier block swept lies in level N
of its own); and ``preimage(image(W, i), i) == W`` for i < N.  For the
last, the first state passes the U-idempotence hypothesis, and the block
``image(x, N)`` of every later state x collapses level by level: the
swept states ``rest`` lie outside every merge state's first 2N preimage
levels, so each state of ``image(x, N + j + 1)`` with j < N - 1 is not a
merge state, and its one predecessor lies in the block level before it,
``image(x, N + j)``.  By induction on i, W collapses too.  This is proved
here and tested, not re-checked.  The fourth property, that W's levels
N..2N-1 are pairwise disjoint, can fail; it is checked once, on the
levels the sweep towers are cut from.

With finitely many left special states the cover is a few merge and
branch states joined by long arcs (the reduced Rauzy graph), so nearly
every level the sweep builds holds one state.  Such a level is stepped by
state number, reading its state's one successor or predecessor; from the
first state with two, the walk goes on over sets.  A one-state set is the
same however it is reached, so every set the sweep returns is the set
walk's, as is the order in which the base takes its states.  The sweep
still takes the states in state-number order.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .certificates import Certificate, Clause
from .errors import (
    ConstructionFailed,
    DepthInsufficient,
    HypothesisViolated,
    InvalidSpec,
    NotSurjective,
    PeriodicWitness,
)
from .systems import ClopenSet, FiniteSymbolicSystem, overlapping_pair


class RokhlinTower(NamedTuple):
    base: ClopenSet
    height: int
    levels: tuple[ClopenSet, ...]

    @classmethod
    def from_base(cls, sys: FiniteSymbolicSystem, base, height: int) -> "RokhlinTower":
        return cls(frozenset(base), height, tuple(sys.preimage_levels(base, height)))


class RokhlinCover(NamedTuple):
    height: int
    towers: tuple[RokhlinTower, ...]


def _deep_levels_overlap(sys: FiniteSymbolicSystem, base, N: int) -> bool:
    """Whether two of the preimage levels N..2N-1 of ``base`` meet."""
    return overlapping_pair(islice(sys.preimage_levels(base, 2 * N), N, None)) is not None


def _swept(sys: FiniteSymbolicSystem, base, N: int) -> set:
    """The union of the first 2N preimage levels of ``base``.  From a
    one-state base the levels step by state number while each state has
    exactly one predecessor, and go on as sets from the first that has not."""
    pred = sys.pred
    level, swept = set(base), set(base)
    steps = 2 * N - 1
    if len(level) == 1:
        (t,) = level
        while steps and len(pred[t]) == 1:
            t = pred[t][0]
            swept.add(t)
            steps -= 1
        level = {t}
    for _ in range(steps):
        level = {s for t in level for s in pred[t]}
        swept |= level
    return swept


def _split_towers(levels, N: int) -> list[RokhlinTower]:
    """Two height-N towers from 2N consecutive preimage levels."""
    return [RokhlinTower(levels[0], N, levels[:N]), RokhlinTower(levels[N], N, levels[N:])]


def check_extension_hypotheses(sys: FiniteSymbolicSystem, U, V, N: int) -> None:
    """The exact preconditions of the base-extension step; raises
    HypothesisViolated naming the first failing clause."""
    U, V = frozenset(U), frozenset(V)
    if _deep_levels_overlap(sys, U, N):
        raise HypothesisViolated("U-deep-preimages-disjoint")
    for i in range(1, N):
        if sys.preimage(sys.image(U, i), i) != U:
            raise HypothesisViolated("U-idempotence", f"i={i}")
    if _deep_levels_overlap(sys, sys.image(V, N), N):
        raise HypothesisViolated("V-pushed-preimages-disjoint")
    for z in V:
        for i in range(1, N):
            if sys.preimage(sys.image({z}, i + N), i) != sys.image({z}, N):
                raise HypothesisViolated("V-collapse", f"state={z} i={i}")


def extend_tower_base(sys: FiniteSymbolicSystem, U, V, N: int) -> ClopenSet:
    """Grow U into a clopen W whose preimage levels absorb V.

    W = U united with the N-step image of the residual of V not already
    swept by the 2N preimage levels of U.  Checked are the hypotheses and,
    as for the sweep base, the one postcondition that can fail.
    """
    U, V = frozenset(U), frozenset(V)
    check_extension_hypotheses(sys, U, V, N)
    W = frozenset(U | sys.image(V - _swept(sys, U, N), N))
    if _deep_levels_overlap(sys, W, N):
        raise DepthInsufficient("deep preimages of W are not pairwise disjoint")
    return W


def _sweep(sys: FiniteSymbolicSystem, rest, N: int) -> ClopenSet:
    """The base W grown over the states ``rest``, which lie outside the
    special cone: the first of them, then the N-step image of each later
    one that no block before it has swept.  The image is walked by state
    number while the successor is unique, and over sets from the first
    state where it is not, so every set, and the order in which ``W``
    takes its states, is the set walk's."""
    succ = sys.succ
    W, swept = set(rest[:1]), _swept(sys, rest[:1], N)
    for x in rest[1:]:
        if x in swept:
            continue
        y, steps = x, N
        while steps and len(succ[y]) == 1:
            y = succ[y][0]
            steps -= 1
        new = {y}
        for _ in range(steps):
            new = {t for s in new for t in succ[s]}
        swept |= _swept(sys, new, N)
        W |= new
    return frozenset(W)


def _towers(sys: FiniteSymbolicSystem, N: int) -> list[RokhlinTower]:
    """One tower of all states at N = 1; above it, two from each special
    state's first 2N preimage levels and two from W swept over the rest."""
    if N == 1:
        return [RokhlinTower.from_base(sys, sys.all_states(), 1)]
    short = sys.min_cycle_length(3 * N)
    if short is not None:
        raise PeriodicWitness(
            f"cycle of length {short} within the 3N window ({3 * N}); "
            "the resolution cannot support towers of this height",
            short,
        )
    towers: list[RokhlinTower] = []
    cone: set = set()
    for w in sys.special_states():
        levels = tuple(sys.preimage_levels({w}, 2 * N))
        if overlapping_pair(levels) is not None:
            raise DepthInsufficient("special cone levels overlap")
        cone.update(*levels)
        towers += _split_towers(levels, N)
    rest = [s for s in range(sys.num_states) if s not in cone]
    if rest:
        first = frozenset(rest[:1])
        check_extension_hypotheses(sys, first, first, N)
        levels = tuple(sys.preimage_levels(_sweep(sys, rest, N), 2 * N))
        if overlapping_pair(levels[N:]) is not None:
            raise DepthInsufficient("deep preimages of W are not pairwise disjoint")
        towers[:0] = _split_towers(levels, N)
    return towers


def build_rokhlin_cover(sys: FiniteSymbolicSystem, N: int) -> RokhlinCover:
    """Cover the state space with at most 2q + 2 towers of height N, where
    the q special states are the merge states of ``sys``."""
    if N < 1:
        raise InvalidSpec(f"tower height N = {N} must be >= 1")
    if not sys.surjective_flag:
        raise NotSurjective("every state needs a predecessor")
    cover = RokhlinCover(height=N, towers=tuple(_towers(sys, N)))
    cert = verify_rokhlin_cover(sys, cover)
    if not cert.passed:
        raise ConstructionFailed(f"verifier rejected the cover: {cert.first_failure()}")
    return cover


def verify_rokhlin_cover(sys: FiniteSymbolicSystem, cover: RokhlinCover) -> Certificate:
    """Independent checker: level recurrence, disjointness inside each
    tower, global covering, and the 2q + 2 bound."""
    clauses = []
    rec_witness = ""
    for t_idx, tower in enumerate(cover.towers):
        if tower.levels[0] != tower.base or len(tower.levels) != tower.height:
            rec_witness = f"tower {t_idx} malformed"
            break
        walk = zip(tower.levels, sys.preimage_levels(tower.base, tower.height))
        bad = next((j for j, (have, want) in enumerate(walk) if have != want), None)
        if bad is not None:
            rec_witness = f"tower {t_idx} level {bad}"
            break
    clauses.append(Clause("level-recurrence", not rec_witness, rec_witness))
    dis_witness = ""
    for t_idx, tower in enumerate(cover.towers):
        pair = overlapping_pair(tower.levels)
        if pair is not None:
            dis_witness = f"tower {t_idx} levels {pair[0]} and {pair[1]} intersect"
            break
    clauses.append(Clause("levels-pairwise-disjoint", not dis_witness, dis_witness))
    missing = sys.all_states().difference(*(lv for t in cover.towers for lv in t.levels))
    witness = f"uncovered states {sorted(missing)[:5]}" if missing else ""
    clauses.append(Clause("global-covering", not missing, witness))
    q = len(sys.special_states())
    bound = 2 * q + 2
    clauses.append(
        Clause(
            "tower-count-bound",
            len(cover.towers) <= bound,
            f"towers={len(cover.towers)} bound={bound} (q={q})",
        )
    )
    heights_ok = all(t.height == cover.height for t in cover.towers)
    clauses.append(Clause("uniform-height", heights_ok, f"height={cover.height}"))
    return Certificate.build(
        kind="rokhlin-cover",
        params={
            "height": cover.height,
            "towers": len(cover.towers),
            "special_count": q,
            "states": sys.num_states,
        },
        clauses=clauses,
    )
