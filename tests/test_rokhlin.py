import random

import pytest

from shiftdim import rokhlin
from shiftdim.cover import build_cover_graph
from shiftdim.errors import HypothesisViolated, NotSurjective, PeriodicWitness
from shiftdim.rokhlin import (
    RokhlinCover,
    RokhlinTower,
    build_rokhlin_cover,
    extend_tower_base,
    verify_rokhlin_cover,
)
from shiftdim.systems import FiniteSymbolicSystem
from shiftdim.words import Alphabet, SubstitutionSpec, fibonacci_spec, thue_morse_spec

from .oracles import SweepFailed, rokhlin_sweep_oracle, special_cone_rest
from .test_amenability import random_branching_system
from .test_words import TRIB_RULES


@pytest.fixture(scope="module")
def fib60():
    graph = build_cover_graph(fibonacci_spec(), 60, 6)
    return graph, graph.system, graph.system.special_states()


def test_trivial_height_one(fib60):
    _, sys, _ = fib60
    cover = build_rokhlin_cover(sys, 1)
    assert len(cover.towers) == 1
    assert cover.towers[0].base == sys.all_states()
    assert verify_rokhlin_cover(sys, cover).passed


def test_fibonacci_cover_height_five(fib60):
    _, sys, specials = fib60
    cover = build_rokhlin_cover(sys, 5)
    q = len(specials)
    assert q == 1
    assert len(cover.towers) <= 2 * q + 2
    cert = verify_rokhlin_cover(sys, cover)
    assert cert.passed, cert.first_failure()


def test_verifier_rejects_hole(fib60):
    _, sys, _ = fib60
    cover = build_rokhlin_cover(sys, 3)
    # remove one state from one level: covering must fail with a witness
    towers = list(cover.towers)
    victim = next(iter(towers[0].levels[1]))
    levels = list(towers[0].levels)
    levels[1] = levels[1] - {victim}
    broken_tower = RokhlinTower(towers[0].base, towers[0].height, tuple(levels))
    broken = RokhlinCover(cover.height, (broken_tower,) + tuple(towers[1:]))
    cert = verify_rokhlin_cover(sys, broken)
    assert not cert.passed
    names = {c.name for c in cert.clauses if not c.passed}
    # the altered level breaks the preimage recurrence (and possibly covering)
    assert "level-recurrence" in names


def test_verifier_rejects_non_preimage_level(fib60):
    _, sys, _ = fib60
    cover = build_rokhlin_cover(sys, 3)
    towers = list(cover.towers)
    levels = list(towers[0].levels)
    levels[2] = levels[2] | {max(sys.all_states() - levels[2])}
    broken_tower = RokhlinTower(towers[0].base, towers[0].height, tuple(levels))
    broken = RokhlinCover(cover.height, (broken_tower,) + tuple(towers[1:]))
    cert = verify_rokhlin_cover(sys, broken)
    assert not cert.passed
    assert any(c.name == "level-recurrence" and not c.passed for c in cert.clauses)


def _cycle(n: int) -> FiniteSymbolicSystem:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0: no special state, so at most
    two towers."""
    return FiniteSymbolicSystem(tuple(map(str, range(n))), tuple(((s + 1) % n,) for s in range(n)))


# clause -> (states of the cycle, tower bases and heights, cover height, witness)
ONE_CLAUSE_FAILS = {
    # a 2-cycle's third preimage level is its base again
    "levels-pairwise-disjoint": (2, [({0}, 3)], 3, "tower 0 levels 0 and 2 intersect"),
    "global-covering": (4, [({0}, 2)], 2, "uncovered states [1, 2]"),
    "tower-count-bound": (3, [({0}, 1), ({1}, 1), ({2}, 1)], 1, "towers=3 bound=2 (q=0)"),
    "uniform-height": (2, [({0, 1}, 1)], 2, "height=2"),
}


@pytest.mark.parametrize("clause", ONE_CLAUSE_FAILS)
def test_verifier_fails_one_clause_on_a_hand_built_cover(clause):
    """The least cover on which one clause fails and every other holds,
    its towers the true preimage levels of their bases."""
    states, towers, height, witness = ONE_CLAUSE_FAILS[clause]
    sys = _cycle(states)
    cover = RokhlinCover(height, tuple(RokhlinTower.from_base(sys, b, h) for b, h in towers))
    cert = verify_rokhlin_cover(sys, cover)
    assert [(c.name, c.witness) for c in cert.clauses if not c.passed] == [(clause, witness)]


def test_periodic_witness_blocks_tall_towers(fib60):
    _, sys, _ = fib60
    # min cycle is 34, so height 12 needs a 36-window: refused
    with pytest.raises(PeriodicWitness):
        build_rokhlin_cover(sys, 12)


def test_extend_tower_base_trivial_residual(fib60):
    _, sys, specials = fib60
    cone = set()
    level = frozenset(specials)
    for _ in range(6):
        cone |= level
        level = sys.preimage(level, 1)
    free = [s for s in range(sys.num_states) if s not in cone]
    U = frozenset({free[0]})
    # V already inside the preimage sweep of U: W == U
    V = sys.preimage(U, 2)
    W = extend_tower_base(sys, U, V, 3)
    assert W == U


def test_extend_tower_base_extends(fib60):
    _, sys, specials = fib60
    cone = set()
    level = frozenset(specials)
    for _ in range(6):
        cone |= level
        level = sys.preimage(level, 1)
    free = [s for s in range(sys.num_states) if s not in cone]
    U, V = frozenset({free[0]}), frozenset({free[7]})
    W = extend_tower_base(sys, U, V, 3)
    assert U <= W
    covered = set()
    layer = W
    for _ in range(6):
        covered |= layer
        layer = sys.preimage(layer, 1)
    assert V <= covered


def test_extend_tower_base_overlapping_preimages_rejected(fib60):
    _, sys, specials = fib60
    # a base containing a state and its predecessor: consecutive deep
    # preimage levels share the predecessor's preimages
    cone = set()
    level = frozenset(specials)
    for _ in range(12):
        cone |= level
        level = sys.preimage(level, 1)
    free = next(s for s in range(sys.num_states) if s not in cone)
    bad = frozenset({free}) | sys.preimage(frozenset({free}), 1)
    with pytest.raises(HypothesisViolated):
        extend_tower_base(sys, bad, frozenset({0}), 5)


def test_shifted_disjointness_inherits(fib60):
    # offsets N..2N-1 disjoint plus onto-ness implies offsets 0..N-1 disjoint
    _, sys, _ = fib60
    cover = build_rokhlin_cover(sys, 5)
    sweep = cover.towers[0].base
    deep = [sys.preimage(sweep, i) for i in range(5, 10)]
    shallow = [sys.preimage(sweep, i) for i in range(5)]
    seen = set()
    for level in deep:
        assert not (level & seen)
        seen |= level
    seen = set()
    for level in shallow:
        assert not (level & seen)
        seen |= level


def _library_sweep(sys, rest, N):
    """The base that ``build_rokhlin_cover`` grows over ``rest``."""
    return rokhlin._sweep(sys, rest, N)


def test_sweep_matches_frozen_union_oracle_on_random_systems():
    rng = random.Random(20)
    grown = 0
    for _ in range(400):
        sys = random_branching_system(rng)
        for N in (2, 3):
            rest = special_cone_rest(sys, N)
            if not rest:
                continue
            # outside the special cone every block collapses, so the
            # oracle, which checks each block, never raises
            expected = rokhlin_sweep_oracle(sys, rest, N)
            assert _library_sweep(sys, rest, N) == expected
            grown += len(expected) > 1
            try:
                cover = build_rokhlin_cover(sys, N)
            except (NotSurjective, PeriodicWitness):
                continue
            assert cover.towers[0].base == expected
    assert grown >= 5


def _sweep_postconditions(sys, rest, N):
    """The sweep base over ``rest``, after asserting the properties it has
    by construction: it holds the first state, its first 2N preimage
    levels hold every state of ``rest``, and it is idempotent below N."""
    W = rokhlin._sweep(sys, rest, N)
    assert rest[0] in W
    assert set(rest) <= set().union(*(sys.preimage(W, i) for i in range(2 * N)))
    for i in range(1, N):
        assert sys.preimage(sys.image(W, i), i) == W, i
    return W


def _ring_with_chords(rng) -> FiniteSymbolicSystem:
    """A ring of 20-160 states with 1-4 chords, each adding a branch state
    and a merge state."""
    n = rng.randint(20, 160)
    succ = [{(s + 1) % n} for s in range(n)]
    for _ in range(rng.randint(1, 4)):
        a, b = rng.sample(range(n), 2)
        succ[a].add(b)
    return FiniteSymbolicSystem(tuple(map(str, range(n))), tuple(tuple(sorted(t)) for t in succ))


def test_sweep_base_keeps_its_postconditions_on_rings_with_chords():
    # the post-conditions build_rokhlin_cover does not check, on every sweep
    # over the states outside the special cone that passes the first
    # state's hypotheses: the base is idempotent below N, and no block
    # fails the oracle's level-by-level collapse check
    rng = random.Random(30)
    seen = {"grown": 0, "hypothesis": 0}
    for _ in range(300):
        sys = _ring_with_chords(rng)
        for N in range(2, 7):
            rest = special_cone_rest(sys, N)
            if not rest:
                continue
            try:
                rokhlin.check_extension_hypotheses(sys, rest[:1], rest[:1], N)
            except HypothesisViolated:
                seen["hypothesis"] += 1
                continue
            W = _sweep_postconditions(sys, rest, N)
            # the oracle raises SweepFailed at the first block that fails
            # to collapse
            assert rokhlin_sweep_oracle(sys, rest, N) == W
            seen["grown"] += len(W) > 1
    assert seen["grown"] >= 1000 and seen["hypothesis"] >= 50, seen


@pytest.mark.parametrize("make, grown", [
    pytest.param(thue_morse_spec, 881, id="tm"),
    pytest.param(lambda: SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES), 642, id="trib"),
])
def test_sweep_matches_frozen_union_oracle_on_front_covers(make, grown):
    # the benchmark's front covers, whose sweep extends its base hundreds
    # of times
    sys = build_cover_graph(make(), 2000, 6).system
    rest = special_cone_rest(sys, 5)
    expected = rokhlin_sweep_oracle(sys, rest, 5)
    assert _sweep_postconditions(sys, rest, 5) == expected
    assert build_rokhlin_cover(sys, 5).towers[0].base == expected
    assert len(expected) == grown


def _ring_with_side_arc() -> FiniteSymbolicSystem:
    """The ring 0 -> 1 -> ... -> 29 -> 0 with a side arc 10 -> 30 -> 31 ->
    ... -> 35 -> 4: state 10 is the one branch state and state 4, with the
    predecessors 3 and 35, the one merge state.  Every other state has one
    successor and one predecessor, so the sweep's walks step by state
    number until they meet one of the two."""
    succ = [((s + 1) % 30,) for s in range(30)] + [(s + 1,) for s in range(30, 35)] + [(4,)]
    succ[10] = (11, 30)
    return FiniteSymbolicSystem(tuple(map(str, range(36))), tuple(succ))


# Each case sweeps the states [20, x] at N = 3: the 2N preimage levels of
# state 20 are 20, 19, ..., 15, so x extends the base.
@pytest.mark.parametrize("x", [
    # 8 -> 9 -> 10, then the set {11, 30}: the N-step image meets the
    # branch state before its third step
    pytest.param(8, id="branch-within-N-forward-steps"),
    # the image is 10, whose successors 11 and 30 make the checked block a
    # set from its first step
    pytest.param(7, id="branch-in-the-block-walk"),
    # the image is 8; its swept levels 7, 6, 5, 4 step by state number,
    # and the merge state 4 makes the fifth level the set {3, 35}
    pytest.param(5, id="merge-within-2N-1-backward-steps"),
])
def test_sweep_falls_back_to_sets_as_the_oracle_sweeps(x):
    sys = _ring_with_side_arc()
    expected = rokhlin_sweep_oracle(sys, [20, x], 3)
    assert _library_sweep(sys, [20, x], 3) == expected
    assert len(expected) > 1


@pytest.mark.parametrize("x, N", [
    # the image of 0 is 3, whose one successor is the merge state 4: the
    # block {3} is not the preimage {3, 35} of its image
    pytest.param(0, 3, id="one-state-block"),
    # the image of 2 is the branch state 10, so the block is a set from its
    # first step, and its seventh, {16, 35}, is not the preimage of {17, 4}
    pytest.param(2, 8, id="block-after-a-branch"),
])
def test_block_successor_with_two_predecessors_is_depth_insufficient(x, N):
    # the 2N preimage levels of 20 end at 20 - 2N + 1, above x.  A block
    # fails to collapse only from a state inside the special cone, where
    # the build sweeps none: the cone's own towers cover it
    sys = _ring_with_side_arc()
    assert x not in special_cone_rest(sys, N)
    with pytest.raises(SweepFailed):
        rokhlin_sweep_oracle(sys, [20, x], N)


def test_swept_levels_match_preimages_from_every_state():
    # from every state the backward walk meets the merge state 4 at a
    # different distance, or not at all within 2N - 1 steps
    sys = _ring_with_side_arc()
    for N in range(1, 7):
        for s in range(sys.num_states):
            expected = set().union(*(sys.preimage({s}, i) for i in range(2 * N)))
            assert rokhlin._swept(sys, {s}, N) == expected, (s, N)
        assert rokhlin._swept(sys, {12, 31}, N) == set().union(
            *(sys.preimage({12, 31}, i) for i in range(2 * N))
        )
