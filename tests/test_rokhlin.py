import random

import pytest

from shiftdim import rokhlin
from shiftdim.cover import build_cover_graph
from shiftdim.errors import DepthInsufficient, HypothesisViolated, NotSurjective, PeriodicWitness
from shiftdim.rokhlin import (
    RokhlinCover,
    RokhlinTower,
    build_rokhlin_cover,
    extend_tower_base,
    verify_rokhlin_cover,
)
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
    W, swept = set(rest[:1]), rokhlin._swept(sys, rest[:1], N)
    for x in rest[1:]:
        rokhlin._chain_extend(sys, W, x, N, swept)
    return frozenset(W)


def test_sweep_matches_frozen_union_oracle_on_random_systems():
    rng = random.Random(20)
    grown = 0
    for _ in range(400):
        sys = random_branching_system(rng)
        for N in (2, 3):
            rest = special_cone_rest(sys, N)
            if not rest:
                continue
            try:
                expected = rokhlin_sweep_oracle(sys, rest, N)
            except SweepFailed:
                with pytest.raises(DepthInsufficient):
                    _library_sweep(sys, rest, N)
                continue
            assert _library_sweep(sys, rest, N) == expected
            grown += len(expected) > 1
            try:
                cover = build_rokhlin_cover(sys, N)
            except (NotSurjective, PeriodicWitness):
                continue
            assert cover.towers[0].base == expected
    assert grown >= 5


@pytest.mark.parametrize("make, grown", [
    pytest.param(thue_morse_spec, 881, id="tm"),
    pytest.param(lambda: SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES), 642, id="trib"),
])
def test_sweep_matches_frozen_union_oracle_on_front_covers(make, grown):
    # the benchmark's front covers, whose sweep extends its base hundreds
    # of times
    sys = build_cover_graph(make(), 2000, 6).system
    expected = rokhlin_sweep_oracle(sys, special_cone_rest(sys, 5), 5)
    assert build_rokhlin_cover(sys, 5).towers[0].base == expected
    assert len(expected) == grown
