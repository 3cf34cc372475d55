import random

import pytest

from shiftdim.cover import build_cover_graph
from shiftdim.errors import HeightMismatch
from shiftdim.rokhlin import build_rokhlin_cover
from shiftdim.towers import (
    EXACT_COLORING_LIMIT,
    TowerPair,
    TowerPairSystem,
    attach_shifted_pairs,
    build_phase_pairs,
    chromatic_number,
    normalize_window,
    pairs_from_rokhlin,
    verify_tower_pairs,
)
from shiftdim.words import Alphabet, SubstitutionSpec, fibonacci_spec, thue_morse_spec

from .oracles import margin_witness_oracle
from .test_amenability import random_branching_system
from .test_rokhlin import _cycle
from .test_words import TRIB_RULES


@pytest.fixture(scope="module")
def fib_pipeline():
    graph = build_cover_graph(fibonacci_spec(), 60, 6)
    sys = graph.system
    cover = build_rokhlin_cover(sys, 5)
    return graph, sys, cover


def test_normalize_window():
    assert normalize_window([2, 3]) == (-3, -2, 0, 2, 3)
    assert normalize_window([0]) == (0,)
    assert normalize_window([-1, 1]) == (-1, 0, 1)


def test_conversion_formulas(fib_pipeline):
    _, sys, cover = fib_pipeline
    tps = pairs_from_rokhlin(cover, [-1, 0, 1])
    assert tps.M == 3
    assert tps.height == 5
    assert tps.pairs[0].exponents == range(5)
    assert tps.d_claimed == 2 * len(cover.towers) - 1


def test_conversion_degenerate_window():
    # E = {0}: M = 1, height 2, S = {0, 1}
    graph = build_cover_graph(fibonacci_spec(), 20, 4)
    sys = graph.system
    cover = build_rokhlin_cover(sys, 2)
    tps = pairs_from_rokhlin(cover, [0])
    assert tps.M == 1 and tps.height == 2
    assert tps.pairs[0].exponents == range(2)


def test_height_mismatch(fib_pipeline):
    _, _, cover = fib_pipeline
    with pytest.raises(HeightMismatch):
        pairs_from_rokhlin(cover, [-2, 0, 2])  # needs height 8, cover has 5


def test_verify_tower_pairs_fibonacci(fib_pipeline):
    _, sys, cover = fib_pipeline
    tps = pairs_from_rokhlin(cover, [-1, 0, 1])
    attach_shifted_pairs(tps, sys)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed, cert.first_failure()
    kinds = cert.params["witness_kinds"]
    assert int(kinds["original"]) > 0 and int(kinds["shifted"]) > 0
    chrom_clause = next(c for c in cert.clauses if c.name == "(3)-chromatic-bound")
    assert chrom_clause.passed


def test_clause5_breaks_when_exponents_shrink(fib_pipeline):
    _, sys, cover = fib_pipeline
    tps = pairs_from_rokhlin(cover, [-1, 0, 1])
    attach_shifted_pairs(tps, sys)
    shrunk = tuple(
        type(p)(p.base, p.exponents[:-1], p.kind, p.origin) for p in tps.pairs
    )
    broken = TowerPairSystem(shrunk, tps.E, tps.d_claimed)
    cert = verify_tower_pairs(sys, broken)
    clause5 = next(c for c in cert.clauses if c.name == "(5)-margin-witness")
    assert not clause5.passed
    assert "state" in clause5.witness
    # the counts stop at the first state without a witness
    assert _margin_echo(cert) == margin_witness_oracle(sys, broken)
    assert sum(cert.params["witness_kinds"].values()) > 0


def _margin_echo(cert) -> tuple[str, dict]:
    (clause5,) = [c for c in cert.clauses if c.name == "(5)-margin-witness"]
    return clause5.witness, cert.params["witness_kinds"]


def _random_pair_system(rng, sys) -> TowerPairSystem:
    """1-4 base pairs on random bases with random ranges [0, h-1], the
    pulled-back partners of some of them, and now and then a phase pair."""
    states = range(sys.num_states)
    E = rng.choice(((0,), (-1, 0, 1), (-2, 0, 3), (1,)))
    pairs = [
        TowerPair(frozenset(rng.sample(states, rng.randint(1, 3))), range(rng.randint(1, 7)), "base", t)
        for t in range(rng.randint(1, 4))
    ]
    tps = TowerPairSystem(pairs, E, 2 * len(pairs) - 1)
    for p in list(tps.pairs):
        if rng.random() < 0.7:
            shifted = TowerPair(sys.preimage(p.base, tps.M), range(rng.randint(1, 7)), "shifted", p.origin)
            tps.pairs += (shifted,)
    if rng.random() < 0.3:
        tps.pairs += (TowerPair(frozenset({rng.choice(states)}), range(rng.randint(1, 9)), "phase", 0),)
    return tps


def test_margin_witnesses_match_per_state_search_on_random_systems():
    rng = random.Random(25)
    outcomes = {"pass": 0, "fail": 0, "shifted": 0}
    for _ in range(400):
        sys = random_branching_system(rng)
        tps = _random_pair_system(rng, sys)
        cert = verify_tower_pairs(sys, tps)
        echo = _margin_echo(cert)
        assert echo == margin_witness_oracle(sys, tps)
        outcomes["pass" if echo[0].startswith("witnesses") else "fail"] += 1
        outcomes["shifted"] += echo[1]["shifted"] > 0
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("make", [
    pytest.param(thue_morse_spec, id="tm"),
    pytest.param(lambda: SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES), id="trib"),
])
def test_margin_witnesses_match_per_state_search_on_front_covers(make):
    sys = build_cover_graph(make(), 300, 6).system
    tps = pairs_from_rokhlin(build_rokhlin_cover(sys, 5), (-1, 0, 1))
    attach_shifted_pairs(tps, sys)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed, cert.first_failure()
    assert _margin_echo(cert) == margin_witness_oracle(sys, tps)


def test_chromatic_exact_examples():
    disjoint = [frozenset({i}) for i in range(5)]
    assert chromatic_number(disjoint) == 1
    triangle = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 1})]
    assert chromatic_number(triangle) == 3
    # complete graph on 4 overlapping sets
    k4 = [frozenset({0, i}) for i in range(1, 5)]
    assert chromatic_number(k4) == 4


def test_chromatic_refuses_more_sets_than_the_search_limit():
    # empty sets do not count toward the limit
    limit = [frozenset({i}) for i in range(EXACT_COLORING_LIMIT)] + [frozenset()]
    assert chromatic_number(limit) == 1
    with pytest.raises(ValueError, match="21 nonempty sets, above 20"):
        chromatic_number([frozenset({i}) for i in range(EXACT_COLORING_LIMIT + 1)])


def test_phase_pairs_margins(fib_pipeline):
    _, sys, _ = fib_pipeline
    # rise 7 within the 34-cycle: span must fit under the collision depth
    tps = build_phase_pairs(sys, 8, 7)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed, cert.first_failure()
    assert len(tps.pairs) == 8
    for pair in tps.pairs:
        assert len(pair.base) == 1


# failing clause -> (states of the cycle, pair bases and exponent ranges,
# claimed dimension, every failing clause with its witness); on the cycle
# level i of a base is the base moved i states back, and the window is {0},
# so every level is on its pair's plateau
ONE_CLAUSE_FAILS = {
    # a 2-cycle's third preimage level is its base again
    "(2-as-read)-level-disjointness": (
        2, [({0}, 3)], 1,
        [("(2-as-read)-level-disjointness", "pair 0: state 0 at levels 0 and 2")],
    ),
    # two pairs over one 2-cycle: their levels meet, so two colors
    "(3)-chromatic-bound": (
        2, [({0}, 2), ({1}, 2)], 0,
        [("(3)-chromatic-bound", "exact chromatic 2 <= d+1 = 1")],
    ),
    # an uncovered state has no margin witness either
    "(4)-covering": (
        4, [({0}, 2)], 0,
        [
            ("(4)-covering", "missing [1, 2]"),
            ("(5)-margin-witness", "state 1 has no margin witness"),
        ],
    ),
}


@pytest.mark.parametrize("clause", ONE_CLAUSE_FAILS)
def test_verifier_fails_one_clause_on_a_hand_built_pair_system(clause):
    """A pair system over a cycle on which the clause fails, and no
    clause fails but the ones it forces."""
    states, pairs, d_claimed, failing = ONE_CLAUSE_FAILS[clause]
    tps = TowerPairSystem(
        [TowerPair(frozenset(base), range(top), "base", i) for i, (base, top) in enumerate(pairs)],
        [0],
        d_claimed,
    )
    cert = verify_tower_pairs(_cycle(states), tps)
    assert [(c.name, c.witness) for c in cert.clauses if not c.passed] == failing
