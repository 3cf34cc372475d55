import random
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdim.cover import build_cover_graph
from shiftdim.systems import (
    FiniteSymbolicSystem,
    aperiodicity_window_check,
    overlapping_pair,
)
from shiftdim.words import fibonacci_spec, full_shift_spec, golden_mean_spec

from .oracles import predecessors_oracle, shortest_cycle_oracle
from .test_amenability import random_branching_system
from .test_cover import CENSUS


def det_system(successors):
    return FiniteSymbolicSystem(
        labels=tuple(f"s{i}" for i in range(len(successors))),
        succ=tuple((t,) for t in successors),
    )


@pytest.fixture(scope="module")
def full2_graph():
    return build_cover_graph(full_shift_spec(2), 2, 2)


def test_preimage_image_on_cylinder_graph(full2_graph):
    # states are the four 2-cylinders in canonical order 00,01,10,11
    sys = full2_graph.system
    labels = [full2_graph.pi(s) for s in range(sys.num_states)]
    assert sorted(labels) == ["00", "01", "10", "11"]
    zero_prefixed = frozenset(s for s in range(4) if full2_graph.pi(s)[0] == "0")
    pre = sys.preimage(zero_prefixed, 1)
    # predecessors of [0*] are exactly [00] and [10]
    assert {full2_graph.pi(s) for s in pre} == {"00", "10"}
    img = sys.image(frozenset({labels.index("00")}), 1)
    assert {full2_graph.pi(s) for s in img} == {"00", "01"}


def test_preimage_levels_match_preimage():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        sys = FiniteSymbolicSystem(
            labels=tuple(f"s{i}" for i in range(n)),
            succ=tuple(tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(n)),
        )
        base = frozenset(rng.sample(range(n), rng.randint(0, n)))
        for count in (0, 1, rng.randint(2, 15)):
            levels = list(sys.preimage_levels(base, count))
            assert levels == [sys.preimage(base, i) for i in range(count)]


def test_preimage_levels_step_one_state_chains_into_a_merge_state():
    # k arcs from a state m back to m, the states numbered at random: from a
    # state on an arc the levels are one state each down to m, whose
    # preimage is the last states of the k arcs, and the levels go on as
    # sets of up to k states
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(2, 7)
        lengths = [rng.randint(1, 40) for _ in range(k)]
        n = 1 + sum(lengths)
        name = rng.sample(range(n), n)  # the arcs run through 1..n-1; m is 0
        succ: list[list[int]] = [[] for _ in range(n)]
        first = 1
        for length in lengths:
            arc = [0, *range(first, first + length), 0]
            first += length
            for a, b in zip(arc, arc[1:]):
                succ[name[a]].append(name[b])
        sys = FiniteSymbolicSystem(tuple(map(str, range(n))), tuple(tuple(sorted(t)) for t in succ))
        m = name[0]
        assert len(sys.pred[m]) == k
        base = {rng.randrange(n)}
        count = rng.randint(40, 120)
        levels = list(sys.preimage_levels(base, count))
        assert levels == [sys.preimage(base, i) for i in range(count)]
        # the one-state level {m} steps to a level with the set walk's
        # iteration order
        after_m = next(islice(sys.preimage_levels({m}, 2), 1, None))
        assert list(after_m) == list(sys.preimage({m}, 1))


def test_predecessors_sorted_and_unique_with_repeated_targets():
    succ = ((2, 2, 1), (0, 0), (1, 2, 1, 0), (3, 3))
    sys = FiniteSymbolicSystem(labels=("a", "b", "c", "d"), succ=succ)
    assert sys.pred == ((1, 2), (0, 2), (0, 2), (3,))
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 9)
        succ = tuple(tuple(rng.choices(range(n), k=rng.randint(1, 4))) for _ in range(n))
        sys = FiniteSymbolicSystem(labels=tuple(f"s{i}" for i in range(n)), succ=succ)
        assert sys.pred == predecessors_oracle(succ)
        # the merge states, found once, in a fresh list on every call
        special = sys.special_states()
        assert special == [t for t, ps in enumerate(predecessors_oracle(succ)) if len(ps) >= 2]
        special.append(n)
        assert n not in sys.special_states()
    # rings, mostly one predecessor each as on a cover: a target repeated in
    # one successor list is still one predecessor, listed once
    for _ in range(60):
        n = rng.randint(1, 60)
        succ = []
        for s in range(n):
            targets = [(s + 1) % n] * rng.choice((1, 1, 1, 2, 3))
            if rng.random() < 0.2:
                targets.append(rng.randrange(n))
            rng.shuffle(targets)
            succ.append(tuple(targets))
        sys = FiniteSymbolicSystem(labels=tuple(f"s{i}" for i in range(n)), succ=tuple(succ))
        assert sys.pred == predecessors_oracle(succ)
        assert all(type(p) is tuple for p in sys.pred)


def test_preimage_trivial_cases(full2_graph):
    sys = full2_graph.system
    assert sys.preimage(sys.all_states(), 3) == sys.all_states()
    assert sys.preimage(frozenset(), 2) == frozenset()
    assert sys.image(frozenset(), 5) == frozenset()


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 15), st.integers(0, 15))
@settings(max_examples=40, deadline=None)
def test_preimage_composition_relational(m, n, mask, mask2):
    graph = build_cover_graph(full_shift_spec(2), 2, 2)
    sys = graph.system
    clopen = frozenset(s for s in range(sys.num_states) if mask & (1 << s))
    other = frozenset(s for s in range(sys.num_states) if mask2 & (1 << s))
    lhs = sys.preimage(sys.preimage(clopen, m), n)
    assert lhs == sys.preimage(clopen, m + n)
    assert sys.image(sys.image(clopen, m), n) == sys.image(clopen, m + n)
    # union distribution holds for the relational operators as well
    assert sys.preimage(clopen | other, m) == sys.preimage(clopen, m) | sys.preimage(other, m)


@given(st.integers(0, 3), st.integers(0, 3), st.sets(st.integers(0, 5), max_size=6))
@settings(max_examples=60, deadline=None)
def test_deterministic_surjective_identities(m, n, members):
    # 6-cycle: deterministic and onto, so the map identities hold exactly
    sys = det_system([(i + 1) % 6 for i in range(6)])
    assert sys.deterministic and sys.surjective_flag
    clopen = frozenset(members)
    got = sys.image(sys.preimage(clopen, n), m)
    expected = sys.image(clopen, m - n) if m >= n else sys.preimage(clopen, n - m)
    assert got == expected
    # preimage distributes over intersection and complement
    other = frozenset(range(0, 6, 2))
    assert sys.preimage(clopen & other, m) == sys.preimage(clopen, m) & sys.preimage(other, m)
    assert sys.preimage(sys.all_states() - clopen, m) == sys.all_states() - sys.preimage(clopen, m)


def test_relational_counterexample_documented():
    # with a genuine branch the image/preimage identity of surjective maps
    # fails: this is why deterministic carriers matter
    sys = FiniteSymbolicSystem(
        labels=("a", "b", "c"),
        succ=((1, 2), (0,), (0,)),
    )
    assert sys.surjective_flag and not sys.deterministic
    clopen = frozenset({1})
    assert sys.image(sys.preimage(clopen, 1), 1) != clopen


def test_disjoint_family_check():
    assert overlapping_pair([frozenset(), frozenset({1, 2})]) is None
    assert overlapping_pair([frozenset({1}), frozenset({2})]) is None
    assert overlapping_pair([frozenset({1, 2}), frozenset({2, 3})]) == (0, 1)
    assert overlapping_pair([frozenset({1}), frozenset({2}), frozenset({3, 2})]) == (1, 2)
    assert overlapping_pair([frozenset({5}), frozenset({2}), frozenset({5})]) == (0, 2)


def test_aperiodicity_fibonacci():
    assert aperiodicity_window_check(fibonacci_spec(), 10)


def test_aperiodicity_full_shift_and_sft():
    assert not aperiodicity_window_check(full_shift_spec(2), 1)  # 0^inf
    assert not aperiodicity_window_check(golden_mean_spec(), 1)  # 0^inf


def test_cycle_lengths_reported():
    sys = det_system([1, 2, 0, 4, 3])  # a 3-cycle and a 2-cycle
    assert sys.min_cycle_length(10) == 2
    assert sys.min_cycle_length(2) == 2
    assert sys.min_cycle_length(1) is None
    # a tail into the 3-cycle, walked after the cycle and before it
    assert det_system([1, 2, 0, 0]).min_cycle_length(10) == 3
    assert det_system([1, 2, 3, 1]).min_cycle_length(10) == 3
    assert det_system([1, 2, 0, 0]).min_cycle_length(2) is None


def test_cycle_through_branch_state():
    sys = FiniteSymbolicSystem(
        labels=("a", "b", "c"),
        succ=((1, 2), (0,), (2,)),
    )
    assert sys.min_cycle_length(10) == 1  # c self-loop
    # with no self-loop, the shortest cycles run through the branch state
    # a: a -> b -> a and a -> c -> a
    sys = FiniteSymbolicSystem(labels=("a", "b", "c"), succ=((1, 2), (0,), (0,)))
    assert sys.min_cycle_length(10) == 2
    assert sys.min_cycle_length(1) is None
    # a 2-cycle through the branch state b beside a deterministic 3-cycle
    sys = FiniteSymbolicSystem(labels=tuple("abcde"), succ=((1,), (0, 2), (3,), (4,), (2,)))
    assert sys.min_cycle_length(10) == 2
    assert sys.min_cycle_length(1) is None


@st.composite
def successor_lists(draw):
    n = draw(st.integers(1, 7))
    sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=3)
    return tuple(tuple(sorted(draw(sets))) for _ in range(n))


@given(successor_lists(), st.integers(0, 9))
@settings(max_examples=300, deadline=None)
@example(((0,),), 0)  # a self-loop at bound 0
@example(((0,),), 1)
@example(((1,), (2,), (0,)), 2)  # a pure cycle, bound below its length
@example(((1,), (2,), (0,)), 3)
@example(((1, 2), (0,), (0,)), 1)  # cycles only through a branch state
@example(((1, 2), (0,), (0,)), 2)
def test_min_cycle_length_matches_oracle(succ, bound):
    sys = FiniteSymbolicSystem(labels=tuple(map(str, range(len(succ)))), succ=succ)
    assert sys.min_cycle_length(bound) == shortest_cycle_oracle(succ, bound)


def test_min_cycle_length_matches_oracle_on_branching_systems_and_covers():
    rng = random.Random(26)
    systems = [random_branching_system(rng) for _ in range(300)]
    systems += [
        build_cover_graph(make(), k, 6).system for make in CENSUS.values() for k in (1, 2, 5, 20)
    ]
    for sys in systems:
        girth = shortest_cycle_oracle(sys.succ, sys.num_states)
        for bound in {0, 1, 2, 3, 5, 20, girth - 1, girth}:
            assert sys.min_cycle_length(bound) == shortest_cycle_oracle(sys.succ, bound)


def test_adjacency_export(full2_graph):
    text = full2_graph.to_adjacency_text()
    assert "states: 4" in text
    assert len(text.splitlines()) == 5


def test_entry_free_restriction():
    sys = FiniteSymbolicSystem(
        labels=("m", "o", "c"),
        succ=((1, 2), (2,), (0,)),
    )
    restricted = sys.without_entries_into({1})
    assert restricted.succ[0] == (2,)
    assert restricted.succ[1] == (2,)  # exits survive
    # a state whose successors all sit in the window keeps its edges
    forced = sys.without_entries_into({1, 2})
    assert forced.succ[0] == (1, 2)
