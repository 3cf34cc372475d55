import random
from fractions import Fraction

import pytest

from shiftdim.amenability import EquivariantMap, check_equivariance
from shiftdim.errors import MissingEquivarianceCertificate
from shiftdim.groupoid import (
    DadCover,
    bound_chain,
    build_dad_cover,
    build_window,
    difference_set,
    verify_dad_cover,
)
from shiftdim.simplex import SimplexPoint, cover_index
from shiftdim.systems import FiniteSymbolicSystem

from .oracles import closure_size_oracle, dad_cover_oracle, dirac, window_elements_oracle
from .test_amenability import random_branching_system


def merge_system():
    """Three states: a -> c, b -> c, c -> c (one merge, genuine fibers)."""
    return FiniteSymbolicSystem(labels=("a", "b", "c"), succ=((2,), (2,), (2, 0, 1)))


def cycle_system(n):
    return FiniteSymbolicSystem(
        labels=tuple(f"s{i}" for i in range(n)),
        succ=tuple(((i + 1) % n,) for i in range(n)),
    )


def test_difference_set_interval():
    assert difference_set(range(5)) == tuple(range(-4, 5))


def test_difference_set_general():
    assert difference_set({0, 3}) == (-3, 0, 3)


def test_window_units_only():
    sys = cycle_system(5)
    win = build_window(sys, [0], 0)
    assert set(win.triples()) == {(x, 0, x) for x in range(5)}
    assert win.check_unit_inclusion()


def test_window_bruteforce_count():
    sys = cycle_system(6)
    win = build_window(sys, [-1, 0, 1], 2)
    # brute force: common images within the exponent bound
    expected = set()
    for x in range(6):
        for y in range(6):
            for a in range(3):
                for b in range(3):
                    if a - b in (-1, 0, 1) and (x + a) % 6 == (y + b) % 6:
                        expected.add((x, a - b, y))
    assert set(win.triples()) == expected


def test_window_inversion_closure():
    sys = merge_system()
    win = build_window(sys, [-1, 0, 1], 2)
    assert win.check_inversion_closure()
    assert win.check_unit_inclusion()


def _constant_map(sys, atom=0):
    return EquivariantMap(
        assignment=tuple(dirac(atom) for _ in range(sys.num_states)),
        window_set=(0,),
        resolution=1,
        d=0,
        epsilon_achieved=Fraction(0),
        support_window=(atom,),
    )


def test_dad_micro_genuine_epsilon():
    """d = 0 forces the genuine radius 1/3; with the window {0} a constant
    point-mass map is exactly equivariant and the cover certificate passes
    with both proof cases populated."""
    sys = merge_system()
    emap = _constant_map(sys)
    eps = Fraction(1, 3)  # 1/(3 * 10^0)
    cert = check_equivariance(sys, emap, [0], eps)
    assert cert.passed
    win = build_window(sys, [0], 1)
    # the window holds non-unit merge pairs (a,0,b) with a common image
    assert (0, 0, 1) in win.triples()
    orbit = {0, 1, 2}
    cover = build_dad_cover(win, emap, orbit, cert)
    dcert = verify_dad_cover(win, cover)
    assert dcert.passed, dcert.first_failure()
    counts = next(
        c for c in dcert.clauses if c.name == "restricted-elements-two-cases"
    )
    assert "orbit-bucket" in counts.witness


def test_dad_micro_negative_window_fails_at_genuine_epsilon():
    # with 1 in the window a point-mass map must move mass: deviation 2
    sys = cycle_system(3)
    emap = _constant_map(sys)
    cert = check_equivariance(sys, emap, [-1, 0, 1], Fraction(1, 3))
    assert not cert.passed


def test_dad_requires_certificate():
    sys = merge_system()
    emap = _constant_map(sys)
    win = build_window(sys, [0], 1)
    with pytest.raises(MissingEquivarianceCertificate):
        build_dad_cover(win, emap, {0, 1, 2}, None)


def test_dad_requires_passing_certificate_and_names_its_failing_clause():
    sys = cycle_system(3)
    emap = _constant_map(sys)
    cert = check_equivariance(sys, emap, [-1, 0, 1], Fraction(1, 3))
    win = build_window(sys, [0], 1)
    with pytest.raises(MissingEquivarianceCertificate, match="regular-deviation-below-epsilon"):
        build_dad_cover(win, emap, set(), cert)


def test_dad_cover_adjoins_the_merge_states_of_the_window_system():
    # merge_system's state 2 has two preimages; it joins every piece
    sys = merge_system()
    emap = _constant_map(sys)
    cert = check_equivariance(sys, emap, [0], Fraction(1, 3))
    cover = build_dad_cover(build_window(sys, [0], 1), emap, {0}, cert)
    assert cover.orbit_states == {0, 2}
    assert all(2 in piece for piece in cover.pieces)


def test_dad_cover_coverage_failure_detected():
    sys = merge_system()
    emap = _constant_map(sys)
    cert = check_equivariance(sys, emap, [0], Fraction(1, 3))
    win = build_window(sys, [0], 1)
    cover = build_dad_cover(win, emap, {0, 1, 2}, cert)
    broken = DadCover(pieces=(cover.pieces[0] - {1},), F=cover.F, orbit_states=cover.orbit_states)
    dcert = verify_dad_cover(win, broken)
    assert not dcert.passed
    assert any(c.name == "unit-space-covering" and not c.passed for c in dcert.clauses)


def test_dad_f_symmetry_checked():
    sys = merge_system()
    emap = _constant_map(sys)
    cert = check_equivariance(sys, emap, [0], Fraction(1, 3))
    win = build_window(sys, [0], 1)
    cover = build_dad_cover(win, emap, {0, 1, 2}, cert)
    assert set(cover.F) == {-n for n in cover.F}


def _closure_witness(cert) -> str:
    (clause,) = [c for c in cert.clauses if c.name == "generated-subgroupoid-finite-witness"]
    return clause.witness


def _oracle_closure_sizes(window, pieces) -> list[int]:
    sizes = []
    for piece in pieces:
        restricted = [(x, n, y) for (x, n, y) in window.triples() if x in piece and y in piece]
        assert closure_size_oracle(window, restricted) == len(restricted)
        sizes.append(len(restricted))
    return sizes


def random_window_and_cover(rng):
    """The window of a random branching system for one of four window
    sets, and 1-4 random pieces with a random difference set and orbit
    states."""
    sys = random_branching_system(rng)
    E = rng.choice(((0,), (-1, 0, 1), (-2, 0, 3), (-3, 0, 5)))
    window = build_window(sys, E, max(map(abs, E)) + rng.randint(0, 2))
    states = range(sys.num_states)
    pieces = tuple(
        frozenset(rng.sample(states, rng.randint(0, sys.num_states)))
        for _ in range(rng.randint(1, 4))
    )
    cover = DadCover(
        pieces=pieces,
        F=difference_set(range(rng.randint(0, 3))),
        orbit_states=frozenset(rng.sample(states, rng.randint(0, sys.num_states))),
    )
    return window, cover


def test_closure_sizes_match_closure_walk():
    # the restricted elements of a piece are already closed in the window
    rng = random.Random(31)
    for _ in range(150):
        window, cover = random_window_and_cover(rng)
        sizes = _oracle_closure_sizes(window, cover.pieces)
        cert = verify_dad_cover(window, cover)
        assert _closure_witness(cert) == f"closure sizes within window: {sizes}"


def test_closure_sizes_match_closure_walk_on_skew_benchmark(fib_skew_dad):
    graph, cover = fib_skew_dad.graph, fib_skew_dad.cover
    window = build_window(graph.system, fib_skew_dad.E, 3)
    sizes = _oracle_closure_sizes(window, cover.pieces)
    assert _closure_witness(fib_skew_dad.dad) == f"closure sizes within window: {sizes}"


def test_window_and_dad_check_match_their_oracles():
    # the window's order and witnesses, and whole dad-cover certificates on
    # random pieces, against one image dict per level and one walk per piece
    rng = random.Random(47)
    failing = 0
    for _ in range(400):
        window, cover = random_window_and_cover(rng)
        elements = window_elements_oracle(window.sys, window.E, window.exponent_bound)
        assert list(window.triples()) == list(elements)
        rows = sorted((x, n, y, a, b) for (x, n, y), (a, b) in elements.items())
        assert window.element_rows() == rows
        text = window.to_text().splitlines()
        assert text[1:] == ["\t".join(map(str, row)) for row in rows]
        cert = verify_dad_cover(window, cover)
        assert cert.canonical_json() == dad_cover_oracle(window, cover).canonical_json()
        (two_cases,) = [c for c in cert.clauses if c.name == "restricted-elements-two-cases"]
        failing += not two_cases.passed
    assert failing >= 50, failing


def _pieces_by_point(emap, orbit):
    """``build_dad_cover``'s pieces with one ``cover_index`` per state."""
    rings = [cover_index(point, emap.d)[0] for point in emap.assignment]
    return tuple(
        frozenset(x for x, ring in enumerate(rings) if ring == i) | orbit
        for i in range(emap.d + 1)
    )


def test_dad_cover_pieces_match_cover_index_per_point(fib_skew_dad):
    emap, cover = fib_skew_dad.emap, fib_skew_dad.cover
    # the benchmark's map repeats few numerator tuples over many atoms
    assert len({p.nums for p in emap.assignment}) * 10 < len(emap.assignment)
    assert cover.pieces == _pieces_by_point(emap, cover.orbit_states)


def test_dad_cover_pieces_match_cover_index_on_shared_numerators():
    # points drawn from five numerator tuples, each over random atoms
    rng = random.Random(59)
    pool = [(1,), (1, 1), (5, 1), (1, 2, 3), (98, 1, 1)]
    for _ in range(50):
        sys = random_branching_system(rng)
        points = []
        for _ in range(sys.num_states):
            nums = rng.choice(pool)
            atoms = tuple(sorted(rng.sample(range(-9, 10), len(nums))))
            points.append(SimplexPoint(atoms, nums))
        emap = EquivariantMap(
            assignment=tuple(points),
            window_set=(0,),
            resolution=1,
            d=2,
            epsilon_achieved=Fraction(0),
            support_window=tuple(sorted({a for p in points for a in p.atoms})),
        )
        cert = check_equivariance(sys, emap, [0], Fraction(1))
        cover = build_dad_cover(build_window(sys, [0], 1), emap, set(), cert)
        assert cover.pieces == _pieces_by_point(emap, cover.orbit_states)


def test_bound_chain_examples():
    assert bound_chain(1, 0).as_tuple() == (3, 7, 7, 7, 6)
    assert bound_chain(0, 0).as_tuple() == (1, 3, 3, 3, 6)
    assert bound_chain(0, 2).as_tuple() == (1, 3, 3, 3, 54)
    assert bound_chain(2, 0).as_tuple() == (5, 11, 11, 11, 6)


def test_bound_chain_monotone_in_q():
    prev = bound_chain(0, 0).as_tuple()
    for q in range(1, 8):
        cur = bound_chain(q, 0).as_tuple()
        assert all(a <= b for a, b in zip(prev, cur))
        prev = cur
