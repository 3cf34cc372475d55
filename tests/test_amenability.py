import random
from fractions import Fraction
from math import gcd

import pytest

from shiftdim import amenability
from shiftdim.amenability import (
    EquivariantMap,
    build_B_partition,
    build_equivariant_map,
    check_equivariance,
    project_finite_support,
)
from shiftdim.errors import NTooSmall, TailMassTooLarge
from shiftdim.simplex import SimplexPoint
from shiftdim.systems import FiniteSymbolicSystem
from shiftdim.towers import TowerPair, TowerPairSystem, normalize_window, verify_tower_pairs

from .oracles import (
    dirac,
    equivariance_oracle,
    iterated_sumsets,
    l1_oracle,
    projection_oracle,
    sumset_partition_oracle,
    tower_pair_map_oracle,
    window_edges_oracle,
)
from .test_simplex import oracle_points, random_point


def cycle_system(n):
    return FiniteSymbolicSystem(
        labels=tuple(f"s{i}" for i in range(n)),
        succ=tuple(((i + 1) % n,) for i in range(n)),
    )


def test_partition_degenerate_window():
    # E = {0}: the top block is S itself, every middle block empty
    part = build_B_partition(range(10), [0], 3)
    assert part.blocks[-1] == frozenset(range(10))
    assert all(not b for b in part.blocks[:-1])


def test_partition_worked_example():
    # E = {-1,0,1}, S = {0..9}, N = 2
    part = build_B_partition(range(10), [-1, 0, 1], 2)
    assert part.blocks[1] == frozenset(range(2, 8))  # B_2
    assert part.blocks[0] == frozenset({1, 8})  # B_1
    table = part.level_table()
    assert table[5] == 2 and table[8] == 1
    assert 0 not in table  # block 0, the implicit remainder


def test_partition_fuzz_thousand():
    # criterion-style fuzz: random (E, S, N), properties checked exactly
    rng = random.Random(5)
    for _ in range(1000):
        e_max = rng.randint(1, 3)
        E = sorted(rng.sample(range(-e_max, e_max + 1), rng.randint(1, 2 * e_max)))
        S = sorted(rng.sample(range(0, 14), rng.randint(1, 9)))
        N = rng.randint(1, 5)
        part = build_B_partition(S, E, N)  # checks run inside
        table = part.level_table()
        assert all(0 <= v <= N for v in table.values())
        # blocks with level >= 1 always sit inside S
        assert set(table) <= set(S)


def test_iterated_sumsets_nested():
    sums = iterated_sumsets((-1, 0, 1), 4)
    assert sums[0] < sums[1] < sums[2] < sums[3]
    assert sums[3] == frozenset(range(-4, 5))


def test_partition_matches_sumset_oracle():
    # non-interval exponent sets and windows, negative exponents, slack
    rng = random.Random(41)
    for _ in range(300):
        e_max = rng.randint(1, 4)
        E = rng.sample(range(-e_max, e_max + 1), rng.randint(1, 3))
        S = rng.sample(range(-8, 20), rng.randint(1, 20))
        N = rng.randint(1, 6)
        max_e = max(abs(e) for e in normalize_window(E))
        part = build_B_partition(S, E, N)
        window = N * max_e + max(S)
        assert part.window == window
        assert part.blocks == sumset_partition_oracle(S, normalize_window(E), N, window)


def test_partition_deep_interval():
    # the acceptance fixture's shape: D_k = [k, 6799 - k] in closed form
    N = 721
    part = build_B_partition(range(6800), [-1, 0, 1], N)
    closed = [frozenset({k, 6799 - k}) for k in range(1, N)]
    assert part.blocks == (*closed, frozenset(range(N, 6800 - N)))


def _constant_pair_system(sys):
    # one pair covering everything at the single exponent 0: the level
    # disjointness clause is vacuous and the margin for E = {0} is exact
    pair = TowerPair(sys.all_states(), range(1), "phase", 0)
    tps = TowerPairSystem((pair,), [0], 0)
    return tps


def test_constant_map_zero_deviation():
    sys = cycle_system(6)
    tps = _constant_pair_system(sys)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed
    emap = build_equivariant_map(sys, tps, [0], 4, Fraction(10))
    assert emap.epsilon_achieved == 0
    # every point is the same single atom
    assert len({p.entries for p in emap.assignment}) == 1


def test_n_too_small():
    sys = cycle_system(6)
    tps = _constant_pair_system(sys)
    verify_tower_pairs(sys, tps)
    with pytest.raises(NTooSmall):
        build_equivariant_map(sys, tps, [0], 1, Fraction(1, 10))


def test_lipschitz_step_on_cycle():
    # staggered pairs on a plain cycle: one-step deviation <= (d+1)(d+2)/N
    n, N = 24, 4
    sys = cycle_system(n)
    pairs = tuple(
        TowerPair(frozenset({(j * n) // 3}), range(17), "phase", j)
        for j in range(3)
    )
    tps = TowerPairSystem(pairs, list(range(-N, N + 1)), 2)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed, cert.first_failure()
    emap = build_equivariant_map(sys, tps, [-1, 0, 1], N, Fraction(4))
    bound = Fraction((emap.d + 1) * (emap.d + 2), N)
    assert emap.epsilon_achieved <= bound
    # the per-pair tent moves by at most 1/N along every edge
    tents = [build_B_partition(p.exponents, [-1, 0, 1], N).level_table() for p in pairs]
    for x in range(n):
        y = (x + 1) % n
        for idx in range(len(pairs)):
            mx = tps.level_of[idx].get(x)
            my = tps.level_of[idx].get(y)
            tx = tents[idx].get(mx, 0) if mx is not None else 0
            ty = tents[idx].get(my, 0) if my is not None else 0
            assert abs(tx - ty) <= 1


def _count_partitions(monkeypatch) -> list:
    """The exponent sets ``build_B_partition`` is called on from now on."""
    calls = []
    build = amenability.build_B_partition

    def counting(S, E, N):
        calls.append(tuple(S))
        return build(S, E, N)

    monkeypatch.setattr(amenability, "build_B_partition", counting)
    return calls


def _same_map_as_one_partition_per_pair(sys, tps, E, N, emap, orbit=frozenset()):
    points = tower_pair_map_oracle(sys, tps, E, N)
    assert emap.assignment == points
    oracle = EquivariantMap(
        assignment=points,
        window_set=emap.window_set,
        resolution=N,
        d=emap.d,
        epsilon_achieved=Fraction(0),
        support_window=emap.support_window,
    )
    cert = check_equivariance(sys, emap, E, Fraction(2), orbit)
    expected = check_equivariance(sys, oracle, E, Fraction(2), orbit)
    assert cert.canonical_json() == expected.canonical_json()


def test_one_tent_per_exponent_range_on_the_skew_benchmark(fib_skew_dad, monkeypatch):
    # the 8 phase pairs share one exponent range, so one partition
    sys, tps, E = fib_skew_dad.graph.system, fib_skew_dad.tps, fib_skew_dad.E
    orbit = fib_skew_dad.orbit
    assert len(tps.pairs) == 8
    calls = _count_partitions(monkeypatch)
    emap = build_equivariant_map(sys, tps, E, 37, Fraction(2), orbit)
    assert calls == [tuple(tps.pairs[0].exponents)]
    _same_map_as_one_partition_per_pair(sys, tps, E, 37, emap, orbit)


def test_one_tent_per_exponent_range_on_two_ranges(monkeypatch):
    n, N = 24, 4
    sys = cycle_system(n)
    spans = (17, 19, 17)
    pairs = tuple(
        TowerPair(frozenset({(j * n) // 3}), range(span), "phase", j)
        for j, span in enumerate(spans)
    )
    tps = TowerPairSystem(pairs, list(range(-N, N + 1)), 2)
    assert verify_tower_pairs(sys, tps).passed
    calls = _count_partitions(monkeypatch)
    emap = build_equivariant_map(sys, tps, [-1, 0, 1], N, Fraction(4))
    assert calls == [tuple(range(17)), tuple(range(19))]
    _same_map_as_one_partition_per_pair(sys, tps, [-1, 0, 1], N, emap)


def test_projection_formula_and_oracle():
    rng = random.Random(9)
    sys = cycle_system(4)
    for _ in range(1000):
        denom = rng.choice([20, 30, 42])
        atoms = rng.sample(range(-6, 7), 4)
        cuts = sorted(rng.sample(range(1, denom), 3))
        weights = [Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])]
        points = []
        for _ in range(4):
            rng.shuffle(atoms)
            points.append(SimplexPoint.from_entries(zip(atoms, weights)))
        emap = EquivariantMap(
            assignment=tuple(points),
            window_set=(0,),
            resolution=1,
            d=3,
            epsilon_achieved=Fraction(0),
            support_window=tuple(sorted(set(atoms))),
        )
        keep = set(atoms[:3])
        kept_masses = [
            sum((w for a, w in p.entries if a in keep), Fraction(0)) for p in points
        ]
        delta = 2 * (1 - min(kept_masses)) + Fraction(1, 100)
        projected, worst = project_finite_support(emap, keep, delta)
        for p, q, kept in zip(points, projected.assignment, kept_masses):
            direct = Fraction(*p.l1(q))  # independent l1 evaluation
            assert direct == 2 * (1 - kept)
        assert worst == max(2 * (1 - kept) for kept in kept_masses)


def test_projection_preserves_equivariance_at_adjusted_bound():
    # the displacement bound: new deviation <= old + 2 * max displacement
    n, N = 24, 4
    sys = cycle_system(n)
    pairs = tuple(
        TowerPair(frozenset({(j * n) // 3}), range(17), "phase", j)
        for j in range(3)
    )
    tps = TowerPairSystem(pairs, list(range(-N, N + 1)), 2)
    verify_tower_pairs(sys, tps)
    emap = build_equivariant_map(sys, tps, [-1, 0, 1], N, Fraction(4))
    support = set(a for a in emap.support_window if a % 5 != 0)
    kept_masses = [
        sum((w for a, w in p.entries if a in support), Fraction(0))
        for p in emap.assignment
    ]
    assert min(kept_masses) > 0
    delta = 2 * (1 - min(kept_masses)) + Fraction(1, 1000)
    projected, worst = project_finite_support(emap, support, delta)
    # with no orbit window every edge is regular, so this is the largest
    # deviation over all window edges
    cert = check_equivariance(sys, projected, (-1, 0, 1), Fraction(4), orbit_window=frozenset())
    new_dev = Fraction(cert.params["max_regular_deviation"])
    assert new_dev <= emap.epsilon_achieved + 2 * worst


def test_projection_tail_guard():
    point = SimplexPoint.from_entries({0: Fraction(1, 2), 5: Fraction(1, 2)}.items())
    emap = EquivariantMap(
        assignment=(point,),
        window_set=(0,),
        resolution=1,
        d=1,
        epsilon_achieved=Fraction(0),
        support_window=(0, 5),
    )
    with pytest.raises(TailMassTooLarge):
        project_finite_support(emap, {0}, Fraction(1, 2))


def test_projection_identity_on_full_support():
    point = SimplexPoint.from_entries({0: Fraction(1, 3), 2: Fraction(2, 3)}.items())
    emap = EquivariantMap(
        assignment=(point,),
        window_set=(0,),
        resolution=1,
        d=1,
        epsilon_achieved=Fraction(0),
        support_window=(0, 2),
    )
    projected, worst = project_finite_support(emap, {0, 2}, Fraction(1, 10))
    assert worst == 0
    assert projected.assignment[0].entries == point.entries


def test_projection_onto_own_support_window_keeps_every_point(fib_skew_dad):
    emap = fib_skew_dad.emap
    projected, worst = project_finite_support(emap, emap.support_window, Fraction(1, 2))
    assert projected.assignment == emap.assignment
    assert projected.support_window == emap.support_window
    assert isinstance(worst, Fraction) and worst == 0


def _single_point_map(point):
    return EquivariantMap(
        assignment=(point,),
        window_set=(0,),
        resolution=1,
        d=len(point.atoms) - 1,
        epsilon_achieved=Fraction(0),
        support_window=point.atoms,
    )


def test_projection_matches_fraction_oracle():
    rng = random.Random(53)
    for point in oracle_points(59):
        keep = set(rng.sample(point.atoms, rng.randint(1, len(point.atoms))))
        expected, moved = projection_oracle(dict(point.entries), keep)
        emap = _single_point_map(point)
        # the tail guard is strict: delta/2 equal to the tail mass fails
        if moved:
            with pytest.raises(TailMassTooLarge):
                project_finite_support(emap, keep, moved)
        projected, worst = project_finite_support(emap, keep, moved + Fraction(1, 2**70))
        assert dict(projected.assignment[0].entries) == expected
        assert worst == moved


def test_map_json_round_trip_in_lowest_terms():
    points = tuple(oracle_points(61))
    emap = EquivariantMap(
        assignment=points,
        window_set=(0,),
        resolution=1,
        d=5,
        epsilon_achieved=Fraction(3, 7),
        support_window=tuple(sorted({a for p in points for a in p.atoms})),
    )
    data = emap.to_jsonable()
    for point, entry in zip(points, data["points"]):
        assert list(entry) == [str(a) for a in point.atoms]
        for text, (_, weight) in zip(entry.values(), point.entries):
            p, q = (int(part) for part in text.split("/"))
            assert gcd(p, q) == 1 and Fraction(p, q) == weight
    back = EquivariantMap.from_jsonable(data)
    assert back.assignment == points
    assert back.to_jsonable() == data


@pytest.mark.parametrize("entry, reason", [
    ({"0": "1/1", "1": "0/1"}, "positive"),
    ({"0": "3/2", "1": "-1/2"}, "positive"),
    ({"0": "1/2", "1": "1/3"}, "sum to exactly 1"),
    ({"1": "1/2", "01": "1/2"}, "distinct"),
], ids=["zero-weight", "negative-weight", "sum-not-1", "duplicate-atom"])
def test_from_jsonable_rejects_invalid_points(entry, reason):
    data = _single_point_map(dirac(0)).to_jsonable()
    data["points"] = [entry]
    with pytest.raises(ValueError, match=reason):
        EquivariantMap.from_jsonable(data)


@pytest.mark.parametrize("later", [
    {"3": "1/3", "03": "2/3"},
    {"x": "1/3", "5": "2/3"},
    {"1.5": "1/3", "5": "2/3"},
], ids=["atom-written-twice", "non-integer-atom", "fractional-atom"])
def test_from_jsonable_checks_the_atoms_of_every_point(later):
    # the later point repeats the first point's weights, which are read
    # once; its atoms are still read and refused
    data = _single_point_map(SimplexPoint((0, 5), (1, 2))).to_jsonable()
    data["points"].append(later)
    with pytest.raises(ValueError):
        EquivariantMap.from_jsonable(data)


def test_from_jsonable_points_sharing_weights_keep_their_atoms():
    entries = [
        {"0": "1/4", "2": "3/4"},
        {"-1": "1/4", "7": "3/4"},
        {"10": "1/4", "9": "3/4"},  # atoms sort as integers: 9, then 10
        {"2": "1/4", "0": "3/4"},
    ]
    data = _single_point_map(dirac(0)).to_jsonable()
    data["points"] = entries
    data["support_window"] = [-1, 0, 2, 7, 9, 10]
    emap = EquivariantMap.from_jsonable(data)
    assert [(p.atoms, p.nums, p.den) for p in emap.assignment] == [
        ((0, 2), (1, 3), 4), ((-1, 7), (1, 3), 4), ((9, 10), (3, 1), 4), ((0, 2), (3, 1), 4),
    ]
    assert emap.assignment == tuple(SimplexPoint.from_entries(e.items()) for e in entries)
    assert emap.to_jsonable() == data


@pytest.mark.parametrize("support", [[0, 1], [], [2, 0]], ids=["extra", "empty", "unsorted"])
def test_from_jsonable_rejects_support_window_off_the_atoms(support):
    data = _single_point_map(SimplexPoint((0, 2), (1, 1))).to_jsonable()
    assert EquivariantMap.from_jsonable(data).support_window == (0, 2)
    data["support_window"] = support
    with pytest.raises(ValueError, match="support_window is not the sorted union"):
        EquivariantMap.from_jsonable(data)


def test_equivariance_witness_on_ties_matches_oracle():
    # a few points whose distances tie, some over different denominators
    # (1/2 as 2/4 and as 3/6): the witness is the first worst edge in the
    # order x, then n
    pool = [
        SimplexPoint.from_entries({0: Fraction(1, 2), 1: Fraction(1, 2)}.items()),
        SimplexPoint.from_entries({0: Fraction(1, 4), 1: Fraction(3, 4)}.items()),
        SimplexPoint.from_entries({0: Fraction(3, 4), 1: Fraction(1, 4)}.items()),
        SimplexPoint.from_entries(zip((0, 1, 2), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))),
        dirac(1),
    ]
    rng = random.Random(67)
    E = normalize_window((-2, 0, 1))
    ties = 0
    for _ in range(200):
        n_states = rng.randint(3, 9)
        sys = cycle_system(n_states)
        assignment = tuple(rng.choice(pool) for _ in range(n_states))
        emap = EquivariantMap(
            assignment=assignment,
            window_set=E,
            resolution=1,
            d=2,
            epsilon_achieved=Fraction(0),
            support_window=(0, 1, 2),
        )
        devs = [
            ((x, n, (x + n) % n_states),
             l1_oracle(dict(assignment[(x + n) % n_states].entries), dict(assignment[x].entries), n))
            for x in range(n_states)
            for n in E
        ]
        worst = max(dev for _, dev in devs)
        witness = next(edge for edge, dev in devs if dev == worst)
        ties += sum(1 for _, dev in devs if dev == worst) > 1
        cert = check_equivariance(sys, emap, E, Fraction(10))
        assert Fraction(cert.params["max_regular_deviation"]) == worst
        clause = next(c for c in cert.clauses if c.name == "regular-deviation-below-epsilon")
        assert f"at edge {witness} over {len(devs)} edges" in clause.witness
    assert ties > 100


TIE_POOL = (
    SimplexPoint.from_entries({0: Fraction(1, 2), 1: Fraction(1, 2)}.items()),
    SimplexPoint.from_entries({0: Fraction(1, 4), 1: Fraction(3, 4)}.items()),
    SimplexPoint.from_entries({0: Fraction(3, 4), 1: Fraction(1, 4)}.items()),
    SimplexPoint.from_entries({-1: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 6)}.items()),
    dirac(1),
    dirac(3),
)


def random_branching_system(rng):
    """3-9 states, each with 1-3 successors, so branch and merge states
    both occur."""
    n = rng.randint(3, 9)
    succ = tuple(
        tuple(sorted(rng.sample(range(n), rng.choice((1, 1, 2, 3))))) for _ in range(n)
    )
    return FiniteSymbolicSystem(labels=tuple(f"s{i}" for i in range(n)), succ=succ)


def test_equivariance_matches_edge_by_edge_oracle():
    # the forward walk with mirrored edges against the per-edge loop, whole
    # certificates compared, witness and counts included
    rng = random.Random(12)
    seen = {"branch": 0, "merge": 0, "tied": 0, "exceptional": 0, "mirror-witness": 0}
    for _ in range(200):
        sys = random_branching_system(rng)
        seen["branch"] += bool(sys.branch_states())
        seen["merge"] += bool(sys.special_states())
        orbit = frozenset(rng.sample(range(sys.num_states), rng.randint(0, sys.num_states // 2)))
        pool = TIE_POOL + tuple(random_point(rng, max_atoms=3, denom=12) for _ in range(2))
        emap = EquivariantMap(
            assignment=tuple(rng.choice(pool) for _ in range(sys.num_states)),
            window_set=(0,),
            resolution=1,
            d=rng.choice((1, 2)),
            epsilon_achieved=Fraction(0),
            support_window=(),
        )
        for E in ((0,), (-1, 0, 1), (-2, 0, 3), (-3, 0, 5)):
            eps = rng.choice((Fraction(1, 2), Fraction(1), Fraction(10)))
            cert = check_equivariance(sys, emap, E, eps, orbit)
            edges = list(window_edges_oracle(sys, emap, E, orbit))
            oracle = equivariance_oracle(sys, emap, E, eps, orbit, edges=edges)
            assert cert.canonical_json() == oracle.canonical_json()
            devs = [dev for *_, dev, regular in edges if regular]
            seen["tied"] += max(devs) > 0 and devs.count(max(devs)) > 1
            seen["exceptional"] += cert.params["exceptional_edges"] > 0
            seen["mirror-witness"] += ", -" in cert.clauses[0].witness
    assert min(seen.values()) > 50, seen


def test_skew_window_map_matches_edge_by_edge_oracle(fib_skew_dad):
    # the fib-skew-dad benchmark's map at k=1700 and its projection
    sys, E, emap = fib_skew_dad.graph.system, fib_skew_dad.E, fib_skew_dad.emap
    orbit = fib_skew_dad.orbit
    projected, _ = project_finite_support(emap, emap.support_window, Fraction(1, 2))
    for m in (emap, projected):
        cert = check_equivariance(sys, m, E, Fraction(2), orbit)
        oracle = equivariance_oracle(sys, m, E, Fraction(2), orbit)
        assert cert.canonical_json() == oracle.canonical_json()
        assert cert.params["edges"] == 8545
