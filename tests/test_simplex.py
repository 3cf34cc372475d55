import itertools
import random
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftdim.simplex import SimplexPoint, cover_index, skeleton_distance

from .oracles import cell_distance, dirac, entries_oracle, l1_oracle, ring_membership_oracle


def random_point(rng, max_atoms=6, atom_range=10, denom=60):
    count = rng.randint(1, max_atoms)
    atoms = rng.sample(range(-atom_range, atom_range + 1), count)
    cuts = sorted(rng.randint(1, denom - 1) for _ in range(count - 1))
    weights = []
    prev = 0
    for c in cuts + [denom]:
        weights.append(Fraction(c - prev, denom))
        prev = c
    weights = [w for w in weights if w > 0]
    atoms = atoms[: len(weights)]
    return SimplexPoint.from_entries(zip(atoms, weights))


def skeleton_distance_oracle(mu: SimplexPoint, size: int):
    """Enumerate every candidate support of the given size and minimize
    the displacement needed to land on it."""
    if size == 0:
        return inf
    best = None
    weights = dict(mu.entries)
    for cell in itertools.combinations(mu.atoms, min(size, len(mu.atoms))):
        kept = sum((weights[a] for a in cell), Fraction(0))
        cost = 2 * (1 - kept)
        if best is None or cost < best:
            best = cost
    return best


def test_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint.from_entries({0: Fraction(1, 2)}.items())
    with pytest.raises(ValueError):
        SimplexPoint.from_entries(((0, Fraction(1, 2)), (1, Fraction(1, 2)), (1, Fraction(0))))


WEIGHT_TEXTS = (
    "37/262", "2/4", "0.5", " 1/2", "1/2 ", "+1/2", "-1/2", "1_0/20", "\u0661/\u0662",
    "0/1", "1", "\u00b2/4", "1/2/3", "/2", "1/", "",
)


def _read(read, entries):
    """What ``read`` makes of the entries: the weights by atom, or the
    exception's class and message."""
    try:
        point = read(entries)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return point if isinstance(point, dict) else dict(point.entries)


@pytest.mark.parametrize("text", WEIGHT_TEXTS)
def test_from_entries_reads_weights_like_fraction(text):
    # a "p/q" of ASCII digits is read in integers, anything else by
    # Fraction: the same point, or the same error, either way
    cases = [[(0, text)], [(0, text), (1, "1/2")], [(3, "1/4"), (0, text)]]
    try:
        rest = 1 - Fraction(text)
    except ValueError:
        rest = None
    if rest is not None and 0 < rest < 1:
        cases.append([(0, text), (-2, f"{rest.numerator}/{rest.denominator}")])
    for entries in cases:
        assert _read(SimplexPoint.from_entries, entries) == _read(entries_oracle, entries)


def test_from_entries_refuses_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        entries_oracle([(0, "1/0")])
    with pytest.raises(ValueError, match="zero denominator"):
        SimplexPoint.from_entries([(0, "1/0")])
    with pytest.raises(ValueError, match="zero denominator"):
        SimplexPoint.from_entries([(0, "1/2"), (1, "1/00")])


def test_skeleton_distance_examples():
    assert skeleton_distance(dirac(0), 1) == 0
    uniform2 = SimplexPoint.from_entries({0: Fraction(1, 2), 1: Fraction(1, 2)}.items())
    assert skeleton_distance(uniform2, 1) == 1
    uniform3 = SimplexPoint.from_entries({i: Fraction(1, 3) for i in range(3)}.items())
    assert skeleton_distance(uniform3, 2) == Fraction(2, 3)
    assert skeleton_distance(uniform3, 0) == inf


def test_skeleton_distance_against_oracle():
    rng = random.Random(7)
    for _ in range(1000):
        mu = random_point(rng)
        for size in range(1, 7):
            assert skeleton_distance(mu, size) == skeleton_distance_oracle(mu, size)


def test_shift_is_isometry():
    rng = random.Random(3)
    for _ in range(100):
        mu, nu = random_point(rng), random_point(rng)
        assert mu.l1(nu) == mu.shift(4).l1(nu.shift(4))


def test_l1_with_shift_matches_shifted_point():
    rng = random.Random(19)
    for _ in range(500):
        mu, nu = random_point(rng), random_point(rng)
        n = rng.randint(-12, 12)
        assert mu.l1(nu, n) == mu.l1(nu.shift(n))


def test_cover_index_matches_membership():
    # the first ring the Fraction oracle accepts, with its cell; tied
    # weights and points with fewer than d+1 atoms included
    rng = random.Random(29)
    points = [random_point(rng, max_atoms=6, denom=rng.choice([6, 12, 60, 3000]))
              for _ in range(1500)]
    for count in range(1, 6):
        tied = {a: Fraction(1, count) for a in rng.sample(range(-9, 10), count)}
        points.append(SimplexPoint.from_entries(tied.items()))
    for _ in range(300):
        heavy = Fraction(rng.randint(1, 99), 100)
        atoms = rng.sample(range(-9, 10), 3)
        rest = (1 - heavy) / 2
        points.append(SimplexPoint.from_entries(zip(atoms, (heavy, rest, rest))))
    for mu in points:
        # ring i does not depend on the ambient dimension d >= i
        rings = [ring_membership_oracle(dict(mu.entries), i) for i in range(6)]
        for d in range(len(mu.entries) - 1, 6):
            first = next(i for i in range(d + 1) if rings[i][0])
            assert cover_index(mu, d) == (first, rings[first][1]), (mu, d)
    with pytest.raises(ValueError):
        cover_index(SimplexPoint.from_entries({0: Fraction(1, 2), 1: Fraction(1, 2)}.items()), 0)


def test_membership_examples():
    assert cover_index(dirac(0), 2) == (0, (0,))
    # too far from either vertex for ring 0: ring 1, on the edge {0, 1}
    uniform2 = SimplexPoint.from_entries({0: Fraction(1, 2), 1: Fraction(1, 2)}.items())
    assert cover_index(uniform2, 2) == (1, (0, 1))


def test_cover_property_fuzz():
    rng = random.Random(11)
    for _ in range(1000):
        d = rng.randint(0, 5)
        mu = random_point(rng, max_atoms=d + 1)
        ring, cell = cover_index(mu, d)
        assert 0 <= ring <= d
        assert len(cell) == ring + 1


def test_ring_one_cells_are_separated():
    # sampled pairs in distinct ring-1 cells stay 1/30 apart
    rng = random.Random(23)
    produced = 0
    pairs = []
    while produced < 1000:
        cell = tuple(sorted(rng.sample(range(-8, 9), 2)))
        main = Fraction(rng.randint(45, 55), 100)
        spill = Fraction(1, rng.choice([70, 90, 120]))
        weights = {cell[0]: main, cell[1]: 1 - main - spill}
        extra = rng.choice([a for a in range(-8, 9) if a not in cell])
        weights[extra] = spill
        mu = SimplexPoint.from_entries(weights.items())
        ring, got_cell = cover_index(mu, 4)
        if ring == 1:
            pairs.append((got_cell, mu))
            produced += 1
    for (cell_a, mu), (cell_b, nu) in zip(pairs, pairs[1:]):
        if cell_a != cell_b:
            assert Fraction(*mu.l1(nu)) >= Fraction(1, 30)


def test_cell_distance_matches_formula():
    mu = SimplexPoint.from_entries(
        {0: Fraction(2, 5), 1: Fraction(2, 5), 7: Fraction(1, 5)}.items()
    )
    assert cell_distance(mu, (0, 1)) == 2 * Fraction(1, 5)


@given(st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_dirac_always_in_ring_zero(atom):
    ring, cell = cover_index(dirac(atom), 3)
    assert ring == 0 and cell == (atom,)


def _split(total, parts, rng, grain):
    """``parts`` positive Fractions summing to ``total``, cut on a grid of
    1/grain of it."""
    cuts = sorted(rng.sample(range(1, grain), parts - 1))
    return [total * Fraction(b - a, grain) for a, b in zip([0] + cuts, cuts + [grain])]


def _on_radius(rng, top, rest, kept, wobble):
    """``top`` tied heaviest atoms holding ``kept + wobble`` and ``rest``
    lighter atoms holding the remainder."""
    atoms = rng.sample(range(-9, 10), top + rest)
    weights = [(kept + wobble) / top] * top + _split(1 - kept - wobble, rest, rng, 97)
    return SimplexPoint.from_entries(zip(atoms, weights))


def oracle_points(seed):
    """Seeded points: denominators up to 3000 and above 2**64, tied
    weights, and masses on the ring radii and one part in 2**64 + 13
    either side of them."""
    rng = random.Random(seed)
    points = [random_point(rng, denom=rng.randint(2, 3000)) for _ in range(200)]
    points += [random_point(rng, denom=2**64 + rng.randint(1, 10**9)) for _ in range(100)]
    for count in range(1, 7):
        points.append(SimplexPoint.from_entries(
            {a: Fraction(1, count) for a in rng.sample(range(-9, 10), count)}.items()
        ))
    tiny = Fraction(1, 2**64 + 13)
    for i in range(4):
        for wobble in (-tiny, 0, tiny):
            # 2 (1 - kept) on the outer radius 1/(3*10^i) of ring i
            points.append(_on_radius(rng, i + 1, 2, 1 - Fraction(1, 6 * 10**i), wobble))
            if i:
                # 2 (1 - kept) on the inner radius 5/(2*10^i) of ring i
                points.append(_on_radius(rng, i, 2, 1 - Fraction(5, 4 * 10**i), wobble))
    return points


def test_l1_matches_fraction_oracle():
    points = oracle_points(41)
    rng = random.Random(43)
    for _ in range(2000):
        mu, nu = rng.choice(points), rng.choice(points)
        n = rng.randint(-12, 12)
        num, den = mu.l1(nu, n)
        assert den == lcm(mu.den, nu.den)
        assert Fraction(num, den) == l1_oracle(dict(mu.entries), dict(nu.entries), n)


def test_ring_membership_matches_fraction_oracle():
    for mu in oracle_points(47):
        weights = dict(mu.entries)
        for d in range(len(mu.atoms) - 1, 6):
            rings = [ring_membership_oracle(weights, i) for i in range(d + 1)]
            first = next(i for i, (member, _) in enumerate(rings) if member)
            assert cover_index(mu, d) == (first, rings[first][1])
