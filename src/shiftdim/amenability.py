"""Window-equivariant maps into the integer simplex, built from tower pairs.

The construction turns a verified tower-pair system into a piecewise
constant map ``state -> probability vector``: each pair contributes mass
at its level exponent, weighted by a tent over the exponent set whose
plateau marks levels with full window margin.  The tent comes from an
integer partition of the exponents by erosion depth: an exponent sits in
block k when its translates by the k-fold sumset of the window stay
inside the exponent set.  With a symmetric window holding 0 that depth is
one less than the fewest nonzero window steps out of the exponent set,
so one breadth-first pass from the boundary of the set computes every
block.  The shift-containment properties of the partition make one-step
moves change each coordinate by at most 1/resolution, which yields the
deviation bound (d+1)(d+2)/resolution over all window edges.

Everything is exact: the bump functions of the classical argument are
indicators of clopen level sets here (one state-resolution quantum), the
integer tent levels at every state are verified to sum to at least N
(the normalizer H >= 1) before dividing, and the achieved deviation is
measured, not assumed.  Weights and deviations stay integer numerators
over a denominator, compared by cross-multiplication.  A map of few
numerator tuples over many translated supports has most window edges
aligned (one point the other's translate, atom for atom), and the
deviation of such an edge depends on the two numerator tuples alone, so
the check measures it once per pair of tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .certificates import Certificate, Clause
from .errors import NotSurjective, NTooSmall, TailMassTooLarge, TowerPairsInsufficient
from .simplex import SimplexPoint
from .systems import FiniteSymbolicSystem
from .towers import TowerPairSystem, normalize_window


class PartitionB(NamedTuple):
    """Partition of the integers into blocks 0..N by window margin depth.

    Block k >= 1 collects exponents whose translates by the k-fold (but
    not (k+1)-fold) sumset of the window stay inside the exponent set;
    block 0 is the cofinite remainder, represented implicitly outside the
    stated window of integers."""

    exponents: tuple[int, ...]
    window_set: tuple[int, ...]
    resolution: int  # N
    window: int  # integers checked in [-window, window]
    blocks: tuple[frozenset, ...]  # blocks 1..N (block 0 implicit)

    def level_table(self) -> dict[int, int]:
        table: dict[int, int] = {}
        for k, block in enumerate(self.blocks, start=1):
            for m in block:
                table[m] = k
        return table


def build_B_partition(S, E, N: int) -> PartitionB:
    """Blocks by erosion depth, which tile the window and which one window
    shift moves by at most one.

    The window is N max|E| + max(S), the least the sumset definition
    allows.  Block k (1 <= k < N) of that definition is D_k - D_{k+1} with
    D_k = {x in [-window, window] : x - Sigma_k E inside S}, and block N
    is D_N.  Because the normalized window is symmetric and holds 0, x lies
    in D_k exactly when every point within k nonzero window steps of x
    lies in S, that is when its erosion depth (the fewest nonzero steps
    from x to a point outside S, minus 1) is at least k.  One
    breadth-first pass from the points of S next to its complement
    computes every depth below N in O(|S| |E|) steps, whatever N is;
    points it leaves unreached are at depth N or more.

    The tiling and the shift containment are proved, and tested, not
    re-checked.  Each point gets exactly one depth: the pass gives a
    point the depth at which it is first reached, a point of S it never
    reaches gets N, and a point outside S gets none, which is block 0;
    so the blocks are disjoint.  A depth is a breadth-first distance to
    the frontier along the window's nonzero steps, which the normalized
    window holds together with their negatives, so two points one step
    apart have depths differing by at most 1, and the cap at N keeps
    that.  A point of S next to the complement has depth 0, the block of
    the complement, so a step across the boundary of S moves the level
    by at most 1 too.  Every point x with |x| <= window - max|E|, the
    points whose shifts are compared, has each x + m inside the window,
    where the blocks are stated."""
    S = tuple(sorted(set(int(s) for s in S)))
    E = normalize_window(E)
    if N < 1:
        raise ValueError("N must be >= 1")
    window = N * E[-1] + S[-1]
    universe = range(-window, window + 1)
    s_set = frozenset(S)
    steps = [e for e in E if e]
    frontier = [x for x in S if any(x + e not in s_set for e in steps)]
    depth = dict.fromkeys(frontier, 0)
    for k in range(1, N):
        reached = []
        for x in frontier:
            for e in steps:
                y = x + e
                if y in s_set and y not in depth:
                    depth[y] = k
                    reached.append(y)
        frontier = reached
    blocks: list[set] = [set() for _ in range(N)]
    for x in S:
        k = depth.get(x, N)
        if k and x in universe:
            blocks[k - 1].add(x)
    return PartitionB(S, E, N, window, tuple(frozenset(b) for b in blocks))


class EquivariantMap(NamedTuple):
    """Piecewise-constant assignment of states to simplex points."""

    assignment: tuple[SimplexPoint, ...]
    window_set: tuple[int, ...]  # E
    resolution: int  # N
    d: int
    epsilon_achieved: Fraction
    support_window: tuple[int, ...]

    def point(self, state: int) -> SimplexPoint:
        return self.assignment[state]

    def to_jsonable(self) -> dict:
        """Exact serialization: weights as reduced 'p/q' strings keyed by
        atom, made once per numerator tuple (points repeat few).  Canonical
        certificate JSON, every container new, so a certificate takes it."""
        weights: dict[tuple[int, ...], list[str]] = {}
        points = []
        for p in self.assignment:
            if p.nums not in weights:
                gs = [gcd(x, p.den) for x in p.nums]
                weights[p.nums] = [f"{x // g}/{p.den // g}" for x, g in zip(p.nums, gs)]
            points.append(dict(zip(map(str, p.atoms), weights[p.nums])))
        return {
            "window_set": list(self.window_set),
            "resolution": self.resolution,
            "d": self.d,
            "epsilon_achieved": f"{self.epsilon_achieved.numerator}/{self.epsilon_achieved.denominator}",
            "support_window": list(self.support_window),
            "points": points,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "EquivariantMap":
        """Inverse of ``to_jsonable``; a point with a weight that is not
        positive, weights not summing to exactly 1, or a repeated atom, and
        a ``support_window`` other than the sorted union of the points'
        atoms, and ``points`` other than a list of objects, raise
        ValueError.  Every point's atoms are checked, and each distinct tuple
        of weights in atom order once, by ``SimplexPoint.from_entries``."""
        listed = data["points"]
        if type(listed) is not list or any(type(entry) is not dict for entry in listed):
            raise ValueError("map points are not a list of objects")
        shapes: dict[tuple, SimplexPoint] = {}  # weights -> their point on atoms 0, 1, ...
        points = []
        for entry in listed:
            by_atom = {int(a): w for a, w in entry.items()}
            if len(by_atom) != len(entry):
                raise ValueError("atoms must be distinct")
            atoms = tuple(sorted(by_atom))
            weights = tuple(map(by_atom.__getitem__, atoms))
            if weights not in shapes:
                shapes[weights] = SimplexPoint.from_entries(enumerate(weights))
            shape = shapes[weights]
            points.append(SimplexPoint._unchecked(atoms, shape.nums, shape.den))
        support = _atom_union(points)
        if tuple(data["support_window"]) != support:
            raise ValueError("support_window is not the sorted union of the points' atoms")
        return cls(
            assignment=tuple(points),
            window_set=tuple(data["window_set"]),
            resolution=data["resolution"],
            d=data["d"],
            epsilon_achieved=Fraction(data["epsilon_achieved"]),
            support_window=support,
        )


def _atom_union(points) -> tuple[int, ...]:
    return tuple(sorted({a for p in points for a in p.atoms}))


def build_equivariant_map(
    sys: FiniteSymbolicSystem,
    tps: TowerPairSystem,
    E,
    N: int,
    target_epsilon,
    orbit_window=frozenset(),
) -> EquivariantMap:
    """The tower-pair map at resolution N for the window E.

    Requires a verified pair system whose margin clause covers the N-fold
    sumset of E (that is exactly what makes the normalizer H >= 1).  The
    level exponents are those read off the system the pairs were verified
    on (typically the entry-free restriction of ``sys``), while fibers and
    the deviation are measured on ``sys``."""
    E = normalize_window(E)
    eps = Fraction(target_epsilon)
    d = tps.d_claimed
    bound = (d + 1) * (d + 2)
    # (d+1)(d+2)/N < eps, cross-multiplied so that N <= 0 fails too
    if bound * eps.denominator >= eps.numerator * N:
        raise NTooSmall(
            f"(d+1)(d+2)/N = {bound}/{N} not below {eps}; "
            f"N must be at least {bound * eps.denominator // eps.numerator + 1}"
        )
    if not sys.surjective_flag:
        raise NotSurjective("fiber maxima need every state to have a predecessor")
    pair_cert = tps.certificate
    if pair_cert is None or not pair_cert.passed:
        why = f"; failing clause {pair_cert.first_failure()}" if pair_cert else ""
        raise TowerPairsInsufficient(f"tower pairs must carry a passing certificate{why}")
    # pairs over one exponent range share its tent
    tent_of = {}
    for pair in tps.pairs:
        if pair.exponents not in tent_of:
            tent_of[pair.exponents] = build_B_partition(pair.exponents, E, N).level_table()
    tents = [tent_of[pair.exponents] for pair in tps.pairs]
    points = []
    for x in range(sys.num_states):
        # tent levels k of the pairs through x; the weights are k / N over
        # the normalizer H = total / N, so the point is mass / total
        mass: dict[int, int] = {}
        total = 0
        for levels, tent in zip(tps.level_of, tents):
            m = levels.get(x)
            if m is None:
                continue
            k = tent.get(m, 0)
            if k:
                mass[m] = mass.get(m, 0) + k
                total += k
        if total < N:
            raise TowerPairsInsufficient(
                f"normalizer H = {Fraction(total, N)} < 1 at state {x}; the pair margins do "
                f"not cover the {N}-fold sumset of the window"
            )
        points.append(SimplexPoint.from_masses(mass))
    emap = EquivariantMap(
        assignment=tuple(points),
        window_set=E,
        resolution=N,
        d=d,
        epsilon_achieved=Fraction(0),
        support_window=_atom_union(points),
    )
    cert = check_equivariance(sys, emap, E, eps, orbit_window)
    achieved = Fraction(str(cert.params["max_regular_deviation"]))
    return emap._replace(epsilon_achieved=achieved)


def check_equivariance(
    sys: FiniteSymbolicSystem,
    emap: EquivariantMap,
    E,
    epsilon,
    orbit_window=frozenset(),
) -> Certificate:
    """Exact deviation measurement over every window edge (x, n, y), n in
    the normalized window, y an n-step successor (n >= 0) or |n|-step
    predecessor (n < 0) of x.

    Edges realizable without crossing into ``orbit_window`` from outside
    are *regular* and must stay below epsilon.  Entry-crossing edges are
    the finite trace of the discrete special orbits, where a class still
    mixes orbit and non-orbit histories at this resolution; no map that is
    constant on classes can move both histories correctly at once, so
    these finitely many edges form the exception bucket: the certificate
    requires them to be confined to the declared window and reports their
    count and worst deviation separately.

    One forward walk per state measures each edge (x, n, y), n > 0, once.
    Its mirror (y, -n, x) has the same deviation (the shift is an l1
    isometry) and regularity (x is an n-step predecessor of y exactly when
    y is an n-step successor of x), and (x, 0, x) has deviation 0, so
    ``edges`` is the states plus twice the forward edges.

    A forward edge is aligned when y's point has the atoms of x's point
    less n: the same shape (atoms less the first atom) and the first atom
    less n.  ``l1`` then pairs the atoms by position, so its unreduced
    ``(numerator, denominator)`` depends on the two numerator tuples alone
    and is measured once per pair of tuples in a call; every other edge is
    measured on its own.  The deviations are the same pairs either way, so
    the ties, the witness and ``edges`` are too.  The witness is
    the first worst regular edge in the order x, n, then y as
    ``sys.image({x}, n)`` or ``sys.preimage({x}, -n)`` iterates; None if
    every regular deviation is 0."""
    E = normalize_window(E)
    eps = Fraction(epsilon)
    orbit_window = frozenset(orbit_window)
    points, support = emap.assignment, emap.d + 1
    succ = sys.succ
    # the successors an edge reaches without entering the orbit window from outside
    free_succ = [
        ts if s in orbit_window else tuple(t for t in ts if t not in orbit_window)
        for s, ts in enumerate(succ)
    ]
    steps = frozenset(E)
    # aligned edges, measured once per pair of numerator tuples
    firsts = [p.atoms[0] for p in points]
    shapes = [tuple(a - p.atoms[0] for a in p.atoms) for p in points]
    aligned: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, int]] = {}
    # deviations as (numerator, denominator) pairs, ordered by
    # cross-multiplication; the forward edges tied at the worst regular
    # deviation are kept to rank them and their mirrors for the witness
    worst, tied, exc_worst = (0, 1), [], (0, 1)
    forward = exceptional = 0
    confined = True
    for x in range(sys.num_states):
        px, image, free = points[x], (x,), (x,)
        shape, first = shapes[x], firsts[x]
        for n in range(1, E[-1] + 1):
            # a one-state set steps to its successor tuple, which is sorted
            # and holds each state once
            if len(image) == 1:
                (s,) = image
                image = succ[s]
            else:
                image = {t for s in image for t in succ[s]}
            if len(free) == 1:
                (s,) = free
                free = free_succ[s]
            else:
                free = {t for s in free for t in free_succ[s]}
            if n not in steps:
                continue
            forward += len(image)
            for y in image:
                py = points[y]
                if firsts[y] == first - n and shapes[y] == shape:
                    key = (py.nums, px.nums)
                    dev = aligned.get(key)
                    if dev is None:
                        dev = aligned[key] = py.l1(px, n)
                else:
                    dev = py.l1(px, n)
                if y in free:
                    gap = dev[0] * worst[1] - worst[0] * dev[1]
                    if gap > 0:
                        worst, tied = dev, [(x, n, y)]
                    elif gap == 0 and dev[0]:
                        tied.append((x, n, y))
                else:
                    exceptional += 1
                    confined = confined and (x in orbit_window or y in orbit_window)
                    if dev[0] * exc_worst[1] > exc_worst[0] * dev[1]:
                        exc_worst = dev
    witness = _first_edge(sys, tied + [(y, -n, x) for x, n, y in tied])
    worst, exc_worst = Fraction(*worst), Fraction(*exc_worst)
    edges = sys.num_states + 2 * forward
    clauses = [
        Clause(
            "regular-deviation-below-epsilon",
            worst < eps,
            f"max regular deviation {worst} at edge {witness} over {edges} edges",
        ),
        Clause(
            "exceptional-edges-confined-to-orbit-window",
            confined,
            f"{2 * exceptional} entry edges, worst deviation {exc_worst}",
        ),
        Clause(
            "probability-vectors",
            # holds by construction of SimplexPoint; re-read from the numerators
            all(sum(p.nums) == p.den for p in points),
            "",
        ),
        Clause(
            "support-bound",
            all(len(p.atoms) <= support for p in points),
            f"d+1 = {support}",
        ),
    ]
    return Certificate.build(
        kind="equivariance",
        params={
            "E": list(E),
            "epsilon": eps,
            "resolution": emap.resolution,
            "d": emap.d,
            "max_regular_deviation": worst,
            "exceptional_edges": 2 * exceptional,
            "max_exceptional_deviation": exc_worst,
            "orbit_window_size": len(orbit_window),
            "edges": edges,
        },
        clauses=clauses,
    )


def _first_edge(sys: FiniteSymbolicSystem, edges):
    """The first of ``edges`` in ``check_equivariance``'s edge order (the
    normalized window is sorted), or None for no edges."""
    if not edges:
        return None
    x, n = min((x, n) for x, n, _ in edges)
    ys = {y for u, m, y in edges if (u, m) == (x, n)}
    reach = sys.image({x}, n) if n >= 0 else sys.preimage({x}, -n)
    return next((x, n, y) for y in reach if y in ys)


def project_finite_support(emap: EquivariantMap, S, delta) -> tuple[EquivariantMap, Fraction]:
    """Restrict to the support window S and renormalize; the displacement
    of every state equals 2 (1 - kept mass), exactly.  Requires tail mass
    below delta/2 everywhere.  Returns the new map and the worst
    displacement."""
    S = frozenset(int(s) for s in S)
    delta = Fraction(delta)
    new_points = []
    worst = (0, 1)
    # a point with no atom outside S has tail 0, below delta/2 when delta
    # is positive, and stays where it is
    keeps_whole = delta > 0
    for x, p in enumerate(emap.assignment):
        if keeps_whole and S.issuperset(p.atoms):
            new_points.append(p)
            continue
        mass = {a: x for a, x in zip(p.atoms, p.nums) if a in S}
        tail = p.den - sum(mass.values())
        # tail / den < delta / 2, cross-multiplied
        if not mass or not 2 * tail * delta.denominator < delta.numerator * p.den:
            raise TailMassTooLarge(
                f"state {x}: tail mass {Fraction(tail, p.den)} >= delta/2 = {delta / 2}"
            )
        q = SimplexPoint.from_masses(mass)
        moved = p.l1(q)
        if moved[0] * p.den != 2 * tail * moved[1]:
            raise AssertionError(f"projection distance formula violated at state {x}")
        if moved[0] * worst[1] > worst[0] * moved[1]:
            worst = moved
        new_points.append(q)
    projected = emap._replace(assignment=tuple(new_points), support_window=tuple(sorted(S)))
    return projected, Fraction(*worst)
