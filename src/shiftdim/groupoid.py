"""Finite windows of the orbit groupoid and the cover certificates on them.

A window collects the triples (x, n, y) with a common forward image
witnessed within an exponent bound, for n in a prescribed set.  The cover
construction pulls the skeleton-ring cells back through a finitely
supported equivariant map and adjoins the special-orbit window; its
certificate checks that every element restricted to one piece either has
its middle coordinate inside the difference set of the support or has
both endpoints in the finite orbit bucket, the two cases of the
finiteness argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .amenability import EquivariantMap
from .certificates import Certificate, Clause
from .errors import InvalidSpec, MissingEquivarianceCertificate
from .simplex import cover_index
from .systems import FiniteSymbolicSystem
from .towers import normalize_window


class GroupoidWindow:
    """Triples (x, n, y) with image witnesses a - b = n, a, b <= bound."""

    def __init__(self, sys: FiniteSymbolicSystem, E, exponent_bound: int):
        E = normalize_window(E)
        max_n = max(abs(n) for n in E)
        if exponent_bound < max_n:
            raise InvalidSpec(
                f"exponent bound {exponent_bound} below max |n| = {max_n} of the window set"
            )
        self.sys = sys
        self.E = E
        self.exponent_bound = exponent_bound
        # images[a][x]: the states at the end of the a-step paths from x,
        # each a frozenset built as ``sys.image`` builds it, so that it
        # iterates alike; a one-state set steps to its state's shared image
        succ = sys.succ
        step = [frozenset(set(targets)) for targets in succ]
        images = [[frozenset((x,)) for x in range(sys.num_states)]]
        for _ in range(exponent_bound):
            level = []
            for prev in images[-1]:
                if len(prev) == 1:
                    (s,) = prev
                    level.append(step[s])
                else:
                    level.append(frozenset({t for s in prev for t in succ[s]}))
            images.append(level)
        inverse: list[dict[int, list[int]]] = []
        for level in images:
            inv: dict[int, list[int]] = {}
            for x, image in enumerate(level):
                for z in image:
                    inv.setdefault(z, []).append(x)
            inverse.append(inv)
        # For one n the witness pairs (a, a - n) rise with a, so the first
        # pair that reaches a triple is its least.
        elements: dict[tuple[int, int, int], tuple[int, int]] = {}
        add = elements.setdefault
        for n in E:
            for a in range(max(0, n), min(exponent_bound, exponent_bound + n) + 1):
                ab, inverse_b = (a, a - n), inverse[a - n]
                for z, xs in inverse[a].items():
                    ys = inverse_b.get(z)
                    if ys is None:
                        continue
                    for x in xs:
                        for y in ys:
                            add((x, n, y), ab)
        self.elements = elements

    def __len__(self) -> int:
        return len(self.elements)

    def triples(self):
        return self.elements.keys()

    def element_rows(self):
        """Sorted (x, n, y, a, b) rows: triple plus its minimal witness."""
        return sorted(
            (x, n, y, a, b) for (x, n, y), (a, b) in self.elements.items()
        )

    def to_text(self) -> str:
        lines = [f"# window elements: {len(self.elements)}  E={list(self.E)}  "
                 f"bound={self.exponent_bound}"]
        lines += [f"{x}\t{n}\t{y}\t{a}\t{b}" for x, n, y, a, b in self.element_rows()]
        return "\n".join(lines) + "\n"

    def check_unit_inclusion(self) -> bool:
        return all((x, 0, x) in self.elements for x in range(self.sys.num_states))

    def check_inversion_closure(self) -> bool:
        return all((y, -n, x) in self.elements for (x, n, y) in self.elements)


def build_window(sys: FiniteSymbolicSystem, E, exponent_bound: int) -> GroupoidWindow:
    return GroupoidWindow(sys, E, exponent_bound)


def difference_set(S) -> tuple[int, ...]:
    """{n : (n + S) meets S}, i.e. the difference set S - S."""
    S = sorted(set(int(s) for s in S))
    if not S:
        return ()
    if S == list(range(S[0], S[-1] + 1)):
        r = S[-1] - S[0]
        return tuple(range(-r, r + 1))
    out = {a - b for a in S for b in S}
    return tuple(sorted(out))


@dataclass(frozen=True)
class DadCover:
    pieces: tuple[frozenset, ...]  # U_0 .. U_d (state sets)
    F: tuple[int, ...]
    orbit_states: frozenset


def build_dad_cover(
    window: GroupoidWindow,
    map_prime: EquivariantMap,
    orbit_states,
    equivariance_certificate: Certificate,
) -> DadCover:
    """Pieces U_i (i = 0..d, with d the map's) = (states sent into the
    i-th skeleton ring) united with the special-orbit window and the
    merge states of the window's system; F is the difference set of the
    support."""
    cert = equivariance_certificate
    if cert is None or not cert.passed:
        why = f"; failing clause {cert.first_failure()}" if cert else ""
        raise MissingEquivarianceCertificate(
            f"dad cover needs a passing equivariance certificate for the map{why}"
        )
    d = map_prime.d
    orbit = frozenset(orbit_states) | frozenset(window.sys.special_states())
    pieces = [set() for _ in range(d + 1)]
    ring_of: dict[tuple[int, ...], int] = {}  # the ring depends on the numerators alone
    for x in range(window.sys.num_states):
        point = map_prime.point(x)
        if point.nums not in ring_of:
            ring_of[point.nums] = cover_index(point, d)[0]
        pieces[ring_of[point.nums]].add(x)
    out = tuple(frozenset(p | orbit) for p in pieces)
    return DadCover(pieces=out, F=difference_set(map_prime.support_window), orbit_states=orbit)


def verify_dad_cover(window: GroupoidWindow, cover: DadCover) -> Certificate:
    """Checks the two-case finiteness argument piece by piece and records
    the finite generated-subgroupoid witness sizes."""
    clauses = []
    union = frozenset().union(*cover.pieces) if cover.pieces else frozenset()
    missing = window.sys.all_states() - union
    clauses.append(
        Clause(
            "unit-space-covering",
            not missing,
            "" if not missing else f"uncovered units {sorted(missing)[:5]}",
        )
    )
    fset = set(cover.F)
    sym_ok = all(-n in fset for n in fset)
    clauses.append(Clause("difference-set-symmetric", sym_ok, f"|F| = {len(fset)}"))
    # The closure of a piece's restricted elements under inversion and
    # composition inside the window is those elements themselves: an
    # inverse or composite has the same endpoints, so if it lies in the
    # window it is restricted too.
    #
    # One walk of the window: bit i of masks[x] says that piece i holds x,
    # so an element is restricted to the pieces of masks[x] & masks[y].
    # The walk tallies elements by that mask and their case (0 difference
    # set, 1 orbit bucket, 2 neither); the witness is the first element in
    # window order of the lowest piece with an element of case 2.
    pieces, orbit = cover.pieces, cover.orbit_states
    states = window.sys.all_states()
    masks = [0] * len(states)
    for i, piece in enumerate(pieces):
        for x in states.intersection(piece):
            masks[x] |= 1 << i
    tally: dict[tuple[int, int], int] = {}
    bad = None
    for x, n, y in window.triples():
        held = masks[x] & masks[y]
        if not held:
            continue
        if n in fset:
            case = 0
        elif x in orbit and y in orbit:
            case = 1
        else:
            case = 2
            low = (held & -held).bit_length() - 1
            if bad is None or low < bad[0]:
                bad = (low, x, n, y)
        tally[held, case] = tally.get((held, case), 0) + 1
    counts = [[0, 0, 0] for _ in pieces]
    for (held, case), count in tally.items():
        for i, piece_counts in enumerate(counts):
            if held >> i & 1:
                piece_counts[case] += count
    case_counts = [(case1, case2) for case1, case2, _ in counts]
    closure_sizes = [sum(piece_counts) for piece_counts in counts]
    clauses.append(
        Clause(
            "restricted-elements-two-cases",
            bad is None,
            (
                f"per-piece (difference-set, orbit-bucket) counts {case_counts}"
                if bad is None
                else f"piece {bad[0]}: element {bad[1:]} fits neither case"
            ),
        )
    )
    clauses.append(
        Clause(
            "generated-subgroupoid-finite-witness",
            True,
            f"closure sizes within window: {closure_sizes}",
        )
    )
    return Certificate.build(
        kind="dad-cover",
        params={
            "pieces": len(cover.pieces),
            "window_elements": len(window),
            "exponent_bound": window.exponent_bound,
            "E": list(window.E),
            "F_range": [min(fset), max(fset)] if fset else [],
            "orbit_states": len(cover.orbit_states),
        },
        clauses=clauses,
    )


@dataclass(frozen=True)
class BoundReport:
    q: int
    dim_x: int
    rokhlin: int
    tower: int
    amenability: int
    dad: int
    nuclear: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.rokhlin, self.tower, self.amenability, self.dad, self.nuclear)


def bound_chain(q: int, dim_x: int = 0) -> BoundReport:
    """Closed-form bound calculator: Rokhlin dimension 2q+1 (2q+2 towers),
    tower, amenability and groupoid bounds 4q+3, nuclear bound 6(dim+1)^2."""
    if q < 0 or dim_x < 0:
        raise ValueError("arguments must be nonnegative")
    return BoundReport(
        q=q,
        dim_x=dim_x,
        rokhlin=2 * q + 1,
        tower=4 * q + 3,
        amenability=4 * q + 3,
        dad=4 * q + 3,
        nuclear=6 * (dim_x + 1) ** 2,
    )
