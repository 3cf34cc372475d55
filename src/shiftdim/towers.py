"""Tower-pair systems: margin-carrying covers derived from tower covers.

A pair is a clopen base V with a finite exponent interval S whose
preimage levels are pairwise disjoint.  A system of pairs covers the
space so that every state sits at a level with margin: the prescribed
window E shifted by the level stays inside S.  The conversion from a height-(2 + 3 max|E|)
tower cover yields each tower base twice, once as-is and once pulled back
by M = 1 + 2 max|E|, and claims colorability with 2 (tower count) colors.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .certificates import Certificate, Clause
from .errors import DepthInsufficient, HeightMismatch
from .rokhlin import RokhlinCover
from .systems import ClopenSet, FiniteSymbolicSystem, overlapping_pair


def normalize_window(E) -> tuple[int, ...]:
    """Symmetrize and adjoin 0 (the standing normalization for windows)."""
    s = {int(n) for n in E}
    return tuple(sorted(s | {-n for n in s} | {0}))


class TowerPair(NamedTuple):
    base: ClopenSet
    exponents: range  # contiguous, step 1
    kind: str  # "base" or "shifted"
    origin: int  # tower index


class TowerPairSystem:
    def __init__(self, pairs, E, d_claimed: int):
        self.pairs: tuple[TowerPair, ...] = tuple(pairs)
        self.E = normalize_window(E)
        self.d_claimed = d_claimed
        # the pull-back shift 1 + 2 max|E|; E is sorted and symmetric
        self.M = 1 + 2 * self.E[-1]
        # per pair, the exponent at which each state first occurs; set by
        # verify_tower_pairs on the system it checks
        self.level_of: list[dict[int, int]] | None = None
        self.certificate: Certificate | None = None

    @property
    def height(self) -> int:
        """Read off the pairs: the length of the longest exponent range.
        Every producer gives all its pairs one range ``[0, height - 1]``."""
        return max((len(p.exponents) for p in self.pairs), default=0)


def pairs_from_rokhlin(cover: RokhlinCover, E) -> TowerPairSystem:
    """Tower pairs for the window E from a verified tower cover of height
    exactly 2 + 3 max|E|; the claimed color count is 2 (tower count)."""
    E = normalize_window(E)
    required = 2 + 3 * E[-1]
    if cover.height != required:
        raise HeightMismatch(
            f"cover height {cover.height} != 2 + 3*max|E| = {required}"
        )
    pairs = [TowerPair(t.base, range(required), "base", i) for i, t in enumerate(cover.towers)]
    return TowerPairSystem(pairs, E, 2 * len(cover.towers) - 1)


def attach_shifted_pairs(tps: TowerPairSystem, sys: FiniteSymbolicSystem) -> None:
    """Add the pulled-back copy (preimage by M) of every base pair."""
    tps.pairs += tuple(
        TowerPair(sys.preimage(p.base, tps.M), p.exponents, "shifted", p.origin)
        for p in tps.pairs if p.kind == "base"
    )


def _cycle_through(sys: FiniteSymbolicSystem, start: int) -> list[int]:
    """The deterministic cycle reached from ``start`` (first successors)."""
    seen: dict[int, int] = {}
    path: list[int] = []
    cur = start
    while cur not in seen:
        seen[cur] = len(path)
        path.append(cur)
        cur = sys.succ[cur][0]
    cyc = path[seen[cur] :]
    low = cyc.index(min(cyc))
    return cyc[low:] + cyc[:low]


def _first_collision_depth(sys: FiniteSymbolicSystem, base, maxdepth: int) -> int:
    """The first preimage level of ``base`` that meets an earlier one, or
    ``maxdepth + 1`` when levels 0..maxdepth are pairwise disjoint."""
    pair = overlapping_pair(sys.preimage_levels(base, maxdepth + 1))
    return maxdepth + 1 if pair is None else pair[1]


def build_phase_pairs(sys: FiniteSymbolicSystem, pair_count: int, rise: int) -> TowerPairSystem:
    """Pair system for symmetric windows: staggered hitting-time phases.

    The two-per-tower conversion gives margins only on the upper side of
    each exponent block, which suffices for one-sided windows but leaves
    symmetric windows without witnesses at low levels.  Here each pair is
    a single state on the main cycle with one long exponent interval; the
    bases are equally spaced by hitting time, so every state sees some
    base at an exponent with full symmetric margin, while the interval
    stays below the first self-collision depth of each base (that keeps
    the level sets of a pair pairwise disjoint and hence the pair count
    an upper bound for the chromatic number).  The margin window is
    -rise..rise, listed only once the span is found to hold it.  The
    claimed dimension is ``pair_count - 1``.
    """
    if pair_count < 1:
        raise ValueError("pair_count must be >= 1")
    cyc = _cycle_through(sys, 0)
    C = len(cyc)
    spacing = -(-C // pair_count)
    need = 2 * rise + spacing
    bases = [cyc[(j * C) // pair_count] for j in range(pair_count)]
    max_probe = max(2 * need + rise + 2, 4 * C)
    # use the whole collision-free depth: the margin plateau must also
    # catch states that enter the cycle late (the orbit handle)
    span = min(_first_collision_depth(sys, {b}, max_probe) for b in bases) - 1
    if span < need:
        raise DepthInsufficient(
            f"usable span {span} below 2*rise + cycle/pairs = {need}; deepen the graph"
        )
    pairs = [TowerPair(frozenset({b}), range(span + 1), "phase", j) for j, b in enumerate(bases)]
    return TowerPairSystem(pairs, range(-rise, rise + 1), pair_count - 1)


# Most nonempty sets chromatic_number colours by exhaustive search.
EXACT_COLORING_LIMIT = 20


def chromatic_number(family) -> int:
    """Exact chromatic number of the intersection graph of the sets, by
    backtracking.  At most ``EXACT_COLORING_LIMIT`` sets may be nonempty;
    more raise ValueError, so the search never runs unbounded."""
    sets = [frozenset(s) for s in family if s]
    n = len(sets)
    if n > EXACT_COLORING_LIMIT:
        raise ValueError(f"{n} nonempty sets, above {EXACT_COLORING_LIMIT}")
    if n == 0:
        return 0
    adj = [[False] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if sets[a] & sets[b]:
                adj[a][b] = adj[b][a] = True
    order = sorted(range(n), key=lambda v: -sum(adj[v]))

    def can_color(colors: int) -> bool:
        assignment = [-1] * n

        def place(pos: int, used_colors: int) -> bool:
            if pos == n:
                return True
            v = order[pos]
            used = {assignment[u] for u in range(n) if adj[v][u] and assignment[u] >= 0}
            # canonical order: at most one fresh color per step
            for c in range(min(colors, used_colors + 1)):
                if c not in used:
                    assignment[v] = c
                    if place(pos + 1, max(used_colors, c + 1)):
                        return True
                    assignment[v] = -1
            return False

        return place(0, 0)

    k = 1
    while not can_color(k):
        k += 1
    return k


def verify_tower_pairs(sys: FiniteSymbolicSystem, tps: TowerPairSystem) -> Certificate:
    """Exact check of the five pair-system clauses; the margin clause
    records how many states witness through an original pair (level < M)
    and how many through a pulled-back pair."""
    clauses = [Clause("(1)-openness-structural", True, "all sets clopen at state resolution")]
    # One walk per pair gives its level sets and the exponent at which each
    # state first occurs; a repeat is exactly a violation of pairwise level
    # disjointness.
    level_of: list[dict[int, int]] = []
    level_sets: list[frozenset] = []
    wit2 = ""
    for idx, pair in enumerate(tps.pairs):
        exps = pair.exponents
        seen: dict[int, int] = {}
        walk = islice(sys.preimage_levels(pair.base, exps.stop), exps.start, None)
        for n, level in zip(exps, walk):
            for s in level:
                if s not in seen:
                    seen[s] = n
                elif not wit2:
                    wit2 = f"pair {idx}: state {s} at levels {seen[s]} and {n}"
            level_sets.append(level)
        level_of.append(seen)
    tps.level_of = level_of
    clauses.append(Clause("(2-as-read)-level-disjointness", not wit2, wit2))
    nonempty = sum(1 for s in level_sets if s)
    if nonempty <= EXACT_COLORING_LIMIT:
        chrom = chromatic_number(level_sets)
        wit3 = f"exact chromatic {chrom}"
    else:
        # pair-index coloring is proper by clause (2); its size is the bound
        chrom = len(tps.pairs)
        wit3 = f"upper bound only: pair coloring with {chrom} colors"
    ok3 = chrom <= tps.d_claimed + 1
    clauses.append(Clause("(3)-chromatic-bound", ok3, f"{wit3} <= d+1 = {tps.d_claimed + 1}"))
    missing = sys.all_states().difference(*level_sets)
    clauses.append(
        Clause("(4)-covering", not missing, "" if not missing else f"missing {sorted(missing)[:5]}")
    )
    lo_e, hi_e = min(tps.E), max(tps.E)
    # each pair's plateau: the levels n with E + {n} inside its exponent range
    plateaus = [range(p.exponents.start - lo_e, p.exponents.stop - hi_e) for p in tps.pairs]
    shifted_partner = {p.origin: i for i, p in enumerate(tps.pairs) if p.kind == "shifted"}
    # Proof-order witness search, one pass per pair: a state takes the first
    # base pair holding it on the plateau below M, or at M or above with the
    # pulled-back partner holding it on that one's plateau; failing that, the
    # first pair of any kind holding it on the plateau.  kind_of is 0 for no
    # witness yet, 1 for an original-kind witness and 2 for a shifted-kind one.
    kind_of, M = bytearray(sys.num_states), tps.M
    for idx, pair in enumerate(tps.pairs):
        if pair.kind != "base":
            continue
        plateau = plateaus[idx]
        partner = shifted_partner.get(pair.origin)
        far, far_plateau = ({}, ()) if partner is None else (level_of[partner], plateaus[partner])
        for x, n in level_of[idx].items():
            if kind_of[x]:
                continue
            if n < M:
                if n in plateau:
                    kind_of[x] = 1
            else:
                n2 = far.get(x)
                if n2 is not None and n2 in far_plateau:
                    kind_of[x] = 2
    for idx, pair in enumerate(tps.pairs):
        plateau, kind = plateaus[idx], 1 if pair.kind == "base" else 2
        for x, n in level_of[idx].items():
            if not kind_of[x] and n in plateau:
                kind_of[x] = kind
    # the counts stop at the first state without a witness
    bad = kind_of.find(0)
    witnessed = kind_of if bad < 0 else kind_of[:bad]
    base_kind, shifted_kind = witnessed.count(1), witnessed.count(2)
    ok5 = bad < 0
    clauses.append(
        Clause(
            "(5)-margin-witness",
            ok5,
            (
                f"witnesses: {base_kind} original-kind, {shifted_kind} shifted-kind"
                if ok5
                else f"state {bad} has no margin witness"
            ),
        )
    )
    cert = Certificate.build(
        kind="tower-pairs",
        params={
            "pairs": len(tps.pairs),
            "E": list(tps.E),
            "M": tps.M,
            "height": tps.height,
            "d_claimed": tps.d_claimed,
            "witness_kinds": {"original": base_kind, "shifted": shifted_kind},
        },
        clauses=clauses,
    )
    tps.certificate = cert
    return cert
