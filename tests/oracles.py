"""Independent reference computations used by the test suite.

Everything here is deliberately naive: sliding windows over explicit
substitution iterates, brute-force filtering of all words, exhaustive
subset enumeration.  The library must agree with these on every example;
the oracles never call the code paths they check.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction

from shiftdim.amenability import build_B_partition
from shiftdim.certificates import Certificate, Clause
from shiftdim.simplex import SimplexPoint
from shiftdim.towers import normalize_window


def substitution_image(rules: dict[str, str], seed: str, power: int) -> str:
    word = seed
    for _ in range(power):
        word = "".join(rules[c] for c in word)
    return word


def sliding_factors(text: str, n: int) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def substitution_factors_oracle(rules: dict[str, str], n: int) -> set[str]:
    """Factors of length n of a primitive substitution on at least two
    letters, by sliding a window over σʲ(ab) for every 2-factor ab.  The
    2-factors are those of the images σ(c), closed under adding those of
    σ(ab).  j is the least power with every |σʲ(c)| >= n: a factor lies in
    some σᵏ(c) = σʲ(σᵏ⁻ʲ(c)), a join of blocks σʲ(x) of at least n
    symbols each, so its n symbols meet at most two neighbouring blocks,
    the images of a 2-factor."""
    pairs: set[str] = set()
    todo = list(rules.values())
    while todo:
        word = todo.pop()
        for ab in sliding_factors(word, 2) - pairs:
            pairs.add(ab)
            todo.append(rules[ab[0]] + rules[ab[1]])
    power = 0
    while min(len(substitution_image(rules, c, power)) for c in rules) < n:
        power += 1
        if power > 64:
            raise RuntimeError("letter images do not grow")
    return set().union(*(sliding_factors(substitution_image(rules, ab, power), n) for ab in pairs))


def sft_factors_oracle(alphabet: str, forbidden: set[str], n: int) -> set[str]:
    """All length-n words with no forbidden factor and at least one
    arbitrarily long right extension (checked out to n + 3*maxlen + 8).
    A forbidden factor met by a new symbol ends at it, so it lies in the
    last maxlen symbols: the walk keeps those suffixes of the extensions,
    not the extensions themselves."""
    ok = lambda w: not any(f in w for f in forbidden)
    maxlen = max((len(f) for f in forbidden), default=1)
    words = {"".join(t) for t in itertools.product(alphabet, repeat=n) if ok("".join(t))}
    pad = 3 * maxlen + 8
    out = set()
    for w in words:
        frontier = {w[-maxlen:]}
        for _ in range(pad):
            frontier = {
                (u + a)[-maxlen:] for u in frontier for a in alphabet if ok((u + a)[-maxlen:])
            }
            if not frontier:
                break
        if frontier:
            out.add(w)
    return out


def left_special_oracle(language_n: set[str], language_n1: set[str], alphabet: str) -> set[str]:
    return {
        w
        for w in language_n
        if sum(1 for a in alphabet if a + w in language_n1) >= 2
    }


# -- the language layer, one length at a time --------------------------------
# The routines the sorted language replaced: a set per length, a Counter of
# left extensions, and the factorial check at every length.


def prefix_sets_oracle(words, n_max: int) -> list[set[str]]:
    """Index n-1 -> the set of length-n prefixes of ``words``, n = 1..n_max."""
    return [{w[:n] for w in words} for n in range(1, n_max + 1)]


def left_special_counter_oracle(lang_n, lang_n1) -> list[str]:
    """Sorted length-n words with >= 2 left extensions: the left
    extensions of w are the length-(n+1) factors ending in it."""
    ends = Counter(u[1:] for u in lang_n1)
    return sorted(w for w, ext in ends.items() if ext >= 2 and w in lang_n)


def check_factorial_oracle(levels) -> bool:
    """``levels[n-1]`` holds length-n words: both length-(n-1) factors of
    every word occur one level up, at every length."""
    for n in range(2, len(levels) + 1):
        shorter = set(levels[n - 2])
        for w in levels[n - 1]:
            if w[:-1] not in shorter or w[1:] not in shorter:
                return False
    return True


def prefix_closure_oracle(levels) -> bool:
    """The length-n prefix of every level-(n+1) word is at level n."""
    return all(w[:-1] in set(levels[n - 1]) for n in range(1, len(levels)) for w in levels[n])


def full_chain_count_oracle(levels) -> int:
    """Deepest-level words all of whose prefixes are at their levels."""
    sets = [set(level) for level in levels]
    return sum(
        1 for w in levels[-1] if all(w[:m] in sets[m - 1] for m in range(1, len(levels)))
    )


def min_ratio_oracle(counts: list[int]) -> Fraction:
    """min p(n)/n for n = 1..len(counts), exact."""
    return min(Fraction(p, n) for n, p in enumerate(counts, start=1))


def iterated_sumsets(E, count: int) -> list[frozenset]:
    """[Sigma_1 E, ..., Sigma_count E]; with 0 in E the chain is nested."""
    E = frozenset(E)
    out = [E]
    for _ in range(count - 1):
        out.append(frozenset(a + b for a in out[-1] for b in E))
    return out


def sumset_partition_oracle(S, E, N: int, window: int) -> tuple[frozenset, ...]:
    """Blocks 1..N straight from the sumset definition: block k < N is
    D_k - D_{k+1} and block N is D_N, where D_k collects the x in
    [-window, window] with x - Sigma_k E inside S.  ``E`` is used as
    given, so pass the normalized window."""
    s_set = frozenset(S)
    sums = iterated_sumsets(E, N)
    D = [
        frozenset(x for x in range(-window, window + 1) if all(x - m in s_set for m in sums[k]))
        for k in range(N)
    ]
    return tuple(D[k - 1] - D[k] for k in range(1, N)) + (D[N - 1],)


def descriptor_oracle(prefix: str, past, alphabet) -> str:
    """The label of a cover state with length-k prefix ``prefix`` and past
    set ``past``, as ``graph.system.labels[s]`` reads it, the long way:
    decode the whole prefix with the declared symbol names (space-joined
    unless every symbol is one character), then cut it to 12 + '..' + 8
    characters if it is longer than 24."""
    sep = "" if all(len(s) == 1 for s in alphabet.symbols) else " "
    decode = lambda word: sep.join(alphabet.symbols[ord(c) - 48] for c in word)
    prefix = decode(prefix)
    if len(prefix) > 24:
        prefix = prefix[:12] + ".." + prefix[-8:]
    past = ",".join(decode(p) for p in sorted(past))
    return f"[{prefix}|{past}]"


def cover_key(graph, word: str, lookahead: int) -> tuple:
    """``(prefix, past)`` of ``word`` at ``lookahead``, spelled out as
    ``(graph.pi(s), graph._keys[s][1])`` spells state ``s``'s.  The past is
    read through the graph's per-tail cache, so this is what a test checks
    against the uncached past, not an oracle itself."""
    k = graph.k
    return (word[:k], graph._past(word[k : k + lookahead]))


def cover_class(graph, word: str) -> int:
    """The state of ``word``'s class, found by its ``(prefix rank, past)``
    key among the graph's state keys; like ``cover_key``, what a test
    checks against its own grouping, not an oracle itself."""
    return graph._keys.index(graph._rank_key(word))


def past_stabilized_oracle(graph) -> bool:
    """The graph's stabilization flag by two walks over its stored words,
    each key spelled out with its past filtered from ``language(l)``.  The
    first walk groups the words by their key at the lookahead, the second
    by their key at one less.  The flag holds when no group of the second
    walk meets two groups of the first and there are as many of each.  A
    lookahead of 1 has no shorter one, so its flag is False."""
    spec, k, l, lam = graph.spec, graph.k, graph.l, graph.lookahead
    if lam < 2:
        return False

    def key(word: str, m: int) -> tuple:
        tail = word[k : k + m]
        return word[:k], frozenset(mu for mu in spec.language(l) if spec.is_factor(mu + tail))

    fine = {w: key(w, lam) for w in graph.stored}
    coarse: dict = {}
    for w in graph.stored:
        coarse.setdefault(key(w, lam - 1), set()).add(fine[w])
    states = set(fine.values())
    return len(coarse) == len(states) and all(len(keys) == 1 for keys in coarse.values())


def orbit_window_oracle(graph) -> frozenset:
    """The isolated orbit window by its definition, read through the
    ``class_words`` view: the classes holding exactly one stored word that
    a path of such classes, along edges either way, joins to a merge
    state, found breadth first."""
    sys = graph.system
    single = {s for s in range(graph.num_states) if len(graph.class_words[s]) == 1}
    reached: set[int] = set()
    layer = set(sys.special_states())
    while layer:
        layer = {t for s in layer for t in (*sys.succ[s], *sys.pred[s]) if t in single} - reached
        reached |= layer
    return frozenset(reached)


def predecessors_oracle(succ) -> tuple[tuple[int, ...], ...]:
    """Each state's predecessors, sorted and without repeats, from the
    successor lists as given (in any order, with repeats)."""
    preds = [set() for _ in succ]
    for s, targets in enumerate(succ):
        for t in targets:
            preds[t].add(s)
    return tuple(tuple(sorted(p)) for p in preds)


def shortest_cycle_oracle(succ, bound: int) -> int | None:
    """The length of the shortest cycle of the graph with successor lists
    ``succ`` if it is at most ``bound``, else None.  A cycle through v is
    a path from v to some u with an edge u -> v, so a breadth-first search
    from every state v gives the shortest one through v."""
    lengths = []
    for v in range(len(succ)):
        dist = {v: 0}
        queue = [v]
        for u in queue:
            for t in succ[u]:
                if t == v:
                    lengths.append(dist[u] + 1)
                if t not in dist:
                    dist[t] = dist[u] + 1
                    queue.append(t)
    shortest = min(lengths)
    return shortest if shortest <= bound else None


def renamed_cover_states(graph, renamed, rename: dict) -> list[int]:
    """The state of ``renamed`` that each state of ``graph`` becomes when
    every letter of its stored words is renamed by ``rename`` (internal
    symbol -> internal symbol).  A state's stored words, renamed, must be
    exactly one state's stored words; an AssertionError says which state
    has no image, or that two states share one.  The map is then checked
    to carry the edges of ``graph`` onto those of ``renamed``."""
    table = str.maketrans(rename)
    of_words = {frozenset(words): t for t, words in enumerate(renamed.class_words)}
    image = []
    for s, words in enumerate(graph.class_words):
        renamed_words = frozenset(w.translate(table) for w in words)
        assert renamed_words in of_words, f"state {s} has no renamed image"
        image.append(of_words[renamed_words])
    assert sorted(image) == list(range(renamed.num_states)), "two states share an image"
    for s, targets in enumerate(graph.succ):
        assert sorted(image[t] for t in targets) == list(renamed.succ[image[s]]), s
    return image


class SweepFailed(Exception):
    """A block of the oracle's sweep does not collapse level by level."""


def rokhlin_sweep_oracle(sys, rest, N: int) -> frozenset:
    """The base that sweeps the states ``rest``, one frozen union at a
    time: W starts as the first state, and each later state that lies in
    none of the first 2N preimage levels of W adds its N-step image.  It
    is checked first: for each of its first N - 1 levels (the image, then
    its one-step image, and so on), the one-step preimage of the level's
    image must be the level.  Raises ``SweepFailed`` at the first block
    where one is not."""
    rest = list(rest)
    W = frozenset(rest[:1])
    swept = frozenset().union(*(sys.preimage(W, i) for i in range(2 * N)))
    for x in rest[1:]:
        if x in swept:
            continue
        new = sys.image({x}, N)
        block = new
        for _ in range(N - 1):
            nxt = sys.image(block, 1)
            if sys.preimage(nxt, 1) != block:
                raise SweepFailed(x)
            block = nxt
        W = W | new
        swept = swept.union(*(sys.preimage(new, i) for i in range(2 * N)))
    return W


def special_cone_rest(sys, N: int) -> list[int]:
    """The states outside the first 2N preimage levels of every state with
    two or more predecessors, in increasing order."""
    cone = set()
    for w, ws in enumerate(predecessors_oracle(sys.succ)):
        if len(ws) >= 2:
            cone.update(*(sys.preimage({w}, i) for i in range(2 * N)))
    return [s for s in range(sys.num_states) if s not in cone]


def margin_witness_oracle(sys, tps) -> tuple[str, dict]:
    """The ``(5)-margin-witness`` clause's witness text and the
    ``witness_kinds`` counts, by a per-state search over every pair: a
    state's level in a pair is the first ``n`` of the pair's exponents
    with the state in ``sys.preimage(base, n)``.  Each state in turn takes
    the first base pair that holds it below M with margin, or at M or
    above with its pulled-back partner holding it with margin, else the
    first pair of any kind with margin; the counts stop at the first state
    with no witness."""
    level_of = []
    for pair in tps.pairs:
        seen = {}
        for n in pair.exponents:
            for s in sys.preimage(pair.base, n):
                seen.setdefault(s, n)
        level_of.append(seen)
    lo_e, hi_e = min(tps.E), max(tps.E)

    def margin_ok(idx: int, n: int) -> bool:
        # E + {n} stays inside the pair's contiguous exponent range
        exps = tps.pairs[idx].exponents
        return n + lo_e in exps and n + hi_e in exps

    base_kind = 0
    shifted_kind = 0
    bad_state = None
    shifted_partner = {
        p.origin: i for i, p in enumerate(tps.pairs) if p.kind == "shifted"
    }
    for x in range(sys.num_states):
        found = None
        # proof-order witness search: original pair below M, else its
        # pulled-back partner, else any valid pair
        for idx, pair in enumerate(tps.pairs):
            if pair.kind != "base":
                continue
            n = level_of[idx].get(x)
            if n is None:
                continue
            if n < tps.M and margin_ok(idx, n):
                found = ("original", idx, n)
                break
            partner = shifted_partner.get(pair.origin)
            if n >= tps.M and partner is not None:
                n2 = level_of[partner].get(x)
                if n2 is not None and margin_ok(partner, n2):
                    found = ("shifted", partner, n2)
                    break
        if found is None:
            for idx, pair in enumerate(tps.pairs):
                n = level_of[idx].get(x)
                if n is not None and margin_ok(idx, n):
                    found = ("original" if pair.kind == "base" else "shifted", idx, n)
                    break
        if found is None:
            bad_state = x
            break
        if found[0] == "original":
            base_kind += 1
        else:
            shifted_kind += 1
    text = (
        f"witnesses: {base_kind} original-kind, {shifted_kind} shifted-kind"
        if bad_state is None
        else f"state {bad_state} has no margin witness"
    )
    return text, {"original": base_kind, "shifted": shifted_kind}


# -- the simplex in Fractions ---------------------------------------------------
# A point is a dict atom -> Fraction weight, read off ``SimplexPoint.entries``.


def dirac(atom: int) -> SimplexPoint:
    """The point with all its mass on one atom."""
    return SimplexPoint((int(atom),), (1,))


def cell_distance(mu: SimplexPoint, cell) -> Fraction:
    """l1 distance from mu to the closed cell of points supported on the
    given atoms: 2 (1 - mass inside the cell)."""
    cell = set(cell)
    kept = sum((w for a, w in mu.entries if a in cell), Fraction(0))
    return 2 * (1 - kept)


def entries_oracle(entries) -> dict:
    """``SimplexPoint.from_entries`` read with a ``Fraction`` per weight:
    the atom -> weight map, or the ValueError of the first rule broken
    (distinct atoms, positive weights, sum exactly 1).  A weight that
    ``Fraction`` refuses raises what ``Fraction`` raises."""
    pairs = [(int(a), Fraction(w)) for a, w in entries]
    if len({a for a, _ in pairs}) != len(pairs):
        raise ValueError("atoms must be distinct")
    if any(w <= 0 for _, w in pairs):
        raise ValueError("weights must be positive")
    if sum(w for _, w in pairs) != 1:
        raise ValueError("weights must sum to exactly 1")
    return dict(pairs)


def l1_oracle(mu: dict, nu: dict, n: int = 0) -> Fraction:
    """l1 distance from mu to nu shifted by n (nu's mass at a moves to
    a - n), summed in Fractions over the union of the supports."""
    shifted = {a - n: w for a, w in nu.items()}
    return sum(
        (abs(mu.get(a, Fraction(0)) - shifted.get(a, Fraction(0))) for a in set(mu) | set(shifted)),
        Fraction(0),
    )


def ring_membership_oracle(mu: dict, i: int) -> tuple[bool, tuple | None]:
    """Ring i of the skeleton-neighborhood cover in Fractions: within
    1/(3*10^i) of the i-skeleton and, for i > 0, strictly farther than
    5/(2*10^i) from the (i-1)-skeleton, the skeleton distances minimized
    over every candidate support; the cell is the heaviest i+1 atoms,
    ties broken by atom order."""

    def skeleton(size: int) -> Fraction:
        cells = itertools.combinations(sorted(mu), min(size, len(mu)))
        return min(2 * (1 - sum((mu[a] for a in cell), Fraction(0))) for cell in cells)

    if not skeleton(i + 1) < Fraction(1, 3 * 10**i):
        return False, None
    if i > 0 and not skeleton(i) > Fraction(5, 2 * 10**i):
        return False, None
    ranked = sorted(mu, key=lambda a: (-mu[a], a))
    return True, tuple(sorted(ranked[: i + 1]))


def projection_oracle(mu: dict, S) -> tuple[dict, Fraction]:
    """Restriction of mu to S, renormalized, and its displacement, which
    must equal twice the tail mass outside S."""
    kept = sum((w for a, w in mu.items() if a in S), Fraction(0))
    projected = {a: w / kept for a, w in mu.items() if a in S}
    moved = l1_oracle(mu, projected)
    assert moved == 2 * (1 - kept)
    return projected, moved


# -- tower-pair maps ---------------------------------------------------------------


def tower_pair_map_oracle(sys, tps, E, N: int) -> tuple[SimplexPoint, ...]:
    """The points of ``build_equivariant_map(sys, tps, E, N, ...)`` with one
    margin partition per pair, shared by none."""
    from shiftdim.amenability import build_B_partition

    tents = [build_B_partition(pair.exponents, E, N).level_table() for pair in tps.pairs]
    points = []
    for x in range(sys.num_states):
        mass: Counter = Counter()
        for levels, tent in zip(tps.level_of, tents):
            m = levels.get(x)
            if m is not None and tent.get(m, 0):
                mass[m] += tent[m]
        points.append(SimplexPoint.from_masses(dict(mass)))
    return tuple(points)


# -- equivariance, one window edge at a time -------------------------------------


def _symmetric_window(E) -> list[int]:
    """The window with its negatives and 0, sorted."""
    return sorted({0} | {int(n) for n in E} | {-int(n) for n in E})


def _entry_free_path(sys, start: int, end: int, steps: int, window) -> bool:
    """Some ``steps``-step path from start to end never steps from outside
    ``window`` into it; every path is tried."""
    if steps == 0:
        return start == end
    return any(
        _entry_free_path(sys, v, end, steps - 1, window)
        for v in sys.succ[start]
        if start in window or v not in window
    )


def window_edges_oracle(sys, emap, E, orbit_window=frozenset()):
    """Every window edge ``(x, n, y, deviation, regular)``, in the order
    x, then n in the normalized window, then y in the iteration of
    ``sys.image({x}, n)`` or ``sys.preimage({x}, -n)``, each measured on
    its own with ``l1_oracle``.  An edge is regular when an |n|-step path
    along its direction avoids every entry into the orbit window."""
    window = frozenset(orbit_window)
    points = [dict(p.entries) for p in emap.assignment]
    E = _symmetric_window(E)
    for x in range(sys.num_states):
        for n in E:
            ys = sys.image({x}, n) if n >= 0 else sys.preimage({x}, -n)
            for y in ys:
                start, end = (x, y) if n >= 0 else (y, x)
                regular = _entry_free_path(sys, start, end, abs(n), window)
                yield x, n, y, l1_oracle(points[y], points[x], n), regular


def equivariance_oracle(sys, emap, E, epsilon, orbit_window=frozenset(), edges=None) -> Certificate:
    """The equivariance certificate by the per-edge loop over
    ``window_edges_oracle`` (or over its output, passed as ``edges``); the
    witness is the first edge at the worst regular deviation."""
    E = _symmetric_window(E)
    eps = Fraction(epsilon)
    window = frozenset(orbit_window)
    if edges is None:
        edges = window_edges_oracle(sys, emap, E, window)
    worst, witness, exc_worst, exc_edges, count = Fraction(0), None, Fraction(0), [], 0
    for x, n, y, dev, regular in edges:
        count += 1
        if regular:
            if dev > worst:
                worst, witness = dev, (x, n, y)
        else:
            exc_edges.append((x, y))
            exc_worst = max(exc_worst, dev)
    points = [dict(p.entries) for p in emap.assignment]
    clauses = [
        Clause(
            "regular-deviation-below-epsilon",
            worst < eps,
            f"max regular deviation {worst} at edge {witness} over {count} edges",
        ),
        Clause(
            "exceptional-edges-confined-to-orbit-window",
            all(x in window or y in window for x, y in exc_edges),
            f"{len(exc_edges)} entry edges, worst deviation {exc_worst}",
        ),
        Clause("probability-vectors", all(sum(p.values()) == 1 for p in points), ""),
        Clause(
            "support-bound",
            all(len(p) <= emap.d + 1 for p in points),
            f"d+1 = {emap.d + 1}",
        ),
    ]
    return Certificate.build(
        kind="equivariance",
        params={
            "E": E,
            "epsilon": eps,
            "resolution": emap.resolution,
            "d": emap.d,
            "max_regular_deviation": worst,
            "exceptional_edges": len(exc_edges),
            "max_exceptional_deviation": exc_worst,
            "orbit_window_size": len(window),
            "edges": count,
        },
        clauses=clauses,
    )


# -- groupoid windows --------------------------------------------------------------


def closure_size_oracle(window, restricted) -> int:
    """Size of the closure of the restricted elements under inversion and
    composition inside the window, by walking it."""
    have = set(restricted)
    by_source: dict[int, set] = {}
    for g in have:
        by_source.setdefault(g[2], set()).add(g)
    frontier = list(have)
    while frontier:
        x, n, y = frontier.pop()
        inv = (y, -n, x)
        if inv in window.elements and inv not in have:
            have.add(inv)
            by_source.setdefault(x, set()).add(inv)
            frontier.append(inv)
        for g2 in list(by_source.get(y, ())):
            composed = (x, n + g2[1], g2[2])
            if composed in window.elements and composed not in have:
                have.add(composed)
                by_source.setdefault(g2[2], set()).add(composed)
                frontier.append(composed)
    return len(have)


def window_elements_oracle(sys, E, exponent_bound: int) -> dict:
    """The elements of ``build_window(sys, E, exponent_bound)`` in its
    order, each with its least witness pair (a, b): one dict of image sets
    per level through ``sys.image``, and a witness replaced whenever a
    smaller one turns up."""
    E = normalize_window(E)
    states = range(sys.num_states)
    images = [{x: frozenset({x}) for x in states}]
    for _ in range(exponent_bound):
        prev = images[-1]
        images.append({x: sys.image(prev[x], 1) for x in states})
    inverse = []
    for level in images:
        inv: dict[int, list[int]] = {}
        for x in states:
            for z in level[x]:
                inv.setdefault(z, []).append(x)
        inverse.append(inv)
    elements: dict[tuple[int, int, int], tuple[int, int]] = {}
    for n in E:
        for a in range(exponent_bound + 1):
            b = a - n
            if not (0 <= b <= exponent_bound):
                continue
            for z, xs in inverse[a].items():
                for x in xs:
                    for y in inverse[b].get(z, ()):
                        key = (x, n, y)
                        if key not in elements or (a, b) < elements[key]:
                            elements[key] = (a, b)
    return elements


def dad_cover_oracle(window, cover) -> Certificate:
    """``verify_dad_cover(window, cover)`` with one walk of the window per
    piece."""
    union = frozenset().union(*cover.pieces) if cover.pieces else frozenset()
    missing = window.sys.all_states() - union
    fset = set(cover.F)
    case_counts, closure_sizes, bad = [], [], None
    for i, piece in enumerate(cover.pieces):
        case1 = case2 = restricted = 0
        for (x, n, y) in window.triples():
            if x in piece and y in piece:
                restricted += 1
                if n in fset:
                    case1 += 1
                elif x in cover.orbit_states and y in cover.orbit_states:
                    case2 += 1
                elif bad is None:
                    bad = (i, x, n, y)
        case_counts.append((case1, case2))
        closure_sizes.append(restricted)
    clauses = [
        Clause(
            "unit-space-covering",
            not missing,
            "" if not missing else f"uncovered units {sorted(missing)[:5]}",
        ),
        Clause("difference-set-symmetric", all(-n in fset for n in fset), f"|F| = {len(fset)}"),
        Clause(
            "restricted-elements-two-cases",
            bad is None,
            (
                f"per-piece (difference-set, orbit-bucket) counts {case_counts}"
                if bad is None
                else f"piece {bad[0]}: element {bad[1:]} fits neither case"
            ),
        ),
        Clause(
            "generated-subgroupoid-finite-witness",
            True,
            f"closure sizes within window: {closure_sizes}",
        ),
    ]
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


# -- certificates --------------------------------------------------------------------


def canonical_json_oracle(data) -> str:
    """Canonical JSON by the standard library's indenting encoder."""
    return json.dumps(data, sort_keys=True, indent=1) + "\n"
