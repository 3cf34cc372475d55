"""Finite-depth cover graphs for one-sided subshifts.

States are equivalence classes of depth-``k+horizon`` language words under
(same length-``k`` prefix, same length-``l`` past of the shifted tail), the
finite-resolution version of the (prefix, past)-equivalence that underlies
the zero-dimensional extension of a subshift.  The past of a tail is
computed at lookahead ``horizon - k``; one extra tail symbol is always
available so the one-step shift of every stored word can be classified at
the same lookahead, which makes the edge set well defined.

The resulting directed graph is the finite approximation consumed by the
tower machinery.  The shift on classes is single valued exactly where the
resolution suffices; ``functional`` reports that, and certificates carry
the stabilization and soundness flags rather than silently assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthInsufficient, EmptyLanguage, InvalidSpec
from .systems import FiniteSymbolicSystem
from .words import SFTSpec, SubshiftSpec


@dataclass(frozen=True)
class PastSet:
    """Length-``l`` words that may precede a given finite word, decided at
    finite lookahead.  Monotone nonincreasing in the lookahead."""

    l: int
    lookahead: int
    words: frozenset
    stabilized: bool


def _right_extensions(spec: SubshiftSpec, w: str, m: int) -> list[str]:
    if m == len(w):
        return [w]
    return [v for v in spec.language(m) if v.startswith(w)]


def _past_words(spec: SubshiftSpec, w: str, l: int) -> frozenset:
    lang_l = spec.language(l)
    return frozenset(mu for mu in lang_l if spec.is_factor(mu + w))


def past_set(spec: SubshiftSpec, w: str, l: int, lookahead: int) -> PastSet:
    """Words of length ``l`` preceding some admissible extension of ``w``
    to length ``lookahead``; the flag records agreement with lookahead-1."""
    if lookahead < len(w):
        raise ValueError("lookahead must be at least the word length")
    if not spec.is_factor(w):
        raise EmptyLanguage(f"not a factor: {w!r}")
    exts = _right_extensions(spec, w, lookahead)
    words = frozenset().union(*(_past_words(spec, e, l) for e in exts)) if exts else frozenset()
    if lookahead == 0:
        return PastSet(l, lookahead, words, False)
    shorter = w if len(w) <= lookahead - 1 else w[: lookahead - 1]
    exts1 = _right_extensions(spec, shorter, lookahead - 1) if lookahead - 1 >= len(shorter) else []
    words1 = (
        frozenset().union(*(_past_words(spec, e, l) for e in exts1)) if exts1 else frozenset()
    )
    return PastSet(l, lookahead, words, words == words1)


@dataclass(frozen=True)
class CoverState:
    index: int
    k: int
    l: int
    prefix: str
    past: frozenset

    def key(self):
        return (self.prefix, self.past)

    def descriptor(self, alphabet) -> str:
        """``[<prefix>|<pasts>]``, the decoded prefix cut to its first 12
        and last 8 characters when it is longer than 24.  Every symbol
        decodes to at least one character, so a prefix of more than 24
        symbols is always cut, and its kept ends are decoded from its first
        12 and last 8 symbols alone."""
        word = self.prefix
        if len(word) > 24:
            prefix = alphabet.decode(word[:12])[:12] + ".." + alphabet.decode(word[-8:])[-8:]
        else:
            prefix = alphabet.decode(word)
            if len(prefix) > 24:
                prefix = prefix[:12] + ".." + prefix[-8:]
        past = ",".join(alphabet.decode(p) for p in sorted(self.past))
        return f"[{prefix}|{past}]"


class CoverGraph:
    """Classes of depth-(k+horizon) words with the induced shift edges."""

    def __init__(self, spec: SubshiftSpec, k: int, l: int, horizon: int):
        if k < 1 or l < 1:
            raise InvalidSpec(f"k = {k} and l = {l} must be >= 1")
        if horizon < k + l:
            raise InvalidSpec(f"horizon {horizon} must be >= k + l = {k + l}")
        self.spec = spec
        self.k = k
        self.l = l
        self.horizon = horizon
        self.depth = k + horizon
        self.lookahead = horizon - k
        self._pasts: dict[str, frozenset] = {}  # tail -> its length-l past
        self._build()

    # -- construction ---------------------------------------------------------

    def _key(self, word: str, lookahead: int | None = None):
        lam = self.lookahead if lookahead is None else lookahead
        tail = word[self.k : self.k + lam]
        past = self._pasts.get(tail)
        if past is None:
            past = self._pasts[tail] = _past_words(self.spec, tail, self.l)
        return (word[: self.k], past)

    def _build(self):
        spec, k, lam = self.spec, self.k, self.lookahead
        # Build one length past the stored words first: the stored words are
        # read off it in sorted order, and the left extensions of stored
        # words that special_match_report counts are already there.
        spec.language(self.depth + 1)
        self.stored = spec.sorted_language(self.depth)
        if not self.stored:
            raise EmptyLanguage("no stored words at this depth")
        keys = {}
        classes: dict = {}
        for w in self.stored:
            key = self._key(w)
            keys[w] = key
            classes.setdefault(key, []).append(w)
        order = sorted(classes, key=lambda key: (key[0], tuple(sorted(key[1]))))
        self._index = {key: i for i, key in enumerate(order)}
        self.states = tuple(
            CoverState(i, self.k, self.l, key[0], frozenset(key[1]))
            for i, key in enumerate(order)
        )
        self.class_words = tuple(tuple(classes[key]) for key in order)
        self.iota_table = {w: self._index[keys[w]] for w in self.stored}
        edges: list[set[int]] = [set() for _ in order]
        for w in self.stored:
            tgt_key = self._key(w[1:])
            if tgt_key not in self._index:
                raise DepthInsufficient(
                    "shifted class not among stored classes; deepen the horizon"
                )
            edges[self.iota_table[w]].add(self._index[tgt_key])
        self.succ = tuple(tuple(sorted(e)) for e in edges)
        # stabilization: same partition of stored words at lookahead-1
        if lam - 1 >= 1:
            coarse: dict = {}
            for w in self.stored:
                coarse.setdefault(self._key(w, lam - 1), set()).add(self.iota_table[w])
            self.past_stabilized = all(len(v) == 1 for v in coarse.values()) and len(
                coarse
            ) == len(order)
        else:
            self.past_stabilized = False
        self.past_sound = isinstance(spec, SFTSpec) and lam >= spec.max_forbidden_len
        self._system = FiniteSymbolicSystem(
            labels=tuple(s.descriptor(spec.alphabet) for s in self.states),
            succ=self.succ,
            depth_meta=(
                f"cover graph k={self.k} l={self.l} horizon={self.horizon} "
                f"lookahead={lam} stabilized={self.past_stabilized}"
            ),
        )

    # -- interface --------------------------------------------------------------

    @property
    def system(self) -> FiniteSymbolicSystem:
        return self._system

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def functional(self) -> bool:
        return self._system.deterministic

    @property
    def surjective(self) -> bool:
        return self._system.surjective_flag

    def iota(self, word: str) -> int:
        """Class of a word of length >= k + lookahead."""
        if len(word) < self.k + self.lookahead:
            raise ValueError("word too short to classify at this resolution")
        if word in self.iota_table:
            return self.iota_table[word]
        key = self._key(word)
        if key not in self._index:
            raise DepthInsufficient("word class not represented among stored words")
        return self._index[key]

    def pi(self, state: int) -> str:
        """Length-k prefix of the class."""
        return self.states[state].prefix

    def to_adjacency_text(self) -> str:
        return self._system.to_adjacency_text()


def build_cover_graph(spec: SubshiftSpec, k: int, l: int, horizon: int | None = None) -> CoverGraph:
    """Build the depth-(k+horizon) cover graph.

    The default horizon is the minimum k + l, i.e. past lookahead exactly
    l.  Deeper lookaheads refine the past partition non-uniformly and can
    split classes of the genuinely two-sided part before the isolated part
    separates, which manufactures spurious merge states; the minimum is
    the canonical choice and the stabilization flag records its status.
    """
    if horizon is None:
        horizon = k + l
    return CoverGraph(spec, k, l, horizon)


def cover_special_states(graph: CoverGraph) -> list[int]:
    """States with >= 2 distinct shift preimages."""
    return graph.system.special_states()


@dataclass(frozen=True)
class SpecialMatchReport:
    special_states: tuple[int, ...]
    branch_count_at_k: int
    counts_match: bool
    witnesses: tuple[str, ...]  # one left special stored word per special state
    all_witnessed: bool


def special_match_report(graph: CoverGraph) -> SpecialMatchReport:
    """Check the special states against the left special words at depth k:
    the counts must agree and every special state must be the class of a
    left special stored word."""
    from .special import left_special_words

    specials = tuple(cover_special_states(graph))
    ls_k = len(left_special_words(graph.spec, graph.k))
    witnesses = []
    all_witnessed = True
    for s in specials:
        found = ""
        for w in graph.class_words[s]:
            if graph.spec.left_extension_count(w) >= 2:
                found = w
                break
        witnesses.append(found)
        if not found:
            all_witnessed = False
    return SpecialMatchReport(
        special_states=specials,
        branch_count_at_k=ls_k,
        counts_match=len(specials) == ls_k,
        witnesses=tuple(witnesses),
        all_witnessed=all_witnessed,
    )


def isolated_orbit_window(graph: CoverGraph) -> frozenset:
    """Finite trace of the discrete orbits of the merge states: classes
    holding exactly one stored word, connected to a merge state through
    such classes.  This is the exception set the downstream certificates
    carry for orbit-related clauses."""
    singles = {i for i, ws in enumerate(graph.class_words) if len(ws) == 1}
    sys = graph.system
    window: set[int] = set()
    frontier = list(sys.special_states())
    while frontier:
        s = frontier.pop()
        for nxt in set(sys.pred[s]) | set(sys.succ[s]):
            if nxt in singles and nxt not in window:
                window.add(nxt)
                frontier.append(nxt)
    return frozenset(window)


def check_intertwining(graph: CoverGraph) -> bool:
    """For every stored word w the class of the shifted word is among the
    successors of the class of w; with a single-valued shift this is the
    exact equality of states."""
    for w in graph.stored:
        src = graph.iota_table[w]
        tgt = graph.iota(w[1:])
        if tgt not in graph.succ[src]:
            return False
        if len(graph.succ[src]) == 1 and graph.succ[src][0] != tgt:
            return False
    return True


def isolated_state_check(
    spec: SubshiftSpec,
    graph: CoverGraph,
    state: int,
    refinements,
) -> bool:
    """Finite witness of isolation across (k, l[, horizon]) refinements.

    One-sided past data at finite depth cannot exclude the minimal points
    that share a prefix window, so the raw base set of *every* state keeps
    splitting as the resolution grows; what persists for an isolated point
    is its marked continuation: inside the base set there is exactly one
    refined class that still has two shift preimages, and that class pins
    exactly one class-determining word.  For states of the perfect part
    this fails at once (no unique marked continuation, the base set just
    splits)."""
    base_key = graph.states[state].key()
    for ref in refinements:
        if len(ref) == 2:
            fine = build_cover_graph(spec, ref[0], ref[1])
        else:
            fine = build_cover_graph(spec, ref[0], ref[1], ref[2])
        if fine.depth < graph.k + graph.lookahead:
            raise InvalidSpec("refinement too shallow to classify at the base level")
        specials = set(fine.system.special_states())
        inside = {
            fine.iota_table[w] for w in fine.stored if graph._key(w) == base_key
        }
        marked = inside & specials
        if len(marked) != 1:
            return False
        core_len = fine.k + fine.lookahead
        cores = {w[:core_len] for w in fine.class_words[next(iter(marked))]}
        if len(cores) != 1:
            return False
    return True
