"""Finite-depth cover graphs for one-sided subshifts.

States are equivalence classes of depth-``k+horizon`` language words under
(same length-``k`` prefix, same length-``l`` past of the shifted tail), the
finite-resolution version of the (prefix, past)-equivalence that underlies
the zero-dimensional extension of a subshift.  The past of a tail is
computed at lookahead ``horizon - k``; one extra tail symbol is always
available so the one-step shift of every stored word can be classified at
the same lookahead, which makes the edge set well defined.

The stored words are never copied.  Each is the first ``depth`` symbols
of a row of the presentation's top, its longest factors as sorted starts
in one corpus string (:class:`~shiftdim.words.Top`), and the graph names
it by that row number; a class is named by the rank of its prefix among
the distinct length-``k`` prefixes of the top and its past set.  The
build, the shift map and the intertwining check read the rows in place,
comparing against the corpus at a row's start, which is small enough to
stay in cache.  Strings are sliced off the corpus only when the
read-only views ``stored`` and ``class_words`` are read, and a state's
label is built only when the system's ``labels`` view is read.
Many stored words share a tail, so the past of each distinct tail, at
the lookahead and at one less for the stabilization flag, is found once
per build.

The top reaches one symbol past the stored words, so the shift
``u[1:depth+1]`` of every top row ``u`` is a stored word.  Rows that
share a first letter are sorted by the rest, so one forward walk per
first letter gives every row the index of its shifted stored word: the
*shift map*.  Everything about the shift is read off it, so no shifted
word is classified by a search of the top:

- the edges: a stored word's state to the state of its shift's word;
- :func:`special_match_report`: a stored word's one-symbol left
  extensions are the letter blocks whose shifts land on it, so a special
  state is witnessed by a stored word that two blocks reach, and |LS(k)|
  counts the length-``k`` prefixes that two blocks reach;
- :func:`check_intertwining`: every entry of the map is compared once
  against the top (the named stored word must be the row's shift), and
  then the edge it implies must be in the graph.

The resulting directed graph is the finite approximation consumed by the
tower machinery.  The shift on classes is single valued exactly where the
resolution suffices; ``functional`` reports that, and certificates carry
the stabilization and soundness flags rather than silently assuming them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import EmptyLanguage, InvalidSpec
from .systems import FiniteSymbolicSystem
from .words import SFTSpec, SubshiftSpec, Top


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


def _past_text(past: frozenset, alphabet) -> str:
    """The sorted past words, decoded and joined by ``,``."""
    return ",".join(alphabet.decode(p) for p in sorted(past))


def _descriptor(word: str, k: int, past_text: str, alphabet) -> str:
    """``[<prefix>|<pasts>]`` for the first ``k`` symbols of ``word``, the
    decoded prefix cut to its first 12 and last 8 characters when it is
    longer than 24.  Every symbol decodes to at least one character, so a
    prefix of more than 24 symbols is always cut, and its kept ends are
    decoded from its first 12 and last 8 symbols alone."""
    if k > 24:
        prefix = alphabet.decode(word[:12])[:12] + ".." + alphabet.decode(word[k - 8 : k])[-8:]
    else:
        prefix = alphabet.decode(word[:k])
        if len(prefix) > 24:
            prefix = prefix[:12] + ".." + prefix[-8:]
    return f"[{prefix}|{past_text}]"


class _View(Sequence):
    """Read-only sequence of ``n`` items, each made by ``item(i)`` only
    when it is read."""

    __slots__ = ("_n", "_item")

    def __init__(self, n: int, item):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        if not -self._n <= i < self._n:
            raise IndexError("view index out of range")
        return self._item(i % self._n)


def _words(top: Top, rows, n: int) -> _View:
    """The first ``n`` symbols of the ``rows`` of ``top``, as a view."""
    return _View(len(rows), lambda j: top.prefix(rows[j], n))


def _labels(top: Top, rank_rows, keys, k: int, alphabet) -> _View:
    """The descriptor of each state, keyed ``(prefix rank, past)``, as a
    view.  It holds the top and the keys, not the graph, so the graph and
    its system form no reference cycle and are freed as soon as they are
    dropped."""

    def label(s: int) -> str:
        rank, past = keys[s]
        return _descriptor(top.prefix(rank_rows[rank], k), k, _past_text(past, alphabet), alphabet)

    return _View(len(keys), label)


class CoverGraph:
    """Classes of depth-(k+horizon) words with the induced shift edges.

    The graph holds the presentation's top and integers into it: the row
    and the state of each stored word, the first row of each prefix rank,
    per state its rank and past set, and the shift map.  ``stored`` (the
    length-``depth`` factors in sorted order) and ``class_words`` (the
    stored words of each state) are views that slice the top's corpus
    when read; ``pi`` does too."""

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

    def _past(self, tail: str) -> frozenset:
        past = self._pasts.get(tail)
        if past is None:
            past = self._pasts[tail] = _past_words(self.spec, tail, self.l)
        return past

    def _rank_key(self, word: str):
        """``(prefix rank, past)`` of ``word``, or None when its
        length-``k`` prefix is not a factor.  The rank is read off the
        first top row that starts with the prefix."""
        k = self.k
        row = self._top.find(word[:k])
        if row is None:
            return None
        rank = bisect_left(self._rank_rows, row)
        return rank, self._past(word[k : k + self.lookahead])

    def _build(self):
        spec, k, depth, lam = self.spec, self.k, self.depth, self.lookahead
        # One symbol past the stored words, so every row's shift is a
        # stored word.
        top = self._top = spec.top(depth + 1)
        corpus = top.corpus
        # One pass over neighbouring rows: a row starts a stored word when
        # it does not start with the current one, and a prefix rank when
        # it does not start with the current prefix.
        rows: list[int] = []  # the row of each stored word
        keys = []  # the (rank, past) of each stored word
        rank_rows = self._rank_rows = []  # the first row of each prefix rank
        # Stabilization: the same partition of stored words at lookahead-1,
        # so no coarse key (rank, past at lookahead-1) meets two fine keys,
        # which are in bijection with the states, and there are as many.
        coarse: dict = {}  # coarse key -> the fine key of its first stored word
        split = False
        pasts: dict[str, tuple] = {}  # tail -> its past and its past at lookahead-1
        word = prefix = None
        for row, s in enumerate(top.starts):
            if word is not None and corpus.startswith(word, s):
                continue
            word = corpus[s : s + depth]
            if prefix is None or not corpus.startswith(prefix, s):
                prefix = corpus[s : s + k]
                rank_rows.append(row)
            tail = corpus[s + k : s + k + lam]
            both = pasts.get(tail)
            if both is None:
                both = pasts[tail] = (self._past(tail), self._past(tail[:-1]) if lam > 1 else None)
            rank = len(rank_rows) - 1
            key = (rank, both[0])
            split |= coarse.setdefault((rank, both[1]), key) != key
            rows.append(row)
            keys.append(key)
        if not rows:
            raise EmptyLanguage("no stored words at this depth")
        self._rows = rows
        # Rank order is prefix order, so this is the order of the spelled
        # keys: by prefix, ties broken by the sorted past.
        sorted_pasts = {past: tuple(sorted(past)) for past in {past for _, past in keys}}
        order = sorted(set(keys), key=lambda key: (key[0], sorted_pasts[key[1]]))
        self._keys = tuple(order)
        index = {key: i for i, key in enumerate(order)}
        classes = self._classes = [index[key] for key in keys]
        shift = self._shift = self._shift_map()
        class_rows: list[list[int]] = [[] for _ in order]
        edges: list[set[int]] = [set() for _ in order]
        for row, state in zip(rows, classes):
            class_rows[state].append(row)
            edges[state].add(classes[shift[row]])
        self._class_rows = tuple(map(tuple, class_rows))
        self.succ = tuple(tuple(sorted(e)) for e in edges)
        self.past_stabilized = lam > 1 and not split and len(coarse) == len(order)
        self.past_sound = isinstance(spec, SFTSpec) and lam >= spec.max_forbidden_len
        self._system = FiniteSymbolicSystem(
            labels=_labels(top, rank_rows, self._keys, k, spec.alphabet),
            succ=self.succ,
            depth_meta=(
                f"cover graph k={self.k} l={self.l} horizon={self.horizon} "
                f"lookahead={lam} stabilized={self.past_stabilized}"
            ),
        )

    def _shift_map(self) -> list[int]:
        """The stored word ``top[row][1:depth+1]`` of every row of the top,
        by its index, read in place.  A letter's rows are sorted by their
        shifts, so one pointer walks the stored words forward once per
        first letter; it runs off the end only if a shift is not a stored
        word, which a factorial top rules out.  The shift is cut to ``depth`` symbols
        because the top may be longer than ``depth + 1``, when a deeper
        graph or a longer language built it first."""
        top, depth = self._top, self.depth
        corpus, starts = top.corpus, top.starts
        stored_starts = [starts[row] for row in self._rows]
        # the first row of each first letter's block, then the end
        letter_rows = self._letter_rows = (
            *(top.rank(c) for c in self.spec.alphabet.chars),
            len(top),
        )
        shift: list[int] = []
        for start, end in zip(letter_rows, letter_rows[1:]):
            stored = 0
            for s in starts[start:end]:
                shifted = corpus[s + 1 : s + 1 + depth]
                while not corpus.startswith(shifted, stored_starts[stored]):
                    stored += 1
                shift.append(stored)
        return shift

    # -- interface --------------------------------------------------------------

    @property
    def stored(self) -> _View:
        """The length-``depth`` factors, sorted."""
        return _words(self._top, self._rows, self.depth)

    @property
    def class_words(self) -> _View:
        """The stored words of each state, sorted."""
        top, depth, class_rows = self._top, self.depth, self._class_rows
        return _View(len(class_rows), lambda s: _words(top, class_rows[s], depth))

    @property
    def system(self) -> FiniteSymbolicSystem:
        return self._system

    @property
    def num_states(self) -> int:
        return len(self._keys)

    @property
    def functional(self) -> bool:
        return self._system.deterministic

    @property
    def surjective(self) -> bool:
        return self._system.surjective_flag

    def pi(self, state: int) -> str:
        """Length-k prefix of the class."""
        return self._top.prefix(self._rank_rows[self._keys[state][0]], self.k)

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
    left special stored word.

    Both are read off the shift map.  The rows whose shift lands on a
    stored word ``w`` are the one-symbol left extensions of ``w``, so the
    letters of ``w`` are the letter blocks that reach it; a length-``k``
    word is left special when at least two letter blocks reach its prefix
    rank.  Within a block the shift map is nondecreasing, so each block
    reaches a stored word or a rank in one run of neighbouring rows."""
    shift, classes, keys = graph._shift, graph._classes, graph._keys
    letters = [0] * len(classes)  # left extensions of each stored word
    rank_letters = [0] * len(graph._rank_rows)  # of each length-k prefix
    blocks = graph._letter_rows
    for start, end in zip(blocks, blocks[1:]):
        stored = rank = -1
        for target in shift[start:end]:
            if target != stored:
                stored = target
                letters[stored] += 1
                prefix_rank = keys[classes[stored]][0]
                if prefix_rank != rank:
                    rank = prefix_rank
                    rank_letters[rank] += 1
    ls_k = sum(1 for count in rank_letters if count >= 2)
    specials = tuple(graph.system.special_states())
    first: dict[int, int] = {}  # state -> its first left special stored word
    for stored, count in enumerate(letters):
        if count >= 2:
            first.setdefault(classes[stored], stored)
    witnesses = tuple(graph.stored[first[s]] if s in first else "" for s in specials)
    return SpecialMatchReport(
        special_states=specials,
        branch_count_at_k=ls_k,
        counts_match=len(specials) == ls_k,
        witnesses=witnesses,
        all_witnessed=all(witnesses),
    )


def isolated_orbit_window(graph: CoverGraph) -> frozenset:
    """Finite trace of the discrete orbits of the merge states: classes
    holding exactly one stored word, connected to a merge state through
    such classes.  This is the exception set the downstream certificates
    carry for orbit-related clauses."""
    singles = {i for i, rows in enumerate(graph._class_rows) if len(rows) == 1}
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
    """For every row of the top, the stored word its shift-map entry names
    is the row's shift (one comparison against the top's corpus, in place),
    and the class of that word is among the successors of the class of the
    row's own stored word; with a single-valued shift this is the exact
    equality of states."""
    top, depth, rows, shift = graph._top, graph.depth, graph._rows, graph._shift
    corpus, starts = top.corpus, top.starts
    classes, succ = graph._classes, graph.succ
    ends = (*rows[1:], len(top))
    for own, (first, end) in enumerate(zip(rows, ends)):
        successors = succ[classes[own]]
        for row in range(first, end):
            target = shift[row]
            s = starts[row]
            if not corpus.startswith(corpus[s + 1 : s + 1 + depth], starts[rows[target]]):
                return False
            if classes[target] not in successors:
                return False
    return True


def isolated_state_check(graph: CoverGraph, state: int, refinements) -> bool:
    """Finite witness of isolation across (k, l[, horizon]) refinements.

    One-sided past data at finite depth cannot exclude the minimal points
    that share a prefix window, so the raw base set of *every* state keeps
    splitting as the resolution grows; what persists for an isolated point
    is its marked continuation: inside the base set there is exactly one
    refined class that still has two shift preimages, and that class pins
    exactly one class-determining word.  For states of the perfect part
    this fails at once (no unique marked continuation, the base set just
    splits)."""
    base_key = graph._keys[state]
    for ref in refinements:
        fine = build_cover_graph(graph.spec, *ref)
        if fine.depth < graph.k + graph.lookahead:
            raise InvalidSpec("refinement too shallow to classify at the base level")
        specials = set(fine.system.special_states())
        inside = {
            s
            for s, rows in enumerate(fine._class_rows)
            if any(graph._rank_key(fine._top[row]) == base_key for row in rows)
        }
        marked = inside & specials
        if len(marked) != 1:
            return False
        core_len = fine.k + fine.lookahead
        cores = {w[:core_len] for w in fine.class_words[next(iter(marked))]}
        if len(cores) != 1:
            return False
    return True
