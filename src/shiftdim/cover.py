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

The build walks the rows once.  A row that does not start with the
current length-``k`` prefix starts a prefix rank and a stored word; only
a row that shares the prefix is compared on its other ``depth - k``
symbols, against the current stored word's, which are sliced once and
only then.  Many stored words share a tail, so the past of each distinct
tail, at the lookahead and at one less for the stabilization flag, is
found and numbered once per build.  A state is numbered by an integer
code, ``rank · |pasts| +`` the place of its past among the pasts sorted,
so the codes sort as the states do, by prefix and then by sorted past,
and no ``(rank, past)`` pair is hashed per stored word.  A rank's stored
words are neighbours, so the stabilization flag tallies the coarse keys
(rank, past at one less lookahead) one rank at a time.

The state tables are flat: per state the graph keeps its code, its class
size and one tuple of its successors, and its system one tuple of its
predecessors, and nothing else.  Nearly every state has one successor
and one predecessor, as only the few left special words branch, so each
table keeps a state's first one in a flat list and makes a set or a list
only for a state with a second.  A tuple of integers is untracked by the
first garbage collection that meets it, so the graph leaves no per-state
work to later collections.  The spelled-out keys ``(prefix rank,
past)`` and each class's rows are derived from the tables, once, when
they are first read.

The top reaches one symbol past the stored words, so the shift
``u[1:depth+1]`` of every top row ``u`` is a stored word; the index of
that word for every row is the *shift map*.  A row starting at corpus
position ``s`` has its shift at ``s + 1``, and almost always a row
starts there too, so the entry is read off that row's stored word, as
the suffix-array function Ψ(i) = ISA[SA[i] + 1] is read off positions.
Only where no row starts at ``s + 1`` (a text's last window, a repeated
occurrence, or a top whose texts are one window each) is the shift
found by a forward walk over the stored words.  Everything about the
shift is read off the map, so no shifted word is classified by a search
of the top:

- the edges: a stored word's state to the state of its shift's word;
- :func:`special_match_report`: a stored word's one-symbol left
  extensions are the letter blocks whose shifts land on it, so a special
  state is witnessed by a stored word that two blocks reach, and |LS(k)|
  counts the length-``k`` prefixes that two blocks reach;
- :func:`check_intertwining`: every entry of the map must name the
  row's shift, and then the edge it implies must be in the graph.  An
  entry whose word's first row starts at ``s + 1`` is those very
  symbols of the corpus, so it holds without a comparison; any other is
  compared once against the top.

The resulting directed graph is the finite approximation consumed by the
tower machinery.  The shift on classes is single valued exactly where the
resolution suffices; ``functional`` reports that, and certificates carry
the stabilization and soundness flags rather than silently assuming them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .errors import EmptyLanguage, InvalidSpec
from .systems import FiniteSymbolicSystem
from .words import SFTSpec, SubshiftSpec, Top


class PastSet(NamedTuple):
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


def _labels(top: Top, rank_rows, codes, width: int, by_past, k: int, alphabet) -> _View:
    """The descriptor of each state, coded ``rank · width +`` the place of
    its past in ``by_past``, as a view.  It holds the top and the codes,
    not the graph, so the graph and its system form no reference cycle
    and are freed as soon as they are dropped."""

    def label(s: int) -> str:
        rank, place = divmod(codes[s], width)
        past_text = _past_text(by_past[place], alphabet)
        return _descriptor(top.prefix(rank_rows[rank], k), k, past_text, alphabet)

    return _View(len(codes), label)


class CoverGraph:
    """Classes of depth-(k+horizon) words with the induced shift edges.

    The graph holds the presentation's top and integers into it: the row
    and the state of each stored word, the first row of each prefix rank,
    the shift map, and per state its code ``rank · width +`` the place of
    its past in the sorted pasts, its class size and its successor tuple;
    its system holds each state's predecessor tuple.  ``_keys`` (each
    state's ``(rank, past)``) and ``_class_rows`` (the first rows of each
    state's stored words) are derived from these when first read.
    ``stored`` (the length-``depth`` factors in sorted order) and
    ``class_words`` (the stored words of each state) are views that slice
    the top's corpus when read; ``pi`` does too."""

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
        # One pass over neighbouring rows: a row starts a prefix rank when
        # it does not start with the current prefix, and a stored word
        # when it does not, or when its other depth - k symbols differ from
        # the current word's, sliced once per stored word and only when
        # the next row shares its prefix.
        rows: list[int] = []  # the first row of each stored word
        ranks: list[int] = []  # the prefix rank of each stored word
        fines: list[int] = []  # the number of each stored word's past
        rank_rows = self._rank_rows = []  # the first row of each prefix rank
        numbers: dict[frozenset, int] = {}  # past -> its number, in the order found
        rough_numbers: dict = {}  # past at lookahead-1 (None at lookahead 1) -> its number
        tails: dict[str, tuple[int, int]] = {}  # tail -> the numbers of its two pasts
        # Stabilization: the same partition of stored words at lookahead-1,
        # so no coarse key (rank, past at lookahead-1) meets two fine keys,
        # which are in bijection with the states, and there are as many.
        coarse: dict[int, int] = {}  # this rank's coarse pasts -> the fine past first met
        coarse_keys = 0
        split = False
        own: list[int] = []  # the stored word of each row
        prefix = rest = None
        start = 0  # the corpus position of the current stored word
        for row, s in enumerate(top.starts):
            if prefix is not None and corpus.startswith(prefix, s):
                if rest is None:
                    rest = corpus[start + k : start + depth]
                if corpus.startswith(rest, s + k):
                    own.append(len(rows) - 1)
                    continue
            else:
                prefix = corpus[s : s + k]
                rank = len(rank_rows)
                rank_rows.append(row)
                coarse_keys += len(coarse)
                coarse.clear()
            start, rest = s, None
            own.append(len(rows))
            rows.append(row)
            tail = corpus[s + k : s + k + lam]
            both = tails.get(tail)
            if both is None:
                fine = numbers.setdefault(self._past(tail), len(numbers))
                rough = self._past(tail[:-1]) if lam > 1 else None
                both = tails[tail] = (fine, rough_numbers.setdefault(rough, len(rough_numbers)))
            split |= coarse.setdefault(both[1], both[0]) != both[0]
            ranks.append(rank)
            fines.append(both[0])
        if not rows:
            raise EmptyLanguage("no stored words at this depth")
        self._rows = rows
        shift = self._shift = self._shift_map(own)
        # Rank order is prefix order, so the codes sort as the spelled keys
        # do: by prefix, ties broken by the sorted past.
        by_past = self._by_past = sorted(numbers, key=sorted)
        place = {past: i for i, past in enumerate(by_past)}
        renumber = [place[past] for past in numbers]  # past number -> its place
        width = self._width = len(by_past)
        codes = [rank * width + renumber[fine] for rank, fine in zip(ranks, fines)]
        del ranks, fines  # each table is freed once read, which lowers the build's peak
        states = self._codes = sorted(set(codes))
        index = {code: i for i, code in enumerate(states)}
        classes = self._classes = [index[code] for code in codes]
        del codes, index
        # Nearly every state has one successor, so a state's first target
        # is kept in a flat list and only a state with a second gets a set.
        sizes = self._sizes = [0] * len(states)  # the stored words of each state
        first = [-1] * len(states)
        more: dict[int, set[int]] = {}  # state -> its targets, once it has two
        for row, state in zip(rows, classes):
            sizes[state] += 1
            target = classes[shift[row]]
            was = first[state]
            if was < 0:
                first[state] = target
            elif was != target:
                more.setdefault(state, {was}).add(target)
        succ = [(target,) for target in first]
        for state, targets in more.items():
            succ[state] = tuple(sorted(targets))
        self.succ = tuple(succ)
        coarse_keys += len(coarse)
        self.past_stabilized = lam > 1 and not split and coarse_keys == len(states)
        self.past_sound = isinstance(spec, SFTSpec) and lam >= spec.max_forbidden_len
        self._system = FiniteSymbolicSystem(
            labels=_labels(top, rank_rows, states, width, by_past, k, spec.alphabet),
            succ=self.succ,
            depth_meta=(
                f"cover graph k={self.k} l={self.l} horizon={self.horizon} "
                f"lookahead={lam} stabilized={self.past_stabilized}"
            ),
        )

    def _shift_map(self, own: list[int]) -> list[int]:
        """The stored word ``top[row][1:depth+1]`` of every row of the top,
        by its index, written over ``own``, the stored word of each row.
        A row starting at corpus position ``s`` has its shift at ``s + 1``,
        so when a row starts there, that row's stored word is the shift:
        a table of the stored word at each position, 4 bytes a position and
        dropped on return, reads it off.  Otherwise (a text's last window,
        a repeated occurrence, or a top whose texts are one window each)
        the shift is sliced off the corpus and found among the stored
        words by a pointer that walks forward from the last entry: a
        letter's rows are sorted by their shifts, so its entries never
        decrease.  The pointer runs off the end only if a shift is not a
        stored word, which a factorial top rules out.  The shift is cut to
        ``depth`` symbols because the top may be longer than
        ``depth + 1``, when a deeper graph or a longer language built it
        first."""
        top, depth, rows = self._top, self.depth, self._rows
        corpus, starts = top.corpus, top.starts
        at = array("i", (-1,)) * (len(corpus) + 1)  # -1 where no row starts
        for s, stored in zip(starts, own):
            at[s] = stored
        # the first row of each first letter's block, then the end
        letter_rows = self._letter_rows = (
            *(top.rank(c) for c in self.spec.alphabet.chars),
            len(top),
        )
        shift = own  # every row's own stored word is in the table now
        for start, end in zip(letter_rows, letter_rows[1:]):
            stored = 0
            for row in range(start, end):
                s = starts[row]
                found = at[s + 1]
                if found >= 0:
                    stored = found
                else:
                    shifted = corpus[s + 1 : s + 1 + depth]
                    while not corpus.startswith(shifted, starts[rows[stored]]):
                        stored += 1
                shift[row] = stored
        return shift

    # -- derived views ----------------------------------------------------------

    def _key(self, state: int) -> tuple[int, frozenset]:
        """``(prefix rank, past)`` of ``state``, spelled out from its code."""
        rank, place = divmod(self._codes[state], self._width)
        return rank, self._by_past[place]

    @cached_property
    def _keys(self) -> tuple[tuple[int, frozenset], ...]:
        """The key of every state, built on first read."""
        return tuple(map(self._key, range(len(self._codes))))

    @cached_property
    def _class_rows(self) -> tuple[tuple[int, ...], ...]:
        """The first rows of each state's stored words, built on first
        read."""
        class_rows: list[list[int]] = [[] for _ in self._sizes]
        for row, state in zip(self._rows, self._classes):
            class_rows[state].append(row)
        return tuple(map(tuple, class_rows))

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
        return len(self.succ)

    @property
    def functional(self) -> bool:
        return self._system.deterministic

    @property
    def surjective(self) -> bool:
        return self._system.surjective_flag

    def pi(self, state: int) -> str:
        """Length-k prefix of the class."""
        return self._top.prefix(self._rank_rows[self._key(state)[0]], self.k)

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


class SpecialMatchReport(NamedTuple):
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
    shift, classes, codes, width = graph._shift, graph._classes, graph._codes, graph._width
    letters = [0] * len(classes)  # left extensions of each stored word
    rank_letters = [0] * len(graph._rank_rows)  # of each length-k prefix
    blocks = graph._letter_rows
    for start, end in zip(blocks, blocks[1:]):
        stored = rank = -1
        for target in shift[start:end]:
            if target != stored:
                stored = target
                letters[stored] += 1
                prefix_rank = codes[classes[stored]] // width
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
    singles = {s for s, size in enumerate(graph._sizes) if size == 1}
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


def check_intertwining(graph: CoverGraph) -> str:
    """For every row of the top, the stored word its shift-map entry names
    is the row's shift, and the class of that word is among the successors
    of the class of the row's own stored word; with a single-valued shift
    this is the exact equality of states.  A row starting at ``s`` has its
    shift at ``s + 1``: when the named word's first row starts there, the
    two are the same symbols of the corpus, so the entry holds without a
    comparison; otherwise the shift is compared against the corpus at the
    named word's start.  Returns the first row that breaks either, as a
    witness, or ``""`` when every row holds."""
    top, depth, rows, shift = graph._top, graph.depth, graph._rows, graph._shift
    corpus, starts = top.corpus, top.starts
    classes, succ = graph._classes, graph.succ
    stored_starts = [starts[row] for row in rows]
    ends = (*rows[1:], len(top))
    for own, (first, end) in enumerate(zip(rows, ends)):
        source = classes[own]
        successors = succ[source]
        for row in range(first, end):
            target = shift[row]
            shifted, named = starts[row] + 1, stored_starts[target]
            if named != shifted and not corpus.startswith(corpus[shifted : shifted + depth], named):
                return f"row {row}: the shift map names stored word {target}, not the row's shift"
            if classes[target] not in successors:
                return f"row {row}: no edge from state {source} to state {classes[target]}"
    return ""


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
    base_key = graph._key(state)
    for ref in refinements:
        fine = build_cover_graph(graph.spec, *ref)
        if fine.depth < graph.k + graph.lookahead:
            raise InvalidSpec("refinement too shallow to classify at the base level")
        specials = set(fine.system.special_states())
        inside: set[int] = set()
        for row, s in zip(fine._rows, fine._classes):
            if s not in inside and graph._rank_key(fine._top[row]) == base_key:
                inside.add(s)
        marked = inside & specials
        if len(marked) != 1:
            return False
        core_len = fine.k + fine.lookahead
        cores = {w[:core_len] for w in fine.class_words[next(iter(marked))]}
        if len(cores) != 1:
            return False
    return True
