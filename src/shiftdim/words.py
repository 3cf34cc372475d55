"""Subshift presentations, language enumeration and complexity.

A subshift is presented finitely (full shift, forbidden words, or a
primitive substitution) and acts as an exact language oracle: for every
length ``n`` the set of length-``n`` factors is computed exactly, never
sampled.  Words are stored internally as ``str`` whose characters encode
symbol *indices* (``chr(48 + i)`` for the ``i``-th alphabet symbol), so the
built-in string order coincides with lexicographic order under the declared
symbol order and slicing/hashing stay cheap at depth in the thousands.

Every factor of a subshift extends to the right, so the length-``n``
factors are exactly the length-``n`` prefixes of the length-``m`` factors
for any ``m > n``.  A presentation keeps the longest language it has built
as one :class:`Top` and builds from the presentation itself only when asked
for a longer length.  The top copies no factor: the presentation hands
over texts whose length-``n`` windows are exactly the factors, the texts
are joined into one corpus string, and each factor is the start of its
first occurrence there.  Each text's leading and trailing runs of windows
that occur earlier are dropped first (see :meth:`Top.of_texts`), and the
rest are sorted by growing prefix groups, not hashed whole (see
:func:`_sorted_starts`).  A shorter length is the distinct length-``n``
prefixes of the top, which come out already sorted, and p(n) for every
``n`` up to its length is read off one histogram of the
common-prefix lengths of neighbouring rows, each the ``bit_length`` of the
XOR of two rows read as integers (see :meth:`SubshiftSpec.factor_counts`).

Substitution languages are characterised exactly from letter blocks and
length-2 factors (see :class:`SubstitutionSpec`).  Forbidden-word languages
are read off the de Bruijn recoding graph; their complexity counts come
from exact integer path counting on that graph, which agrees with direct
enumeration wherever enumeration is feasible (the tests check both routes
against each other).
"""

from __future__ import annotations

import bisect
import csv
import itertools
import os
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .errors import EmptyLanguage, InvalidSpec
from .records import Frozen

# Internal word encoding: character for symbol index i.
_BASE = 48
MAX_ALPHABET = 64
# LanguageTable.write_csv writes a words file for a length with at most
# this many factors.
WORDS_CAP = 2000
# The most symbols p(n)·n a full shift's or an SFT's length-n language
# may be listed with; a longer listing is refused before it starts.
SYMBOL_BUDGET = 10**7


def _chr(i: int) -> str:
    return chr(_BASE + i)


def _check_symbol_budget(n: int, count: int) -> None:
    """Refuse to list ``count`` words of length ``n`` above the budget."""
    symbols = count * n
    if symbols > SYMBOL_BUDGET:
        raise InvalidSpec(
            f"the length-{n} language is p({n})·{n} = {symbols} symbols, "
            f"above the budget of {SYMBOL_BUDGET}"
        )


# Internal characters of every symbol index, in order.
_CHARS = "".join(_chr(i) for i in range(MAX_ALPHABET))


class Alphabet(Frozen):
    """Ordered finite set of distinct symbol identifiers; equal alphabets
    have the same symbols in the same order."""

    __slots__ = ("symbols", "_decode_table", "_sep_len")
    _fields = ("symbols",)
    symbols: tuple[str, ...]

    def __init__(self, symbols: tuple[str, ...]):
        if not symbols:
            raise InvalidSpec("alphabet must be nonempty")
        if len(set(symbols)) != len(symbols):
            raise InvalidSpec("alphabet has duplicate symbols")
        if len(symbols) > MAX_ALPHABET:
            raise InvalidSpec(f"alphabet larger than {MAX_ALPHABET} symbols")
        if not all(symbols):
            raise InvalidSpec("alphabet has an empty symbol")
        # decode() translates each internal character to its symbol plus the
        # separator, then cuts the one trailing separator.
        sep = "" if all(len(s) == 1 for s in symbols) else " "
        table = str.maketrans({c: s + sep for c, s in zip(_CHARS, symbols)})
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "_decode_table", table)
        object.__setattr__(self, "_sep_len", len(sep))

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def chars(self) -> str:
        """All internal characters, in declared order."""
        return _CHARS[: len(self.symbols)]

    def encode(self, word) -> str:
        """Encode an iterable of symbols (a plain string is treated as a
        sequence of one-character symbols) into the internal representation."""
        try:
            return "".join(_chr(self.symbols.index(s)) for s in word)
        except ValueError:
            raise InvalidSpec(f"word {word!r} uses symbols outside the alphabet")

    def decode(self, word: str) -> str:
        """Render an internal word with the declared symbol names, joined
        by single spaces unless every symbol is one character."""
        text = word.translate(self._decode_table)
        return text[: len(text) - self._sep_len]


def common_prefix_length(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``, by halving
    the unchecked span (each symbol is compared about twice)."""
    lo, hi = 0, min(len(a), len(b))  # a[:lo] == b[:lo]; no longer than hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


# Joins the texts of a corpus; never an internal symbol character.
_SEP = "\n"
# Symbols of the first key the window sort groups by.
_KEY = 48
# Symbols of whole windows the window sort slices for one group at most.
_BUDGET = 1 << 22
# The longest rows factor_counts reads as integers, each in time linear in
# its length; from about 2500 symbols halving is faster.
XOR_ROW_LIMIT = 2048


def _sorted_starts(corpus: str, starts, n: int, shared: int, out: list[int]) -> None:
    """Append to ``out`` the first of ``starts`` for each distinct
    length-``n`` window of ``corpus`` at them, in window order.  The
    windows agree on their first ``shared`` symbols, and ``starts``
    ascend, so the first start of a window is its first occurrence.

    The starts are grouped by their next symbols, first ``_KEY`` of them
    and then twice as many as the group already shares, and the groups
    are taken in key order.  A group is split again while its windows
    hold more than ``_BUDGET`` symbols; only then are its windows sliced
    whole and sorted, so no more than a group's windows are ever held."""
    if shared == 0 or (shared < n and len(starts) * (n - shared) > _BUDGET):
        end = min(max(2 * shared, _KEY), n)
        groups: dict[str, list[int]] = {}
        for s in starts:
            groups.setdefault(corpus[s + shared : s + end], []).append(s)
        for key in sorted(groups):
            _sorted_starts(corpus, groups[key], n, end, out)
    elif shared == n or len(starts) == 1:
        out.append(starts[0])
    else:
        # the sort is stable, so equal windows stay in start order
        windows = [corpus[s + shared : s + n] for s in starts]
        prev = None
        for i in sorted(range(len(windows)), key=windows.__getitem__):
            if windows[i] != prev:
                out.append(starts[i])
                prev = windows[i]


def _occurs_before(corpus: str, start: int, length: int) -> bool:
    """Whether the ``length`` symbols of ``corpus`` at ``start`` also
    occur starting earlier: one scan of the corpus before them."""
    return corpus.find(corpus[start : start + length], 0, start + length - 1) >= 0


def _repeated_run(corpus: str, first: int, last: int, n: int, least: int, from_end: bool) -> int:
    """How many of the length-``n`` windows of ``corpus`` starting at
    ``first`` to ``last``, counted from the first one (from the last one
    with ``from_end``), each occur starting earlier in ``corpus``.

    The run is found block by block.  A block of ``r`` neighbouring
    windows occurs earlier when the ``n + r - 1`` symbols they span do,
    and then so does each of its windows.  A block's length is galloped
    from ``least`` and then halved to the longest that occurs earlier,
    and the next block starts after it.  The run ends at the first block
    shorter than ``least`` windows, which is not looked for."""
    run = 0

    def occurs(r: int) -> bool:  # the next r windows of the run occur earlier
        start = last - run - r + 1 if from_end else first + run
        return _occurs_before(corpus, start, n + r - 1)

    while True:
        windows = last - first + 1 - run
        if windows < least or not occurs(least):
            return run
        lo, hi = least, 2 * least  # lo windows occur earlier; hi do not, or exceed windows
        while hi <= windows and occurs(hi):
            lo, hi = hi, 2 * hi
        hi = min(hi, windows + 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if occurs(mid):
                lo = mid
            else:
                hi = mid
        run += lo


class Top(Sequence):
    """The sorted distinct length-``n`` factors, read-only.  Each factor
    is the start of its first occurrence in ``corpus``, the texts it was
    cut from joined by a separator; ``starts`` lists them in factor order.
    A row is sliced off the corpus only when it is read."""

    __slots__ = ("corpus", "starts", "n")

    def __init__(self, corpus: str, starts: Sequence[int], n: int):
        self.corpus, self.starts, self.n = corpus, starts, n

    @classmethod
    def of_texts(cls, texts, n: int) -> "Top":
        """The distinct length-``n`` windows of ``texts``.  When every text
        is exactly one window, the words are sorted directly.

        Otherwise the texts may repeat windows, and a substitution's
        repeat most of theirs (see :class:`SubstitutionSpec`).  A repeated
        window costs the sort the most, since the group of a window that
        occurs twice never splits before its ``n`` symbols are sliced.  So
        each text's leading and trailing runs of windows that occur
        earlier in the corpus are dropped before the sort
        (:func:`_repeated_run`).  A window that occurs earlier is not at
        its first occurrence, so every first occurrence is kept: the sort
        emits the same starts, and the corpus is the same.

        Each block probed for a run is at least ``len(corpus) // n``
        windows.  A probe's scan reads at most the corpus, and dropping
        that many repeated windows spares the sort about as many symbols,
        so a text whose repeats come in shorter runs pays one scan at
        each end and keeps them."""
        texts = [t for t in texts if len(t) >= n]
        if all(len(t) == n for t in texts):
            words = [w for w, _ in itertools.groupby(sorted(texts))]
            return cls(_SEP.join(words), range(0, len(words) * (n + 1), n + 1), n)
        corpus = _SEP.join(texts)
        least = len(corpus) // n  # a text is longer than n, so at least 1
        starts: list[int] = []
        at = 0
        for t in texts:
            first, last = at, at + len(t) - n  # the text's first and last window
            first += _repeated_run(corpus, first, last, n, least, False)
            last -= _repeated_run(corpus, first, last, n, least, True)
            starts.extend(range(first, last + 1))
            at += len(t) + 1
        out: list[int] = []
        _sorted_starts(corpus, starts, n, 0, out)
        return cls(corpus, out, n)

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other) -> bool:
        """Equal tops hold the same rows, wherever they were cut from."""
        return isinstance(other, Top) and self.n == other.n and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash((self.n, tuple(self)))

    def __getitem__(self, row: int) -> str:
        s = self.starts[row]
        return self.corpus[s : s + self.n]

    def __iter__(self):
        corpus, n = self.corpus, self.n
        return (corpus[s : s + n] for s in self.starts)

    def prefix(self, row: int, m: int) -> str:
        """The first ``m`` symbols of ``row``, ``m <= n``."""
        s = self.starts[row]
        return self.corpus[s : s + m]

    def prefixes(self, m: int) -> tuple[str, ...]:
        """The distinct length-``m`` prefixes, sorted, ``m <= n``.  The
        rows that share a prefix are neighbours, so from the first row of
        each prefix the search gallops to the end of its run: one probe
        for a row of its own, a few for a long run."""
        if m == self.n:
            return tuple(self)
        corpus, starts = self.corpus, self.starts
        out = []
        row, end = 0, len(starts)
        while row < end:
            s = starts[row]
            prefix = corpus[s : s + m]
            out.append(prefix)
            row += 1
            if row == end or not corpus.startswith(prefix, starts[row]):
                continue
            # row lo starts with the prefix; row hi does not, or is the end
            lo, hi, step = row, row + 1, 2
            while hi < end and corpus.startswith(prefix, starts[hi]):
                lo, hi, step = hi, hi + step, 2 * step
            hi = min(hi, end)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if corpus.startswith(prefix, starts[mid]):
                    lo = mid
                else:
                    hi = mid
            row = hi
        return tuple(out)

    def rank(self, word: str) -> int:
        """The number of rows below ``word``: a row is below it exactly
        when its first ``len(word)`` symbols are."""
        corpus, m = self.corpus, min(len(word), self.n)
        return bisect.bisect_left(self.starts, word, key=lambda s: corpus[s : s + m])

    def find(self, word: str) -> int | None:
        """The first row that starts with ``word``, or None."""
        row = self.rank(word)
        if row < len(self) and len(word) <= self.n and self.corpus.startswith(word, self.starts[row]):
            return row
        return None


class SubshiftSpec:
    """Base class: a finite presentation acting as an exact language oracle.

    Subclasses implement :meth:`_compute_language`, which hands over texts
    whose length-``n`` windows are exactly the length-``n`` factors.  All
    values are immutable after construction.  The longest language built
    so far is kept as one :class:`Top`, the only sorted store: starts in
    the corpus of those texts, sorted by growing prefix groups.  Every
    shorter length is read off it as distinct prefixes, already sorted,
    and handed out without being kept.  The frozensets that serve
    :meth:`is_factor` are cached per length.  Only :meth:`top` builds from
    the presentation, and only for a length beyond the top.
    """

    variant = "abstract"

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self._top = Top("", (0,), 0)  # the sorted factors of the longest length built
        self._lang_cache: dict[int, frozenset[str]] = {}
        self._counts: tuple[int, ...] | None = None  # p(0..top length), read off the top

    # -- oracle interface ---------------------------------------------------

    def language(self, n: int) -> frozenset[str]:
        """Exactly the length-``n`` factors of the subshift (internal words)."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        if n == 0:
            return frozenset({""})
        lang = self._lang_cache.get(n)
        if lang is None:
            lang = self._lang_cache[n] = frozenset(self.sorted_language(n))
        return lang

    def top(self, n: int) -> Top:
        """The top, built to length at least ``n`` first: every factor of
        length at most ``n`` is a prefix of one of its rows."""
        if n > self._top.n:
            self._top, self._counts = Top.of_texts(self._compute_language(n), n), None
        return self._top

    def sorted_language(self, n: int) -> tuple[str, ...]:
        """The length-``n`` factors in canonical order, the top's
        length-``n`` prefixes, which are not kept."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        return self.top(n).prefixes(n)

    def _compute_language(self, n: int) -> list[str]:
        raise NotImplementedError

    def factor_counts(self, n: int) -> tuple[int, ...]:
        """p(0), ..., p(m) for some m >= ``n``, from the top: the
        length-``j`` prefixes of neighbouring top rows differ exactly when
        their common prefix is shorter than ``j``, so p(j) is one plus the
        number of neighbours whose common prefix is shorter than ``j``.
        Rows are read two at a time as big-endian integers of their ASCII
        bytes, and two ``m``-symbol rows share ``(8m - bit_length) // 8``
        symbols, by the ``bit_length`` of their XOR (by halving above
        ``XOR_ROW_LIMIT`` symbols)."""
        top = self.top(n)
        if self._counts is None:
            m = top.n
            hist = [0] * (m + 1)
            if m <= XOR_ROW_LIMIT:
                data = top.corpus.encode("ascii")
                rows = (int.from_bytes(data[s : s + m], "big") for s in top.starts)
                for a, b in itertools.pairwise(rows):
                    hist[(8 * m - (a ^ b).bit_length()) >> 3] += 1
            else:
                for a, b in itertools.pairwise(top):
                    hist[common_prefix_length(a, b)] += 1
            self._counts = tuple(itertools.accumulate(hist[:-1], initial=1))
        return self._counts

    def complexity(self, n: int) -> int:
        """p(n) = number of distinct length-``n`` factors, exact."""
        return self.factor_counts(n)[n]

    def is_factor(self, word: str) -> bool:
        return word in self.language(len(word))

    def describe(self) -> dict:
        """Serializable echo of the presentation (for certificates)."""
        raise NotImplementedError


class FullShiftSpec(SubshiftSpec):
    """Every word over the alphabet is admissible."""

    variant = "full_shift"

    def _compute_language(self, n: int) -> list[str]:
        _check_symbol_budget(n, self.complexity(n))  # |A|ⁿ, nothing listed
        return ["".join(w) for w in itertools.product(self.alphabet.chars, repeat=n)]

    def complexity(self, n: int) -> int:
        return len(self.alphabet) ** n

    def is_factor(self, word: str) -> bool:
        return all(ord(c) - _BASE < len(self.alphabet) for c in word)

    def describe(self) -> dict:
        return {"variant": self.variant, "alphabet": list(self.alphabet.symbols)}


class SFTSpec(SubshiftSpec):
    """Shift of finite type given by forbidden words.

    The language is decided on the de Bruijn recoding graph: vertices are
    admissible words of length ``order`` (max forbidden length minus one, at
    least 1), edges append one symbol with a forbidden-word window check,
    and vertices with no infinite continuation are trimmed.  A word is a
    factor iff its windows are admissible and its suffix vertex survives
    trimming.
    """

    variant = "sft"

    def __init__(self, alphabet: Alphabet, forbidden):
        super().__init__(alphabet)
        self.forbidden = frozenset(alphabet.encode(w) for w in forbidden)
        if any(len(w) == 0 for w in self.forbidden):
            raise InvalidSpec("forbidden words must have nonzero length")
        self.max_forbidden_len = max((len(w) for w in self.forbidden), default=1)
        self.order = max(self.max_forbidden_len - 1, 1)
        self._graph_built = False

    # -- graph --------------------------------------------------------------

    def _admissible(self, word: str) -> bool:
        return not any(f in word for f in self.forbidden)

    def _build_graph(self):
        if self._graph_built:
            return
        order = self.order
        verts = ["".join(w) for w in itertools.product(self.alphabet.chars, repeat=order)]
        verts = [v for v in verts if self._admissible(v)]
        edges: dict[str, list[str]] = {v: [] for v in verts}
        vset = set(verts)
        for u in verts:
            for a in self.alphabet.chars:
                v = u[1:] + a
                if v in vset and self._admissible(u + a):
                    edges[u].append(v)
        # Trim vertices with no infinite forward continuation.
        live = set(verts)
        changed = True
        while changed:
            changed = False
            for v in list(live):
                if not any(t in live for t in edges[v]):
                    live.discard(v)
                    changed = True
        self._vertices = sorted(live)
        self._liveset = frozenset(live)
        self._edges = {u: sorted(t for t in edges[u] if t in live) for u in self._vertices}
        self._indeg: dict[str, int] = {v: 0 for v in self._vertices}
        for u in self._vertices:
            for t in self._edges[u]:
                self._indeg[t] += 1
        self._graph_built = True

    # -- language -----------------------------------------------------------

    def _compute_language(self, n: int) -> list[str]:
        _check_symbol_budget(n, self.complexity(n))  # counted on the graph, nothing listed
        if n <= self.order:
            out = [v[:n] for v in self._vertices]
        else:
            frontier: list[tuple[str, str]] = [(v, v) for v in self._vertices]
            for _ in range(n - self.order):
                frontier = [(w + t[-1], t) for (w, v) in frontier for t in self._edges[v]]
            out = [w for (w, _) in frontier]
        if not out:
            raise EmptyLanguage(f"SFT language empty at length {n}")
        return out

    def complexity(self, n: int) -> int:
        """Exact p(n) by integer path counting (no enumeration)."""
        self._build_graph()
        if not self._vertices:
            raise EmptyLanguage(f"SFT language empty at length {n}")
        if n <= self.order:
            return len({v[:n] for v in self._vertices})
        counts = self._path_counts(n - self.order)
        return sum(counts.values())

    def _path_counts(self, steps: int) -> dict[str, int]:
        """Number of ``steps``-edge paths starting at each live vertex."""
        counts = {v: 1 for v in self._vertices}
        for _ in range(steps):
            counts = {v: sum(counts[t] for t in self._edges[v]) for v in self._vertices}
        return counts

    def is_factor(self, word: str) -> bool:
        """Admissible windows plus a live suffix vertex; no enumeration."""
        self._build_graph()
        if len(word) <= self.order:
            return any(v[: len(word)] == word for v in self._vertices)
        if not self._admissible(word):
            return False
        # end vertex live suffices: interior vertices continue along the word
        return word[-self.order :] in self._liveset

    def left_special_count(self, n: int) -> int:
        """Number of length-``n`` factors with >= 2 one-symbol left
        extensions, counted exactly on the graph; needs n >= order."""
        if n < self.order:
            raise ValueError(f"graph counting needs n >= order = {self.order}")
        self._build_graph()
        counts = self._path_counts(n - self.order)
        return sum(c for v, c in counts.items() if self._indeg[v] >= 2)

    def left_extensions_all_positive(self) -> bool:
        """True iff every live vertex has a live in-edge (left extendability
        for every factor of length >= order)."""
        self._build_graph()
        return all(self._indeg[v] >= 1 for v in self._vertices)

    def describe(self) -> dict:
        return {
            "variant": self.variant,
            "alphabet": list(self.alphabet.symbols),
            "forbidden": sorted(self.alphabet.decode(w) for w in self.forbidden),
        }


class SubstitutionSpec(SubshiftSpec):
    """Primitive substitution subshift.

    Primitivity (some power of the substitution matrix strictly positive)
    is checked at construction.  With more than one letter it makes every
    letter occur in the language and every letter block ``σʲ(c)`` grow
    without bound; with one letter the subshift is the fixed point and
    its length-``n`` factor is that letter repeated ``n`` times.  The
    language is that of the images ``σᵏ(c)``, characterised exactly:

    - length 1: the alphabet;
    - length 2: the 2-factors of every image ``σ(c)``, closed under adding
      the 2-factors of ``σ(ab)`` for every ``ab`` already found.  A 2-factor
      of ``σᵏ⁺¹(c)`` lies inside one ``σ(x)`` or across ``σ(x)σ(y)`` for a
      2-factor ``xy`` of ``σᵏ(c)``, so induction on ``k`` finds them all;
    - length ``n >= 3``: take ``j`` with every ``|σʲ(c)| >= n - 1``.  Each
      length-``n`` factor occurs in ``σᵏ(a) = σʲ(σᵏ⁻ʲ(a))`` for all large
      ``k``, a concatenation of blocks ``σʲ(x)``.  A window of ``n``
      symbols cannot cover a whole block and one more symbol on each side,
      so it lies inside one block or across the seam ``σʲ(x)|σʲ(y)`` of a
      2-factor ``xy`` of ``σᵏ⁻ʲ(a)``.  The factors are the windows of the blocks and of
      the ``2(n-1)``-symbol seams, and every such window is a factor.
      Only the distinct texts that lie inside no longer one are windowed
      (:meth:`_texts`): a window of a text is a window of every text that
      contains it.  For Tribonacci the three seams ``0|·`` are one string
      and ``σʲ(2)`` is a prefix of ``σʲ(0)``, so 3 of the 8 texts remain.
      The kept texts still share most of their windows: the shift is
      linearly recurrent (Durand 1998; Durand, Host and Skau 1999), so
      every length-``n`` factor occurs in every factor of some length
      ``C·n``, and each block or seam holds nearly every factor.  The
      windows a text repeats from the texts before it come in long runs
      at its two ends, which :meth:`Top.of_texts` drops before it sorts:
      Fibonacci at ``n = 3407`` hands it 10 171 windows and it sorts the
      p(n) = 3408 first occurrences.

    The 2-factors are found once, at construction.  The blocks of the
    largest power built so far are kept, so a longer length continues from
    them.
    """

    variant = "substitution"

    def __init__(self, alphabet: Alphabet, rules: dict):
        super().__init__(alphabet)
        self.rules: dict[str, str] = {}
        for i, sym in enumerate(alphabet.symbols):
            if sym not in rules:
                raise InvalidSpec(f"substitution has no rule for symbol {sym!r}")
            image = alphabet.encode(rules[sym])
            if not image:
                raise InvalidSpec(f"substitution image of {sym!r} is empty")
            self.rules[_chr(i)] = image
        if not self.is_primitive():
            raise InvalidSpec("substitution is not primitive")
        self._blocks: list[str] = list(alphabet.chars)  # σʲ(c), by letter index
        self._pairs = frozenset(self._two_factors())  # the length-2 factors

    def matrix(self) -> list[list[int]]:
        """M[i][j] = occurrences of symbol j in the image of symbol i."""
        s = len(self.alphabet)
        return [[self.rules[_chr(i)].count(_chr(j)) for j in range(s)] for i in range(s)]

    def is_primitive(self) -> bool:
        s = len(self.alphabet)
        m = self.matrix()
        # Wielandt bound: primitive iff M^((s-1)^2 + 1) is strictly positive.
        power = (s - 1) ** 2 + 1
        acc = [[int(i == j) for j in range(s)] for i in range(s)]
        for _ in range(power):
            acc = [
                [sum(acc[i][k] * m[k][j] for k in range(s)) for j in range(s)]
                for i in range(s)
            ]
        return all(acc[i][j] > 0 for i in range(s) for j in range(s))

    def _two_factors(self) -> set[str]:
        found: set[str] = set()
        todo = list(self.rules.values())  # words whose 2-factors are factors
        while todo:
            word = todo.pop()
            for i in range(len(word) - 1):
                ab = word[i : i + 2]
                if ab not in found:
                    found.add(ab)
                    todo.append(self.rules[ab[0]] + self.rules[ab[1]])
        return found

    def _compute_language(self, n: int) -> list[str]:
        if len(self.alphabet) == 1:
            return [_chr(0) * n]
        if n == 1:
            return list(self.alphabet.chars)
        if n == 2:
            return list(self._pairs)
        return self._texts(n)

    def _texts(self, n: int) -> list[str]:
        """The texts whose length-``n`` windows are the factors, ``n >= 3``:
        the letter blocks ``σʲ(c)`` and the ``2(n-1)``-symbol seams of the
        2-factors, without repeats and without any text that lies inside a
        longer kept one, whose windows are all windows of that one.  Longest
        first, and texts of one length in string order, so the corpus does
        not depend on the order of a set, which follows the hash seed."""
        blocks = self._blocks
        while min(map(len, blocks)) < n - 1:
            # σʲ⁺¹(c) = σʲ(σ(c)), a join of the current blocks
            blocks = [
                "".join(blocks[ord(x) - _BASE] for x in self.rules[c]) for c in self.alphabet.chars
            ]
        self._blocks = blocks
        ends = [(b[1 - n :], b[: n - 1]) for b in blocks]  # last and first n-1 symbols
        seams = (ends[ord(a) - _BASE][0] + ends[ord(b) - _BASE][1] for a, b in self._pairs)
        kept: list[str] = []
        for text in sorted({*blocks, *seams}, key=lambda t: (-len(t), t)):
            if not any(text in longer for longer in kept):
                kept.append(text)
        return kept

    def describe(self) -> dict:
        return {
            "variant": self.variant,
            "alphabet": list(self.alphabet.symbols),
            "rules": {
                sym: self.alphabet.decode(self.rules[_chr(i)])
                for i, sym in enumerate(self.alphabet.symbols)
            },
        }


# -- named constructions used throughout the tests and demos ----------------


def fibonacci_spec() -> SubstitutionSpec:
    """0 -> 01, 1 -> 0 (Sturmian; p(n) = n + 1)."""
    return SubstitutionSpec(Alphabet(("0", "1")), {"0": "01", "1": "0"})


def thue_morse_spec() -> SubstitutionSpec:
    """0 -> 01, 1 -> 10."""
    return SubstitutionSpec(Alphabet(("0", "1")), {"0": "01", "1": "10"})


def full_shift_spec(k: int = 2) -> FullShiftSpec:
    return FullShiftSpec(Alphabet(tuple(str(i) for i in range(k))))


def golden_mean_spec() -> SFTSpec:
    """Binary SFT forbidding 11."""
    return SFTSpec(Alphabet(("0", "1")), ["11"])


def single_orbit_spec() -> SFTSpec:
    """One-symbol SFT: the single fixed point; p(n) = 1."""
    return SFTSpec(Alphabet(("0",)), [])


# -- operations --------------------------------------------------------------


class GrowthReport(NamedTuple):
    d_hat: Fraction
    d_hat_at: int
    superlinear_flag: bool


# p(n)/n above this at the horizon, after rising, flags superlinear growth
SUPERLINEAR_RATIO = 2


def growth_report(spec: SubshiftSpec, horizon: int) -> GrowthReport:
    """Finite-horizon growth surrogate.

    ``d_hat`` is the minimum of p(n)/n over 1 <= n <= horizon as an exact
    rational, at the first n where it occurs.  The superlinear flag is set
    when p(n)/n is strictly increasing over the last half of the horizon
    and ends above ``SUPERLINEAR_RATIO``.  Ratios are compared by integer
    cross-multiplication; only ``d_hat`` is a ``Fraction``.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    p = [0] + [spec.complexity(n) for n in range(horizon, 0, -1)][::-1]  # longest first
    at = 1  # p(n)/n < p(at)/at exactly when p(n) * at < p(at) * n
    for n in range(2, horizon + 1):
        if p[n] * at < p[at] * n:
            at = n
    increasing = all(p[n] * (n + 1) < p[n + 1] * n for n in range(horizon // 2, horizon))
    flag = increasing and p[horizon] > SUPERLINEAR_RATIO * horizon
    return GrowthReport(Fraction(p[at], at), at, flag)


def _left_extendable(spec: SubshiftSpec, n: int) -> bool:
    """Every length-``n`` factor has a left extension: the ends ``u[1:]`` of
    the length-``n+1`` factors are all p(n) of them.  A left extension
    ``av`` of ``v`` also extends every prefix of ``v``, so this covers
    every shorter length too."""
    return len({u[1:] for u in spec.language(n + 1)}) == spec.complexity(n)


def check_extendability(spec: SubshiftSpec, horizon: int) -> bool:
    """True iff every factor of length <= horizon has a left extension.

    This is the finite-depth necessary condition for the shift being onto.
    For forbidden-word presentations the condition at lengths beyond the
    graph order reduces to every live vertex having an in-edge, so the
    result is sound for all lengths once that holds.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if isinstance(spec, FullShiftSpec):
        return True
    if isinstance(spec, SFTSpec):
        return _left_extendable(spec, min(horizon, spec.order)) and (
            spec.left_extensions_all_positive()
        )
    return _left_extendable(spec, horizon)


class LanguageTable(NamedTuple):
    """The presentation's top with the complexity column; every length up
    to ``n_max`` is read off the top."""

    n_max: int
    top: Top  # the sorted factors of length at least n_max
    p: tuple[int, ...]  # index n-1 -> p(n)

    @classmethod
    def build(cls, spec: SubshiftSpec, n_max: int) -> "LanguageTable":
        """The table of ``spec`` to ``n_max >= 1``."""
        return cls(n_max, spec.top(n_max), spec.factor_counts(n_max)[1 : n_max + 1])

    def words(self, n: int) -> tuple[str, ...]:
        """Sorted length-``n`` factors, 1 <= n <= n_max."""
        return self.top.prefixes(n)

    def check_factorial(self) -> bool:
        """Every length-(n-1) factor of every stored word occurs at n-1.
        Shorter lengths are prefixes of the top words, so the prefix half
        holds by construction, and the suffix half at every length follows
        from length n_max: a word with its first symbol dropped must be a
        length-(n_max-1) prefix.  Both are read in place off the corpus,
        each at every top row."""
        n = self.n_max
        if n < 2:
            return True
        corpus, starts = self.top.corpus, self.top.starts
        shorter = {corpus[s : s + n - 1] for s in starts}
        return all(corpus[s + 1 : s + n] in shorter for s in starts)

    def write_csv(self, directory: str, alphabet: Alphabet):
        """Write ``language.csv`` with columns (n, p, words_file) plus one
        words file per length with at most ``WORDS_CAP`` factors."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, "language.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "p", "words_file"])
            for n, count in enumerate(self.p, start=1):
                ref = ""
                if count <= WORDS_CAP:
                    ref = f"words_{n:04d}.txt"
                    with open(os.path.join(directory, ref), "w") as wf:
                        for w in self.words(n):
                            wf.write(alphabet.decode(w) + "\n")
                writer.writerow([n, count, ref])
        return path
