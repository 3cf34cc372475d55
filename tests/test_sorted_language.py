"""The sorted language layer against the per-length routines it replaced.

Each presentation's oracle language is built independently at one length
past the horizon; every shorter length is then the set of its prefixes,
as the library used to read it.  The library must agree at every length:
the sorted words, p(n), the language table and the left special levels,
which must be prefix closed.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from shiftdim.errors import EmptyLanguage
from shiftdim.pipeline import run_cover
from shiftdim.special import left_special_levels, left_special_words
from shiftdim.words import (
    MAX_ALPHABET,
    XOR_ROW_LIMIT,
    Alphabet,
    LanguageTable,
    SFTSpec,
    SubshiftSpec,
    SubstitutionSpec,
    Top,
    common_prefix_length,
    full_shift_spec,
)

from .oracles import (
    check_factorial_oracle,
    full_chain_count_oracle,
    left_special_counter_oracle,
    prefix_closure_oracle,
    prefix_sets_oracle,
    sft_factors_oracle,
    substitution_factors_oracle,
)
from .test_words import FIB_RULES, RANDOM_RULES, TM_RULES, TRIB_RULES


def _substitution(rules, horizon):
    spec = lambda: SubstitutionSpec(Alphabet(tuple(sorted(rules))), rules)
    return spec, lambda: substitution_factors_oracle(rules, horizon + 1)


def _sft(forbidden, horizon):
    # internal words of the symbols "0", "1" are those very strings
    spec = lambda: SFTSpec(Alphabet(("0", "1")), sorted(forbidden))
    return spec, lambda: sft_factors_oracle("01", set(forbidden), horizon + 1)


def _full(horizon):
    words = lambda: {"".join(t) for t in itertools.product("01", repeat=horizon + 1)}
    return lambda: full_shift_spec(2), words


def _random_forbidden(seed: int) -> set[str]:
    rng = random.Random(seed)
    return {
        "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3))
    }


# name -> (fresh presentation, its oracle language one length past the horizon)
CASES = {
    "fib": _substitution(FIB_RULES, 40),
    "tm": _substitution(TM_RULES, 40),
    "trib": _substitution(TRIB_RULES, 40),
    "golden": _sft({"11"}, 12),
    "full2": _full(9),
    **{f"subst{i}": _substitution(r, 24) for i, r in enumerate(RANDOM_RULES[:8])},
    **{f"sft{seed}": _sft(_random_forbidden(seed), 10) for seed in range(12)},
}


@functools.lru_cache(maxsize=None)
def _oracle_levels(name: str):
    top = CASES[name][1]()
    if not top:
        return None
    return prefix_sets_oracle(top, len(next(iter(top))))


@pytest.fixture(params=sorted(CASES))
def case(request):
    """A fresh presentation, its horizon and its oracle levels 1..horizon+1."""
    spec, levels = CASES[request.param][0](), _oracle_levels(request.param)
    if levels is None:
        with pytest.raises(EmptyLanguage):
            spec.language(1)
        pytest.skip("empty language: the presentation raises EmptyLanguage")
    return spec, len(levels) - 1, levels


def test_lengths_and_counts_read_off_the_top(case):
    spec, horizon, levels = case
    spec.language(horizon + 1)
    counts = spec.factor_counts(horizon + 1)
    for n, level in enumerate(levels, start=1):
        assert spec.sorted_language(n) == tuple(sorted(level)), n
        assert spec.language(n) == level, n
        assert counts[n] == spec.complexity(n) == len(level), n


def test_language_table_matches_oracle(case):
    spec, horizon, levels = case
    table = LanguageTable.build(spec, horizon)
    assert table.p == tuple(len(level) for level in levels[:horizon])
    for n in range(1, horizon + 1):
        assert table.words(n) == tuple(sorted(levels[n - 1])), n
    assert table.check_factorial() == check_factorial_oracle(levels[:horizon]) is True


def test_left_special_levels_match_counter_oracle(case):
    spec, horizon, levels = case
    expected = [
        left_special_counter_oracle(levels[n - 1], levels[n]) for n in range(1, horizon + 1)
    ]
    assert [list(level) for level in left_special_levels(spec, horizon)] == expected
    for n in (1, horizon // 2, horizon):
        assert left_special_words(spec, n) == expected[n - 1], n
    # prefix closed, so every deepest-level word is a full chain
    assert prefix_closure_oracle(expected)
    assert full_chain_count_oracle(expected) == len(expected[-1])


def test_left_special_words_alone_on_a_fresh_presentation():
    # one level, asked before any longer length is built
    spec, levels = CASES["tm"][0](), _oracle_levels("tm")
    assert left_special_words(spec, 40) == left_special_counter_oracle(levels[39], levels[40])


def _table(words) -> LanguageTable:
    n_max = len(words[0])
    levels = prefix_sets_oracle(words, n_max)
    return LanguageTable(n_max, Top.of_texts(words, n_max), tuple(len(s) for s in levels))


@pytest.mark.parametrize("words, factorial", [
    (["01"], False),
    (["0"], True),
    (["00", "01", "10"], True),
    (["00", "01"], False),
    (["010", "101"], True),
    (["001", "010", "100"], True),
    (["011", "101"], False),
])
def test_check_factorial_on_word_lists(words, factorial):
    table = _table(words)
    assert table.check_factorial() is factorial
    assert check_factorial_oracle(prefix_sets_oracle(words, len(words[0]))) is factorial


def test_check_factorial_matches_oracle_on_random_word_lists():
    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        n_max = rng.randint(1, 6)
        alphabet = "012"[: rng.randint(1, 3)]
        words = sorted({
            "".join(rng.choice(alphabet) for _ in range(n_max))
            for _ in range(rng.randint(1, 12))
        })
        expected = check_factorial_oracle(prefix_sets_oracle(words, n_max))
        assert _table(words).check_factorial() is expected, words
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("name", ["tm", "trib"])
def test_each_consumer_builds_one_language(name, monkeypatch):
    # the table, the special levels and the cover stage each build once
    # from the presentation, and read every other length off what they built
    spec = CASES[name][0]()
    built = []
    compute = spec._compute_language
    monkeypatch.setattr(spec, "_compute_language", lambda n: built.append(n) or compute(n))
    LanguageTable.build(spec, 60)
    assert built == [60]
    left_special_levels(spec, 60)
    assert built == [60, 61]
    run_cover(spec, 30, 6, None)  # stored words of length 30 + 36
    assert built == [60, 61, 67]


class _Texts(SubshiftSpec):
    """A presentation whose length-``n`` factors are the length-``n``
    windows of fixed texts, in internal characters."""

    def __init__(self, size: int, texts):
        super().__init__(Alphabet(tuple(f"s{i}" for i in range(size))))
        self.texts = list(texts)

    def _compute_language(self, n: int) -> list[str]:
        return self.texts


def _counts_by_halving(top) -> tuple[int, ...]:
    """p(0..n) of a top from ``common_prefix_length`` of each pair of
    neighbouring rows."""
    hist = [0] * (top.n + 1)
    for a, b in itertools.pairwise(top):
        hist[common_prefix_length(a, b)] += 1
    return tuple(itertools.accumulate(hist[:-1], initial=1))


def _random_text(rng, size: int, length: int) -> str:
    return "".join(chr(48 + rng.randrange(size)) for _ in range(length))


def _edge_texts():
    rng = random.Random(25)
    yield "one-row", 2, ["0101"], 4
    yield "last-symbol", 2, ["0000000", "0000001"], 7
    top_char = chr(48 + MAX_ALPHABET - 1)  # the largest byte a symbol has
    yield "last-symbol-64", MAX_ALPHABET, [top_char * 15 + "0", top_char * 16], 16
    yield "64-symbols", MAX_ALPHABET, [_random_text(rng, MAX_ALPHABET, 300)], 9
    texts = [_random_text(rng, MAX_ALPHABET, 400), _random_text(rng, MAX_ALPHABET, 50)]
    yield "64-symbols-wide", MAX_ALPHABET, texts, 41
    for n in (1, 3, 5, 7, 8, 9, 15, 17, 63, 65):
        yield f"width-{n}", 3, [_random_text(rng, 3, 200), _random_text(rng, 2, 90)], n
    # both sides of the switch to halving, rows differing in their last symbol
    for n in (XOR_ROW_LIMIT, XOR_ROW_LIMIT + 1):
        yield f"limit-{n}", 2, ["0" * (n - 1) + "1", "0" * n, _random_text(rng, 2, n + 40)], n


@pytest.mark.parametrize("name, size, texts, n", [
    pytest.param(*case, id=case[0]) for case in _edge_texts()
])
def test_factor_counts_match_common_prefix_lengths(name, size, texts, n):
    spec = _Texts(size, texts)
    counts = spec.factor_counts(n)
    top = spec.top(n)
    assert counts == _counts_by_halving(top)
    assert counts == tuple(len({w[:j] for w in top}) for j in range(n + 1))
    if name == "one-row":
        assert len(top) == 1 and counts == (1,) * (n + 1)
    if name.startswith("last-symbol"):
        assert counts == (1,) * n + (2,)
