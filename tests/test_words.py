import bisect
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdim import words
from shiftdim.errors import EmptyLanguage, InvalidSpec
from shiftdim.words import (
    Alphabet,
    LanguageTable,
    SFTSpec,
    SubstitutionSpec,
    Top,
    check_extendability,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    growth_report,
    thue_morse_spec,
)

from .oracles import (
    min_ratio_oracle,
    sft_factors_oracle,
    sliding_factors,
    substitution_factors_oracle,
    substitution_image,
)

FIB_RULES = {"0": "01", "1": "0"}
TM_RULES = {"0": "01", "1": "10"}
TRIB_RULES = {"0": "01", "1": "02", "2": "0"}


def test_full_shift_words_n2(full2):
    assert full2.sorted_language(2) == ("00", "01", "10", "11")


def test_fibonacci_n2_matches_window_oracle(fib):
    # oracle: slide a window over the 10th substitution image of 0
    expected = sliding_factors(substitution_image(FIB_RULES, "0", 10), 2)
    assert expected == {"00", "01", "10"}
    assert set(fib.sorted_language(2)) == expected


def test_sft_no11_n2_matches_brute_force(golden):
    expected = sft_factors_oracle("01", {"11"}, 2)
    assert expected == {"00", "01", "10"}
    assert set(golden.sorted_language(2)) == expected


def test_full_shift_complexity(full2):
    assert full2.complexity(3) == 8


def test_fibonacci_complexity_small(fib):
    # Sturmian pattern p(n) = n + 1, frozen from the window oracle
    for n in range(1, 12):
        oracle = substitution_factors_oracle(FIB_RULES, n)
        assert fib.complexity(n) == len(oracle) == n + 1


def test_thue_morse_complexity_n4(tm):
    oracle = substitution_factors_oracle(TM_RULES, 4)
    assert tm.complexity(4) == len(oracle) == 10


def test_substitution_language_stability(fib, tm):
    # once two consecutive iterates agree on the length-n factor set,
    # three more iterates do not change it
    for rules, n in ((FIB_RULES, 7), (TM_RULES, 6)):
        power = 1
        prev = None
        while True:
            text = substitution_image(rules, "0", power)
            if len(text) >= n:
                cur = sliding_factors(text, n)
                if prev is not None and cur == prev:
                    break
                prev = cur
            power += 1
        for extra in range(1, 4):
            text = substitution_image(rules, "0", power + extra)
            assert sliding_factors(text, n) == prev


def test_non_primitive_substitution_rejected():
    with pytest.raises(InvalidSpec):
        SubstitutionSpec(Alphabet(("0", "1")), {"0": "00", "1": "1"})


def test_empty_sft_language_raises():
    spec = SFTSpec(Alphabet(("0", "1")), ["00", "01", "10", "11"])
    with pytest.raises(EmptyLanguage):
        spec.sorted_language(2)


def test_sft_language_requires_right_extendability():
    # forbidding 00 and 01 kills every word containing 0
    spec = SFTSpec(Alphabet(("0", "1")), ["00", "01"])
    assert spec.sorted_language(3) == ("111",)


def test_growth_report_fibonacci(fib):
    rep = growth_report(fib, 20)
    assert rep.d_hat == Fraction(21, 20)
    assert rep.d_hat_at == 20
    assert not rep.superlinear_flag


def test_growth_report_full_shift(full2):
    rep = growth_report(full2, 10)
    assert rep.superlinear_flag


def test_growth_report_single_orbit(single):
    rep = growth_report(single, 12)
    assert rep.d_hat == Fraction(1, 12)
    assert not rep.superlinear_flag


class _StubCounts:
    """A presentation stub: p(n) is ``counts[n - 1]``."""

    def __init__(self, counts):
        self.counts = counts

    def complexity(self, n: int) -> int:
        return self.counts[n - 1]


@st.composite
def _count_lists(draw):
    """p(1..h) for 2 <= h <= 40: near a line of small integer slope, so
    ties at the minimum and equal neighbouring ratios are common, or near a
    parabola, so the ratios rise, or anything."""
    h = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(("line", "parabola", "any")))
    if shape == "any":
        return draw(st.lists(st.integers(1, 200), min_size=h, max_size=h))
    slope = draw(st.integers(1, 4))
    jitter = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2)), min_size=h, max_size=h))
    base = (slope * n if shape == "line" else n * (n + 1) // slope for n in range(1, h + 1))
    return [max(1, b + j) for b, j in zip(base, jitter)]


@settings(max_examples=400, deadline=None)
@given(_count_lists())
@example([2, 4, 6, 8])  # every ratio ties at the minimum: the first length wins
@example([3, 2, 3, 4, 10])  # ratio 1 at n = 2, 3 and 4: n = 2 wins
@example([1, 2, 4, 8])  # rising ratios ending at p(h) = 2h: no flag
@example([1, 2, 4, 9])  # one more: the flag
@example([1, 3, 7, 12, 15])  # rising, then equal ratios 3 and 3 in the last half: no flag
@example([5, 5])
def test_growth_report_matches_fraction_ratios(counts):
    rep = growth_report(_StubCounts(counts), len(counts))
    ratios = [Fraction(p, n) for n, p in enumerate(counts, start=1)]
    assert rep.d_hat == min_ratio_oracle(counts)
    assert rep.d_hat_at == ratios.index(rep.d_hat) + 1
    half = ratios[len(counts) // 2 - 1 :]
    rising = all(a < b for a, b in zip(half, half[1:]))
    assert rep.superlinear_flag == (rising and ratios[-1] > 2)


def test_extendability(fib, full2):
    assert check_extendability(fib, 10)
    assert check_extendability(full2, 5)
    # words must be preceded by 1 only, and 1 by nothing after a 0
    blocked = SFTSpec(Alphabet(("0", "1")), ["00", "10"])
    assert not check_extendability(blocked, 3)


def test_language_table_factorial_and_monotone(fib):
    table = LanguageTable.build(fib, 12)
    assert table.check_factorial()
    assert all(a <= b for a, b in zip(table.p, table.p[1:]))


@pytest.mark.parametrize("table, failing", [
    # "01" without its first symbol is "1", which is no length-1 word
    (LanguageTable(2, Top.of_texts(("01",), 2), (1, 1)), "factorial"),
    # a factorial top whose complexity column falls from 2 to 1
    (LanguageTable(2, Top.of_texts(("00",), 2), (2, 1)), "monotone"),
], ids=["factorial", "monotone"])
def test_lang_clause_fails_alone_on_the_least_table(fib, monkeypatch, table, failing):
    from shiftdim import pipeline

    monkeypatch.setattr(pipeline, "LanguageTable", mock.Mock(build=lambda spec, n: table))
    _, cert = pipeline.run_lang(fib, 2, None)
    assert cert.verdict == "fail"
    assert [(c.name, c.passed, c.witness) for c in cert.clauses] == [
        (name, name != failing, "") for name in ("factorial", "monotone")
    ]


def test_left_extension_identity(fib, tm, golden):
    # p(m+1) - p(m) == sum over length-m words of (extensions - 1), the
    # words and their left extensions read off the oracles' factor sets
    oracles = [
        (fib, lambda n: substitution_factors_oracle(FIB_RULES, n)),
        (tm, lambda n: substitution_factors_oracle(TM_RULES, n)),
        (golden, lambda n: sft_factors_oracle("01", {"11"}, n)),
    ]
    for spec, factors in oracles:
        assert check_extendability(spec, 9)
        for m in range(1, 8):
            diff = spec.complexity(m + 1) - spec.complexity(m)
            longer = factors(m + 1)
            total = sum(sum(a + w in longer for a in "01") - 1 for w in factors(m))
            assert diff == total


def test_sft_counting_matches_enumeration(golden):
    for n in range(1, 14):
        assert golden.complexity(n) == len(set(golden.sorted_language(n)))


def test_sft_complexity_large_exact_integers(golden):
    # golden mean counts follow the Fibonacci recurrence p(n) = p(n-1) + p(n-2)
    p = [golden.complexity(n) for n in range(1, 120)]
    for i in range(2, len(p)):
        assert p[i] == p[i - 1] + p[i - 2]


def test_alphabet_declared_order_not_character_order():
    # declared order ("b", "a") makes "b" the smaller symbol
    alpha = Alphabet(("b", "a"))
    spec = SFTSpec(alpha, [("a", "a")])
    words = spec.sorted_language(2)
    decoded = [alpha.decode(w) for w in words]
    assert decoded == ["bb", "ba", "ab"]


@st.composite
def random_sft(draw):
    words = draw(
        st.sets(st.text(alphabet="01", min_size=1, max_size=3), min_size=0, max_size=3)
    )
    return SFTSpec(Alphabet(("0", "1")), sorted(words))


@given(random_sft(), st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_sft_agrees_with_bruteforce_oracle(spec, n):
    forb = {spec.alphabet.decode(w) for w in spec.forbidden}
    expected = sft_factors_oracle("01", forb, n)
    try:
        got = set(spec.sorted_language(n))
    except EmptyLanguage:
        got = set()
    assert got == expected
    if expected:
        assert spec.complexity(n) == len(expected)


@given(random_sft())
@settings(max_examples=40, deadline=None)
def test_sft_language_factorial(spec):
    try:
        words = spec.language(5)
    except EmptyLanguage:
        return
    shorter = spec.language(4)
    for w in words:
        assert w[:-1] in shorter and w[1:] in shorter


def _random_primitive_rules(rng: random.Random) -> dict[str, str]:
    """Images of 1-4 symbols over 2-4 letters, redrawn until primitive."""
    while True:
        letters = "0123"[: rng.randint(2, 4)]
        rules = {
            c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4))) for c in letters
        }
        try:
            SubstitutionSpec(Alphabet(tuple(letters)), rules)
        except InvalidSpec:
            continue
        return rules


# Images that do not start with their own letter, and first images of one letter.
HAND_RULES = [
    {"0": "10", "1": "0"},
    {"0": "1", "1": "01"},
    {"0": "1", "1": "2", "2": "01"},
    {"0": "2", "1": "20", "2": "1"},
]
RANDOM_RULES = [_random_primitive_rules(random.Random(seed)) for seed in range(16)]
# Fibonacci, Thue-Morse and Tribonacci, and their squares, whose letter
# blocks and seams repeat and contain one another in other ways.
NAMED_RULES = [FIB_RULES, TM_RULES, TRIB_RULES]
SQUARED_RULES = [{c: substitution_image(r, c, 2) for c in r} for r in NAMED_RULES]


@pytest.mark.parametrize(
    "rules", HAND_RULES + RANDOM_RULES + NAMED_RULES + SQUARED_RULES, ids=str
)
def test_substitution_language_matches_window_oracle(rules):
    # internal words of the symbols "0".."3" are those very strings; each
    # length is longer than the last, so each is built from the blocks,
    # across several jumps of the block level
    spec = SubstitutionSpec(Alphabet(tuple(sorted(rules))), rules)
    for n in [*range(1, 65), 250, 1001]:
        assert spec.language(n) == substitution_factors_oracle(rules, n), n


def test_tribonacci_windows_three_of_eight_texts():
    # three blocks and five seams; the seams 0|0, 0|1 and 0|2 are one
    # string, and the block of 2 is a prefix of the block of 0
    spec = SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES)
    assert len(spec._pairs) == 5
    texts = spec._texts(4007)
    assert len(texts) == 3
    assert sum(len(t) - 4006 for t in texts) == 14615  # windows, of 33 293 in all 8


@st.composite
def window_texts(draw):
    """Texts over 1-4 letters and a window length below, at or above the
    sort's first key, of three kinds.  Every text is one word of length n;
    or the texts are joins of a few shared pieces, so windows repeat
    within a text and across texts, and some texts are shorter than n; or
    the last of three texts has runs of repeated windows of two blocks at
    both ends.  It starts with ``abc``, pieces of at least n symbols, and
    ``ab`` occurs in the first text and ``bc`` in the second, but ``abc``
    in neither; it ends with ``def``, made likewise.  The first text ends
    with a repeat of its own start."""
    letters = "0123"[: draw(st.integers(1, 4))]
    n = draw(st.sampled_from([1, 2, 3, 7, words._KEY - 1, words._KEY, words._KEY + 1, 100, 150]))
    kind = draw(st.sampled_from(["words", "joins", "runs"]))
    if kind == "words":
        texts = draw(st.lists(st.text(letters, min_size=n, max_size=n), min_size=1, max_size=12))
    elif kind == "joins":
        pieces = draw(st.lists(st.text(letters, min_size=1, max_size=n + 20), min_size=1, max_size=4))
        joins = st.lists(st.sampled_from(pieces), max_size=8).map("".join)
        texts = draw(st.lists(joins, min_size=1, max_size=5))
    else:
        a, b, c, d, e, f = (draw(st.text(letters, min_size=n, max_size=2 * n + 20)) for _ in range(6))
        fill = st.text(letters, max_size=n)
        texts = [
            draw(fill) + a + b + draw(fill) + e + f + draw(fill) + a,
            draw(fill) + b + c + draw(fill) + d + e + draw(fill),
            a + b + c + draw(fill) + d + e + f,
        ]
    return texts, n


@given(window_texts(), st.sampled_from([0, 1, 100, words._BUDGET]))
@settings(max_examples=300, deadline=None)
def test_window_sort_matches_sorted_distinct_windows(case, budget):
    """The top of some texts is their distinct windows, sorted, each at
    its first occurrence in the corpus.  A budget of 0 splits every group
    until it shares whole windows; 1 and 100 split some groups."""
    texts, n = case
    with mock.patch.object(words, "_BUDGET", budget):
        top = Top.of_texts(texts, n)
    expected = sorted({t[i : i + n] for t in texts for i in range(len(t) - n + 1)})
    assert list(top) == expected
    assert [top[row] for row in range(len(top))] == expected
    assert [top.corpus.find(w) for w in top] == list(top.starts)
    for m in {0, 1, n // 2, n - 1, n}:
        assert list(top.prefixes(m)) == sorted({w[:m] for w in expected})
    for word in {w[: n // 2] + "1" for w in expected} | {"0", "4", "0" * (n + 1)}:
        row = bisect.bisect_left(expected, word)
        assert top.rank(word) == row
        found = row < len(expected) and expected[row].startswith(word)
        assert top.find(word) == (row if found else None)


def test_short_repeated_runs_cost_one_scan_at_each_end():
    """Every window of the second text occurs in the first, a de Bruijn
    sequence that holds each length-8 word once, but in runs of a few
    windows: a repeat in it goes on only while its next symbol matches.
    No such run reaches the least block, ``len(corpus) // n`` windows, so
    the trim pays one scan at each end of each text, finds nothing, and
    the sort gets every window."""
    n = 8
    # a de Bruijn sequence by the prefer-one rule: append 1 unless that repeats a window
    first = "0" * n
    seen = {first}
    while True:
        for a in "10":
            if first[len(first) - n + 1 :] + a not in seen:
                seen.add(first[len(first) - n + 1 :] + a)
                first += a
                break
        else:
            break
    assert len(sliding_factors(first, n)) == 2**n == len(first) - n + 1
    rng = random.Random(3)
    second = "".join(rng.choice("01") for _ in range(500))
    texts = [first, second]
    with (
        mock.patch.object(words, "_occurs_before", wraps=words._occurs_before) as probe,
        mock.patch.object(words, "_sorted_starts", wraps=words._sorted_starts) as sort,
    ):
        top = Top.of_texts(texts, n)
    assert list(top) == sorted(sliding_factors(first, n))
    assert probe.call_count == 2 * len(texts)
    assert [len(c.args[1]) for c in sort.call_args_list if c.args[3] == 0] == [
        len(first) + len(second) - 2 * (n - 1)
    ]


@pytest.mark.parametrize(
    "make, n, p",
    [
        (fibonacci_spec, 3407, 3408),
        (thue_morse_spec, 4007, 12108),
        (lambda: SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES), 4007, 8015),
    ],
    ids=["fibonacci", "thue-morse", "tribonacci"],
)
def test_window_sort_receives_first_occurrences_only(make, n, p):
    """Of the windows of a substitution's texts, the trim leaves the sort
    only the p(n) first occurrences: every repeat lies in a text's leading
    or trailing run (Fibonacci 10 171 windows, Thue-Morse 16 024,
    Tribonacci 14 615)."""
    spec = make()
    with mock.patch.object(words, "_sorted_starts", wraps=words._sorted_starts) as sort:
        top = spec.top(n)
    assert [len(c.args[1]) for c in sort.call_args_list if c.args[3] == 0] == [p]
    assert len(top) == p


SEEDED_TOP = """
import hashlib, sys
from shiftdim import words
received = []
sort = words._sorted_starts
def counting(corpus, starts, n, shared, out):
    if shared == 0:
        received.append(len(starts))
    sort(corpus, starts, n, shared, out)
words._sorted_starts = counting
rules = dict(arg.split("=") for arg in sys.argv[1:])
top = words.SubstitutionSpec(words.Alphabet(tuple(sorted(rules))), rules).top(2007)
print(hashlib.sha256(top.corpus.encode()).hexdigest(), received)
"""


def test_corpus_does_not_depend_on_the_hash_seed():
    """The texts of one length come in string order, not in the order of
    a set, which follows the hash seed: the top of ``RANDOM_RULES[14]`` at
    n = 2007, built under three seeds, has one corpus, and its window
    sort receives as many starts.  Sorted by length alone, seeds 1 and 2
    gave another corpus than seed 3, and the sort 3230 starts, not 2714."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(words.__file__)))
    rules = [f"{c}={image}" for c, image in RANDOM_RULES[14].items()]
    outputs = {
        subprocess.run(
            [sys.executable, "-c", SEEDED_TOP, *rules],
            capture_output=True, text=True, timeout=60, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("1", "2", "3")
    }
    assert len(outputs) == 1, outputs
    assert outputs.pop().split(" ", 1)[1] == "[2714]\n"


@pytest.mark.parametrize(
    "make, m",
    [
        (fibonacci_spec, 40),
        (thue_morse_spec, 40),
        (lambda: SubstitutionSpec(Alphabet(("0", "1", "2")), TRIB_RULES), 40),
        (golden_mean_spec, 14),
        (lambda: full_shift_spec(2), 10),
    ],
)
def test_shorter_lengths_read_off_longer_ones(make, m):
    warmed = make()
    warmed.language(m)
    for n in range(m - 1, 0, -1):
        assert warmed.language(n) == make().language(n), n
    # a length between two cached ones
    warmed = make()
    warmed.language(m)
    warmed.language(m // 2)
    assert warmed.language(m // 2 - 1) == make().language(m // 2 - 1)
    fresh = LanguageTable.build(make(), m)
    warmed = make()
    warmed.language(m + 3)
    table = LanguageTable.build(warmed, m)
    assert table.p == fresh.p
    for n in range(1, m + 1):
        assert table.words(n) == fresh.words(n), n


@given(
    random_sft(), st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4)
)
@settings(max_examples=40, deadline=None)
def test_sft_shorter_lengths_read_off_longer_ones(spec, n, extra):
    fresh = SFTSpec(spec.alphabet, [spec.alphabet.decode(w) for w in spec.forbidden])
    try:
        spec.language(n + extra)
    except EmptyLanguage:
        with pytest.raises(EmptyLanguage):
            fresh.language(n)
        return
    assert spec.language(n) == fresh.language(n)
