import bisect
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
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

from .oracles import sft_factors_oracle, sliding_factors, substitution_factors_oracle, substitution_image

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
    sort's first key.  Either every text is one word of length n, or the
    texts are joins of a few shared pieces, so windows repeat within a
    text and across texts, and some texts are shorter than n."""
    letters = "0123"[: draw(st.integers(1, 4))]
    n = draw(st.sampled_from([1, 2, 3, 7, words._KEY - 1, words._KEY, words._KEY + 1, 100, 150]))
    if draw(st.booleans()):
        texts = draw(st.lists(st.text(letters, min_size=n, max_size=n), min_size=1, max_size=12))
    else:
        pieces = draw(st.lists(st.text(letters, min_size=1, max_size=n + 20), min_size=1, max_size=4))
        joins = st.lists(st.sampled_from(pieces), max_size=8).map("".join)
        texts = draw(st.lists(joins, min_size=1, max_size=5))
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
    assert LanguageTable.build(warmed, m) == fresh


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
