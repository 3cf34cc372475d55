from fractions import Fraction

import pytest

from shiftdim.special import (
    SpecialReport,
    check_useful_inequality,
    left_special_count,
    left_special_levels,
    left_special_words,
    sp_estimate,
)
from shiftdim.words import Alphabet, SFTSpec, check_extendability

from .oracles import full_chain_count_oracle, left_special_oracle, prefix_closure_oracle


def test_fibonacci_left_special_n1(fib):
    expected = left_special_oracle(set(fib.language(1)), set(fib.language(2)), "01")
    assert expected == {"0"}
    assert left_special_words(fib, 1) == ["0"]


def test_full_shift_all_words_left_special(full2):
    assert left_special_words(full2, 2) == ["00", "01", "10", "11"]


def test_sft_no11_left_special_n1(golden):
    expected = left_special_oracle(set(golden.language(1)), set(golden.language(2)), "01")
    assert expected == {"0"}
    assert left_special_words(golden, 1) == ["0"]


def test_prefix_closure(fib, tm, golden):
    for spec in (fib, tm, golden):
        levels = left_special_levels(spec, 12)
        assert prefix_closure_oracle(levels)
        # so every deepest word counts toward the branch lower bound
        assert full_chain_count_oracle(levels) == len(levels[-1])


def test_counting_bound(fib, tm, golden):
    # |LS(m)| <= p(m+1) - p(m) whenever extendability holds
    for spec in (fib, tm, golden):
        assert check_extendability(spec, 13)
        for m in range(1, 12):
            assert left_special_count(spec, m) <= spec.complexity(m + 1) - spec.complexity(m)


def test_sft_left_special_count_matches_enumeration(golden):
    for m in range(1, 12):
        assert golden.left_special_count(m) == len(left_special_words(golden, m))


def test_sft_left_special_count_below_the_graph_order():
    # order 2: length 1 is enumerated, the graph counts from length 2 on
    spec = SFTSpec(Alphabet(("0", "1")), ["111", "000"])
    with pytest.raises(ValueError, match="order = 2"):
        spec.left_special_count(1)
    for m in range(1, 8):
        assert left_special_count(spec, m) == len(left_special_words(spec, m))


def test_sp_estimate_fibonacci(fib):
    rep = sp_estimate(fib, 50)
    assert rep.counts == tuple([1] * 50)
    assert rep.branch_lower == 1
    assert rep.branch_upper == 1
    assert rep.stabilized
    assert not rep.superlinear_warning
    assert rep.d_hat == Fraction(51, 50)
    # ceil(2 * 51/50) = 3; the branch bound 1 <= 3 holds
    assert rep.bound == 3
    assert rep.bound_holds()


def test_sp_estimate_full_shift(full2):
    rep = sp_estimate(full2, 10)
    assert rep.counts == tuple(2**n for n in range(1, 11))
    assert not rep.stabilized
    assert rep.superlinear_warning
    assert rep.branch_upper is None


def test_sp_estimate_thue_morse(tm):
    rep = sp_estimate(tm, 40)
    # the tool reports whatever stabilizes; sanity: counts bounded by p(n+1)-p(n)
    for n, c in enumerate(rep.counts, start=1):
        assert c <= tm.complexity(n + 1) - tm.complexity(n)
    assert not rep.superlinear_warning


def test_useful_inequality_fibonacci(fib):
    ms = check_useful_inequality(fib, 30, Fraction(1, 4))
    assert ms == list(range(1, 31))


def test_useful_inequality_full_shift(full2):
    # d_hat = min 2^n/n = 2, so the cutoff is 2(2 + 1/4) = 4.5: the
    # differences 2^m qualify only at m = 1, 2
    assert check_useful_inequality(full2, 10, Fraction(1, 4)) == [1, 2]


def test_useful_inequality_single_orbit(single):
    assert check_useful_inequality(single, 10, Fraction(1, 4)) == list(range(1, 11))


def test_useful_inequality_epsilon_range(fib):
    with pytest.raises(ValueError):
        check_useful_inequality(fib, 10, Fraction(1, 2))


@pytest.mark.parametrize("name, depth", [
    ("fib", 30), ("tm", 30), ("trib", 30), ("golden", 12), ("full2", 8), ("single", 6),
])
def test_left_special_words_match_oracle(name, depth, request):
    spec = request.getfixturevalue(name)
    for n in range(1, depth + 1):
        expected = left_special_oracle(
            set(spec.language(n)), set(spec.language(n + 1)), spec.alphabet.chars
        )
        assert left_special_words(spec, n) == sorted(expected)


def test_bound_consistency_fails_alone_on_the_least_report(fib, monkeypatch):
    # one stabilized branch against the bound ceil(2 * 0) = 0 of no growth
    from shiftdim import pipeline

    report = SpecialReport(4, (1, 1, 1, 1), 1, 1, True, Fraction(0), 0, False)
    monkeypatch.setattr(pipeline, "sp_estimate", lambda spec, depth: report)
    _, cert = pipeline.run_special(fib, 4)
    assert cert.verdict == "fail"
    assert [(c.name, c.passed, c.witness) for c in cert.clauses] == [
        ("bound-consistency", False, "branch_upper=1 bound=0"),
        ("superlinear-warning-absent", True, ""),
    ]
