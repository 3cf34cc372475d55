"""Left special words: the branching skeleton behind every later bound.

A factor is left special when two different symbols extend it to the left
inside the language.  For the Sturmian presentation there is exactly one
per length; the per-length counts, the tree of prefixes, and the counting
inequality from the complexity differences are all checked exactly.
"""

from fractions import Fraction

from shiftdim import (
    LeftSpecialTree,
    check_useful_inequality,
    complexity,
    fibonacci_spec,
    full_shift_spec,
    left_special_words,
    sp_estimate,
    thue_morse_spec,
)

fib = fibonacci_spec()
tm = thue_morse_spec()

print("== the unique left special factor per length (fibonacci) ==")
for n in (1, 2, 3, 5, 8):
    words = left_special_words(fib, n)
    print(f" length {n}: {[fib.alphabet.decode(w) for w in words]}")

tree = LeftSpecialTree.build(tm, 12)
print("\n== thue-morse left special counts by length ==")
print(" counts:", tree.counts())
closed = all(w[:-1] in tree.levels[n - 1] for n in range(1, tree.depth) for w in tree.levels[n])
print(" prefix closure holds:", closed)

print("\n== branch estimates ==")
rep = sp_estimate(fib, 50)
print(
    f" fibonacci depth 50: branches {rep.branch_lower}"
    f" (upper {rep.branch_upper}), stabilized {rep.stabilized},"
    f" d_hat {rep.d_hat}, ceiling bound {rep.bound}"
)
rep_full = sp_estimate(full_shift_spec(2), 10)
print(
    f" full shift depth 10: counts grow as {rep_full.counts[:5]}...,"
    f" superlinear warning {rep_full.superlinear_warning}"
)

print("\n== the counting inequality ==")
qualifying = check_useful_inequality(fib, 30, Fraction(1, 4))
print(f" fibonacci: every m up to 30 qualifies -> {qualifying == list(range(1, 31))}")
for m in (5, 13, 21):
    diff = complexity(fib, m + 1) - complexity(fib, m)
    print(f"   m={m:>2d}: |LS(m)| = 1 <= p(m+1) - p(m) = {diff}")
