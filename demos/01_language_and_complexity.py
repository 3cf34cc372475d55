"""Languages and complexity counts for the three presentation styles.

Every value printed here is exact: languages are enumerated (or counted on
the recoding graph for forbidden-word presentations) and growth ratios are
rationals, never floats.
"""

from fractions import Fraction

from shiftdim.words import (
    check_extendability,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    growth_report,
    thue_morse_spec,
)

fib = fibonacci_spec()
tm = thue_morse_spec()
golden = golden_mean_spec()
full2 = full_shift_spec(2)

print("== small languages ==")
for name, spec in [("fibonacci", fib), ("thue-morse", tm), ("golden-mean", golden)]:
    words = spec.sorted_language(4)
    rendered = ", ".join(spec.alphabet.decode(w) for w in words)
    print(f"{name:12s} length-4 factors ({len(words)}): {rendered}")

print("\n== complexity columns ==")
print("n    fibonacci  thue-morse  golden-mean  full-shift")
for n in (1, 2, 3, 5, 8, 13, 21):
    row = [spec.complexity(n) for spec in (fib, tm, golden, full2)]
    print(f"{n:<4d} {row[0]:>9d}  {row[1]:>10d}  {row[2]:>11d}  {row[3]:>10d}")

# The golden-mean counts satisfy the familiar two-term recurrence, and the
# Sturmian column is n + 1 on the nose.
p = [golden.complexity(n) for n in range(1, 40)]
assert all(p[i] == p[i - 1] + p[i - 2] for i in range(2, len(p)))

print("\n== growth surrogates (horizon 20) ==")
for name, spec in [("fibonacci", fib), ("full-shift", full2)]:
    rep = growth_report(spec, 20)
    print(
        f"{name:12s} d_hat = {rep.d_hat} (at n = {rep.d_hat_at}), "
        f"superlinear: {rep.superlinear_flag}"
    )

print("\n== left extendability ==")
blocked = golden_mean_spec()
print("fibonacci extendable to depth 12:", check_extendability(fib, 12))
print("golden-mean extendable to depth 12:", check_extendability(blocked, 12))

# d_hat is exact rational arithmetic: ceil(2 * 21/20) is decided, not rounded
rep = growth_report(fib, 20)
assert rep.d_hat == Fraction(21, 20)
print("\nceil(2 * d_hat) =", -(-2 * rep.d_hat.numerator // rep.d_hat.denominator))
