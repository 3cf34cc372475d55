"""Left special words: enumeration, branch estimation and the counting bound.

A length-``n`` factor is *left special* when at least two distinct symbols
extend it to the left inside the language.  Prefixes of left special words
are left special, so the per-length sets form a tree; the number of its
infinite branches is estimated from finite depth, with an explicit
stabilization flag instead of a claim about the infinite object.

Every level of the tree up to ``depth`` is read off one list: the
length-``depth+1`` factors ``u``, taken in sorted order from the
presentation's sorted top language and re-sorted as pairs
``(u[1:], u[0])``.  The pairs whose end ``u[1:]`` starts with a given
word are neighbours, so that word is left special exactly when two
neighbouring pairs share it as a prefix and have different first letters.
Every prefix of such a word is then shared by the same two pairs, so the
levels are prefix closed by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .words import (
    SFTSpec,
    SubshiftSpec,
    check_extendability,
    common_prefix_length,
    growth_report,
)


def left_special_levels(spec: SubshiftSpec, depth: int, start: int = 1) -> list[tuple[str, ...]]:
    """Sorted left special words of each length ``start..depth``, from the
    length-``depth+1`` factors: each level is the distinct length-``n``
    prefixes of the ends of neighbouring pairs with different first
    letters whose ends share at least ``n`` symbols."""
    if start < 1:
        raise ValueError("n must be >= 1")
    pairs = sorted((u[1:], u[0]) for u in spec.sorted_language(depth + 1))
    splits = [
        (end, common_prefix_length(prev, end))
        for (prev, a), (end, b) in zip(pairs, pairs[1:])
        if a != b
    ]
    return [
        tuple(w for w, _ in itertools.groupby(end[:n] for end, shared in splits if shared >= n))
        for n in range(start, depth + 1)
    ]


def left_special_words(spec: SubshiftSpec, n: int) -> list[str]:
    """Sorted length-``n`` factors with >= 2 one-symbol left extensions."""
    return list(left_special_levels(spec, n, n)[0])


def left_special_count(spec: SubshiftSpec, n: int) -> int:
    """|LS(n)|, by path counting on the graph of a forbidden-word
    presentation from its order on, and otherwise by listing the words."""
    if isinstance(spec, SFTSpec) and n >= spec.order:
        return spec.left_special_count(n)
    return len(left_special_words(spec, n))


@dataclass(frozen=True)
class SpecialReport:
    depth: int
    counts: tuple[int, ...]
    branch_lower: int
    branch_upper: int | None  # None = unbounded at this depth
    stabilized: bool
    d_hat: Fraction
    bound: int  # ceil(2 * d_hat)
    superlinear_warning: bool

    def bound_holds(self) -> bool:
        """Branch upper bound against ceil(2 d_hat); vacuous when the
        growth hypothesis fails or counts have not stabilized."""
        if self.superlinear_warning or not self.stabilized or self.branch_upper is None:
            return True
        return self.branch_upper <= self.bound


def sp_estimate(spec: SubshiftSpec, depth: int) -> SpecialReport:
    """Estimate the number of infinite left special branches at ``depth``.

    ``branch_lower`` counts deepest-level words with a fully left special
    prefix chain, which is every deepest-level word (the tree is prefix
    closed); the upper bound equals it only when the per-length counts
    are constant over the last quarter of depths.  The growth surrogate
    d_hat and the bound ceil(2 d_hat) are reported alongside; a superlinear
    warning marks runs where the finiteness hypothesis fails.
    """
    if depth < 4:
        raise ValueError("depth must be >= 4")
    counts = tuple(len(level) for level in left_special_levels(spec, depth))
    lower = counts[-1]
    quarter = counts[depth - max(depth // 4, 2) :]
    stabilized = len(set(quarter)) == 1
    growth = growth_report(spec, depth)
    upper = lower if stabilized and not growth.superlinear_flag else None
    return SpecialReport(
        depth=depth,
        counts=counts,
        branch_lower=lower,
        branch_upper=upper,
        stabilized=stabilized,
        d_hat=growth.d_hat,
        bound=ceil(2 * growth.d_hat),
        superlinear_warning=growth.superlinear_flag,
    )


def check_useful_inequality(spec: SubshiftSpec, horizon: int, epsilon: Fraction) -> list[int]:
    """Lengths m <= horizon with p(m+1) - p(m) <= 2 (d_hat + epsilon).

    For each qualifying m the pigeonhole step is asserted: when left
    extendability holds, the number of left special words of length m is
    at most p(m+1) - p(m).
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < Fraction(1, 2)):
        raise ValueError("epsilon must be in (0, 1/2)")
    growth = growth_report(spec, horizon)
    threshold = 2 * (growth.d_hat + epsilon)
    extendable = check_extendability(spec, horizon + 1)
    qualifying = []
    for m in range(1, horizon + 1):
        diff = spec.complexity(m + 1) - spec.complexity(m)
        if diff <= threshold:
            qualifying.append(m)
            if extendable:
                ls = left_special_count(spec, m)
                if ls > diff:
                    raise AssertionError(
                        f"counting step fails at m={m}: {ls} left special words "
                        f"but p({m + 1})-p({m}) = {diff}"
                    )
    return qualifying
