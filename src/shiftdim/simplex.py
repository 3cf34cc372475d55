"""Exact geometry of finitely supported probability vectors on the integers.

Points are rational probability vectors with finite support; the metric is
l1.  The translation action shifts supports.  Skeleton distances (to the
sets of points with support of bounded size) have the closed form
2 (1 - mass of the heaviest atoms), decided with exact rationals, which
is what the radius comparisons like 1/30 versus 1/4 require.  No floats
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm


@dataclass(frozen=True)
class SimplexPoint:
    """Finitely supported rational probability vector on the integers."""

    entries: tuple[tuple[int, Fraction], ...]  # sorted by atom, weights > 0

    def __post_init__(self):
        atoms = [a for a, _ in self.entries]
        if atoms != sorted(atoms) or len(set(atoms)) != len(atoms):
            raise ValueError("entries must be sorted by atom and distinct")
        if any(w <= 0 for _, w in self.entries):
            raise ValueError("weights must be positive")
        if sum((w for _, w in self.entries), Fraction(0)) != 1:
            raise ValueError("weights must sum to exactly 1")

    @classmethod
    def from_dict(cls, weights: dict) -> "SimplexPoint":
        ent = tuple(sorted((int(a), Fraction(w)) for a, w in weights.items() if w != 0))
        return cls(ent)

    @classmethod
    def dirac(cls, atom: int) -> "SimplexPoint":
        return cls(((int(atom), Fraction(1)),))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.entries)

    def weight(self, atom: int) -> Fraction:
        for a, w in self.entries:
            if a == atom:
                return w
        return Fraction(0)

    def shift(self, n: int) -> "SimplexPoint":
        """Translation by the shift: mass at atom a moves to a - n, so the
        image of a point under n forward steps matches the shifted map."""
        return SimplexPoint(tuple((a - n, w) for a, w in self.entries))

    def l1(self, other: "SimplexPoint", n: int = 0) -> Fraction:
        """l1 distance from this point to ``other.shift(n)``, read off the
        entries without building the shifted point.  The weights are put
        over one common denominator, so the sum is taken in integers."""
        den = lcm(*(w.denominator for _, w in self.entries),
                  *(w.denominator for _, w in other.entries))
        mine = {a: w.numerator * (den // w.denominator) for a, w in self.entries}
        total = 0
        for a, w in other.entries:
            total += abs(mine.pop(a - n, 0) - w.numerator * (den // w.denominator))
        return Fraction(total + sum(mine.values()), den)

    def ranked(self) -> list[tuple[int, Fraction]]:
        """The entries, heaviest first; ties broken by integer order."""
        return sorted(self.entries, key=lambda e: (-e[1], e[0]))

    def heaviest(self, count: int) -> tuple[int, ...]:
        """The ``count`` heaviest atoms, in atom order."""
        return tuple(sorted(a for a, _ in self.ranked()[:count]))


def skeleton_distance(mu: SimplexPoint, size: int):
    """l1 distance from mu to the points supported on at most ``size``
    atoms: 2 (1 - mass of the ``size`` heaviest atoms); +inf against the
    empty skeleton (size 0)."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return inf
    kept = sum((mu.weight(a) for a in mu.heaviest(size)), Fraction(0))
    return 2 * (1 - kept)


def in_simplex(mu: SimplexPoint, d: int) -> bool:
    return len(mu.entries) <= d + 1


def simplicial_cover_membership(mu: SimplexPoint, i: int, d: int):
    """Membership of mu in the i-th ring of the skeleton-neighborhood
    cover: within 1/(3*10^i) of the i-skeleton and strictly farther than
    5/(2*10^i) from the (i-1)-skeleton (the closure of the inner ball is
    excluded by the non-strict comparison).  When the answer is positive
    the heaviest i+1 atoms name the cell, with ties broken by atom order.
    Returns (member, cell)."""
    if not (0 <= i <= d):
        raise ValueError("need 0 <= i <= d")
    if not in_simplex(mu, d):
        raise ValueError("point lies outside the ambient simplex")
    outer = Fraction(1, 3 * 10**i)
    inner = Fraction(5, 2 * 10**i)
    near = skeleton_distance(mu, i + 1)
    if not near < outer:
        return False, None
    if i > 0 and not skeleton_distance(mu, i) > inner:
        return False, None
    return True, mu.heaviest(i + 1)


def cover_index(mu: SimplexPoint, d: int):
    """The first ring containing mu, with its cell; the rings cover the
    whole ambient simplex, so this never fails on valid input.

    Decides ring i exactly as ``simplicial_cover_membership(mu, i, d)``
    does, from one ranking of the atoms: the mass of the j heaviest atoms
    is the j-th prefix sum of the ranked weights."""
    if not in_simplex(mu, d):
        raise ValueError("point lies outside the ambient simplex")
    ranked = mu.ranked()
    kept = [Fraction(0)]
    for _, w in ranked:
        kept.append(kept[-1] + w)
    top = len(ranked)
    for i in range(d + 1):
        if not 2 * (1 - kept[min(i + 1, top)]) < Fraction(1, 3 * 10**i):
            continue
        if i > 0 and not 2 * (1 - kept[min(i, top)]) > Fraction(5, 2 * 10**i):
            continue
        return i, tuple(sorted(a for a, _ in ranked[: i + 1]))
    raise AssertionError(f"cover property violated for {mu!r} at d={d}")


def cell_distance(mu: SimplexPoint, cell) -> Fraction:
    """l1 distance from mu to the closed cell of points supported on the
    given atoms: 2 (1 - mass inside the cell)."""
    cell_set = set(cell)
    kept = sum((w for a, w in mu.entries if a in cell_set), Fraction(0))
    return 2 * (1 - kept)
