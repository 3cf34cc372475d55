"""Exact geometry of finitely supported probability vectors on the integers.

A point is stored as its atoms in increasing order and one positive
integer numerator per atom, with gcd 1; the denominator is the sum of the
numerators, so every stored point is a probability vector by
construction.  The metric is l1 and the translation action shifts
atoms.  Skeleton distances (to the sets of points with support of
bounded size) have the closed form 2 (1 - mass of the heaviest atoms).
Every comparison, such as a ring radius 1/(3*10^i) against such a
distance, is decided in integers by cross-multiplication; a ``Fraction``
is built only for values handed out of the module.  No floats anywhere
in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, lcm


@dataclass(frozen=True)
class SimplexPoint:
    """Finitely supported rational probability vector on the integers: the
    weight of ``atoms[j]`` is ``nums[j] / den`` with ``den = sum(nums)``."""

    atoms: tuple[int, ...]  # strictly increasing
    nums: tuple[int, ...]  # positive, gcd 1
    den: int = field(init=False, repr=False, compare=False)
    _by_atom: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.atoms or len(self.atoms) != len(self.nums):
            raise ValueError("a point needs one numerator per atom, and at least one atom")
        if any(a >= b for a, b in zip(self.atoms, self.atoms[1:])):
            raise ValueError("atoms must be sorted and distinct")
        if min(self.nums) <= 0:
            raise ValueError("weights must be positive")
        if gcd(*self.nums) != 1:
            raise ValueError("numerators must have gcd 1")
        object.__setattr__(self, "den", sum(self.nums))
        object.__setattr__(self, "_by_atom", dict(zip(self.atoms, self.nums)))

    @classmethod
    def from_masses(cls, masses: dict[int, int]) -> "SimplexPoint":
        """The point proportional to positive integer masses keyed by atom."""
        atoms = sorted(masses)
        nums = [masses[a] for a in atoms]
        g = gcd(*nums) or 1
        return cls(tuple(atoms), tuple(x // g for x in nums))

    @classmethod
    def from_entries(cls, entries) -> "SimplexPoint":
        """The point with the given ``(atom, weight)`` pairs, in any order;
        the atoms must be distinct and the weights positive rationals
        summing to exactly 1.  A ``"p/q"`` weight in ASCII digits is read in
        integers (q = 0 raises ValueError), any other weight by
        ``Fraction``."""
        rows = []
        for atom, weight in entries:
            atom = int(atom)
            if isinstance(weight, str):
                p, _, q = weight.partition("/")
                if p.isascii() and p.isdigit() and q.isascii() and q.isdigit():
                    num, den = int(p), int(q)
                    if den == 0:
                        raise ValueError(f"weight {weight!r} has a zero denominator")
                    rows.append((atom, num, den))
                    continue
            weight = Fraction(weight)
            rows.append((atom, weight.numerator, weight.denominator))
        rows.sort()
        if any(a == b for (a, _, _), (b, _, _) in zip(rows, rows[1:])):
            raise ValueError("atoms must be distinct")
        if any(p <= 0 for _, p, _ in rows):
            raise ValueError("weights must be positive")
        den = lcm(*(q for _, _, q in rows))
        nums = [p * (den // q) for _, p, q in rows]
        if sum(nums) != den:
            raise ValueError("weights must sum to exactly 1")
        g = gcd(*nums)
        atoms = tuple(a for a, _, _ in rows)
        return cls._unchecked(atoms, tuple(x // g for x in nums), den // g)

    @classmethod
    def _unchecked(cls, atoms: tuple, nums: tuple, den: int) -> "SimplexPoint":
        """The point of sorted distinct ``atoms`` and positive ``nums`` with
        gcd 1 and sum ``den``, as the caller has checked; nothing is checked."""
        point = object.__new__(cls)
        object.__setattr__(point, "atoms", atoms)
        object.__setattr__(point, "nums", nums)
        object.__setattr__(point, "den", den)
        object.__setattr__(point, "_by_atom", dict(zip(atoms, nums)))
        return point

    @property
    def entries(self) -> tuple[tuple[int, Fraction], ...]:
        """Read-only view: ``(atom, weight)`` pairs in atom order."""
        return tuple((a, Fraction(x, self.den)) for a, x in zip(self.atoms, self.nums))

    def shift(self, n: int) -> "SimplexPoint":
        """Translation by the shift: mass at atom a moves to a - n, so the
        image of a point under n forward steps matches the shifted map."""
        return SimplexPoint(tuple(a - n for a in self.atoms), self.nums)

    def l1(self, other: "SimplexPoint", n: int = 0) -> tuple[int, int]:
        """l1 distance from this point to ``other.shift(n)``, read off the
        atoms without building the shifted point, as ``(numerator,
        denominator)`` over the lcm of the two denominators (not reduced)."""
        g = gcd(self.den, other.den)
        mine_scale, other_scale = other.den // g, self.den // g
        mine = self._by_atom
        total = matched = 0
        for a, y in zip(other.atoms, other.nums):
            x = mine.get(a - n)
            if x is None:
                total += y * other_scale
            else:
                total += abs(x * mine_scale - y * other_scale)
                matched += x
        # the atoms of this point that ``other`` misses carry the rest
        return total + (self.den - matched) * mine_scale, self.den * mine_scale

    def ranked(self) -> list[tuple[int, int]]:
        """``(numerator, atom)`` pairs, heaviest first; ties broken by
        integer order."""
        return sorted(zip(self.nums, self.atoms), key=lambda e: (-e[0], e[1]))


def skeleton_distance(mu: SimplexPoint, size: int):
    """l1 distance from mu to the points supported on at most ``size``
    atoms: 2 (1 - mass of the ``size`` heaviest atoms); +inf against the
    empty skeleton (size 0)."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return inf
    kept = sum(x for x, _ in mu.ranked()[:size])
    return Fraction(2 * (mu.den - kept), mu.den)


def in_simplex(mu: SimplexPoint, d: int) -> bool:
    return len(mu.atoms) <= d + 1


def _prefix_masses(ranked, count: int) -> list[int]:
    """Numerator of the mass of the j heaviest atoms, for j = 0..count."""
    kept = [0]
    for x, _ in ranked[:count]:
        kept.append(kept[-1] + x)
    return kept + [kept[-1]] * (count + 1 - len(kept))


def _in_ring(den: int, kept: list[int], i: int) -> bool:
    """Ring i from the prefix masses: the skeleton distance
    2 (den - kept[i+1]) / den is below 1/(3*10^i), and for i > 0
    2 (den - kept[i]) / den exceeds 5/(2*10^i), both cross-multiplied."""
    scale = 10**i
    if not 6 * scale * (den - kept[i + 1]) < den:
        return False
    return i == 0 or 4 * scale * (den - kept[i]) > 5 * den


def cover_index(mu: SimplexPoint, d: int):
    """The first ring of the skeleton-neighborhood cover containing mu,
    with its cell; the rings cover the whole ambient simplex, so this
    never fails on valid input.

    Ring i holds the points within 1/(3*10^i) of the i-skeleton and
    strictly farther than 5/(2*10^i) from the (i-1)-skeleton (the closure
    of the inner ball is excluded by the non-strict comparison).  The
    heaviest i+1 atoms name the cell, with ties broken by atom order.
    Every ring is decided from one ranking of the atoms."""
    if not in_simplex(mu, d):
        raise ValueError("point lies outside the ambient simplex")
    ranked = mu.ranked()
    kept = _prefix_masses(ranked, d + 1)
    for i in range(d + 1):
        if _in_ring(mu.den, kept, i):
            return i, tuple(sorted(a for _, a in ranked[: i + 1]))
    raise AssertionError(f"cover property violated for {mu!r} at d={d}")
