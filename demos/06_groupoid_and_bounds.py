"""Orbit-groupoid windows, the cover certificate, and the bound chain.

A window collects triples (x, n, y) with a common forward image inside an
exponent budget.  The cover pulls the skeleton rings of the simplex back
through a finitely supported map and adjoins the special-orbit window;
every restricted element must have its middle coordinate in the support
difference set or both endpoints in the finite orbit bucket.
"""

from fractions import Fraction

from shiftdim.amenability import build_equivariant_map, check_equivariance
from shiftdim.cover import build_cover_graph, isolated_orbit_window
from shiftdim.groupoid import (
    bound_chain,
    build_dad_cover,
    build_window,
    difference_set,
    verify_dad_cover,
)
from shiftdim.rokhlin import build_rokhlin_cover
from shiftdim.towers import build_phase_pairs, verify_tower_pairs
from shiftdim.words import fibonacci_spec

print("== difference sets ==")
print(" S = {0..4}  ->  F =", difference_set(range(5)))

graph = build_cover_graph(fibonacci_spec(), 981, 6)
sys = graph.system
cover = build_rokhlin_cover(sys, 5)
d, N = 2 * len(cover.towers) - 1, 37
orbit = isolated_orbit_window(graph)
carrier = sys.without_entries_into(orbit)
phase = build_phase_pairs(carrier, d + 1, N)
verify_tower_pairs(carrier, phase)
emap = build_equivariant_map(sys, phase, (-1, 0, 1), N, Fraction(2), orbit)
ecert = check_equivariance(sys, emap, (-1, 0, 1), Fraction(2), orbit)

window = build_window(sys, (-1, 0, 1), 2)
print(f"\n== groupoid window ==\n elements: {len(window)}, "
      f"units included: {window.check_unit_inclusion()}, "
      f"inversion-closed: {window.check_inversion_closure()}")

dad = build_dad_cover(window, emap, orbit, ecert)
cert = verify_dad_cover(window, dad)
print("\n== cover certificate ==")
for clause in cert.clauses:
    print(f" {clause.name:44s} {'ok' if clause.passed else 'FAIL'}")

print("\n== closed-form bound chain ==")
print(" q  towers tower-dim  map-dim  groupoid  algebra")
for q in range(4):
    rep = bound_chain(q, 0)
    print(f" {q}  {rep.rokhlin:>6} {rep.tower:>9} {rep.amenability:>8} "
          f"{rep.dad:>9} {rep.nuclear:>8}")
