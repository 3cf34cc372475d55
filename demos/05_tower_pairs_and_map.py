"""From tower covers to window-equivariant simplex maps, exactly.

Two constructions are shown: the two-pairs-per-tower conversion (margins
on one side, enough for one-sided windows and for the window {-1,0,1}),
and the staggered-phase pairs used for symmetric margins at scale.  The
map sends each state to a rational probability vector; the deviation
along every window edge is measured with exact arithmetic and compared to
the (d+1)(d+2)/N bound.
"""

from fractions import Fraction

from shiftdim.amenability import build_equivariant_map, check_equivariance
from shiftdim.cover import build_cover_graph, isolated_orbit_window
from shiftdim.rokhlin import build_rokhlin_cover
from shiftdim.towers import (
    attach_shifted_pairs,
    build_phase_pairs,
    pairs_from_rokhlin,
    verify_tower_pairs,
)
from shiftdim.words import fibonacci_spec

graph = build_cover_graph(fibonacci_spec(), 981, 6)
sys = graph.system
cover = build_rokhlin_cover(sys, 5)
print(f"arena: {graph.num_states} states, {len(cover.towers)} towers, "
      f"cycle {sys.min_cycle_length(2000)}")

print("\n== two-pairs-per-tower conversion for E = {-1, 0, 1} ==")
tps = pairs_from_rokhlin(cover, [-1, 0, 1])
attach_shifted_pairs(tps, sys)
cert = verify_tower_pairs(sys, tps)
print(f" M = {tps.M}, exponent set 0..{tps.height - 1}, verdict {cert.verdict}")
print(" witness kinds:", cert.params["witness_kinds"])

print("\n== staggered-phase pairs and the map ==")
d = 2 * len(cover.towers) - 1
N = 37
orbit = isolated_orbit_window(graph)
carrier = sys.without_entries_into(orbit)
phase = build_phase_pairs(carrier, d + 1, list(range(-N, N + 1)))
print(f" {len(phase.pairs)} single-state bases, exponent interval 0..{phase.height - 1}")
pcert = verify_tower_pairs(carrier, phase)
print(" pair clauses verdict:", pcert.verdict)

emap = build_equivariant_map(sys, phase, (-1, 0, 1), N, Fraction(2), orbit)
bound = Fraction((d + 1) * (d + 2), N)
print(f"\n d = {d}, N = {N}: measured deviation {emap.epsilon_achieved} "
      f"<= bound {bound} = {float(bound):.4f}")
sample = emap.point(0)
print(" a sample image vector:",
      {a: f"{w.numerator}/{w.denominator}" for a, w in sample.entries})

ecert = check_equivariance(sys, emap, (-1, 0, 1), Fraction(2), orbit)
for clause in ecert.clauses:
    print(f" {clause.name:44s} {'ok' if clause.passed else 'FAIL'}")
print(" orbit-entry edges in the exception bucket:",
      ecert.params["exceptional_edges"])
