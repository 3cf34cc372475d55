"""Finite cover graphs: classes of (prefix, past) data with shift edges.

The graph of the full shift reproduces the plain edge graph on length-3
words; the Sturmian graph carries exactly one merge state (two shift
preimages) whose class traces the unique left special point, plus a short
handle of single-word classes approximating its discrete orbit.
"""

from shiftdim.cover import (
    build_cover_graph,
    check_intertwining,
    isolated_orbit_window,
    isolated_state_check,
    past_set,
    special_match_report,
)
from shiftdim.words import fibonacci_spec, full_shift_spec

full2 = full_shift_spec(2)
gf = build_cover_graph(full2, 3, 3)
print("== full shift at (k, l) = (3, 3) ==")
print(f" states: {gf.num_states}, edges: {sum(len(s) for s in gf.succ)}")
print(" every state is a merge state:", len(gf.system.special_states()) == gf.num_states)

fib = fibonacci_spec()
print("\n== pasts at finite lookahead ==")
ps = past_set(fib, "00", 1, 4)
print(" length-1 pasts of '00' in the Sturmian language:", sorted(ps.words))

g = build_cover_graph(fib, 6, 6)
print("\n== fibonacci at (6, 6) ==")
print(f" states: {g.num_states}, shift onto states: {g.surjective}")
match = special_match_report(g)
print(f" merge states: {list(match.special_states)} "
      f"(word-level count {match.branch_count_at_k}, matching: {match.counts_match})")
print(" intertwining of word shifts and class edges:", check_intertwining(g))

special = match.special_states[0]
print("\n== isolation across refinements ==")
print(" special state keeps its marked singleton class:",
      isolated_state_check(g, special, [(10, 10), (14, 14)]))
other = (special + 1) % g.num_states
print(" a perfect-part state does not:",
      not isolated_state_check(g, other, [(10, 10), (14, 14)]))

deep = build_cover_graph(fib, 60, 6)
window = isolated_orbit_window(deep)
print("\n== the orbit handle at depth 60 ==")
print(f" states: {deep.num_states}, single-word orbit classes: {len(window)}")
print(" adjacency excerpt:")
for line in deep.to_adjacency_text().splitlines()[:5]:
    print("  " + line)
