"""Tower covers: clopen bases with disjoint preimage levels covering
everything, at most 2q + 2 towers for q merge states.

The construction sweeps the complement of the merge cone with a growing
base and stacks two towers over each merge state; the verifier then
re-checks recurrence, disjointness, covering and the count bound from
scratch.  Construct-then-verify is mandatory, so the returned cover is
already certified.
"""

from shiftdim import (
    build_cover_graph,
    build_rokhlin_cover,
    cover_special_states,
    extend_tower_base,
    fibonacci_spec,
    verify_rokhlin_cover,
)

graph = build_cover_graph(fibonacci_spec(), 60, 6)
sys = graph.system
specials = cover_special_states(graph)
print(f"arena: {graph.num_states} states, merge states {specials}, "
      f"shortest cycle {sys.min_cycle_length(100)}")

cover = build_rokhlin_cover(sys, 5)
print(f"\ncover of height 5: {len(cover.towers)} towers "
      f"(bound 2q + 2 = {2 * len(specials) + 2})")
for idx, tower in enumerate(cover.towers):
    sizes = [len(level) for level in tower.levels]
    print(f" tower {idx}: base size {len(tower.base)}, level sizes {sizes}")

cert = verify_rokhlin_cover(sys, cover)
print("\nverifier clauses:")
for clause in cert.clauses:
    print(f" {clause.name:28s} {'ok' if clause.passed else 'FAIL'} {clause.witness}")

# the base-extension step can be driven by hand; its hypotheses need both
# sets clear of the merge cone, so carve that out first
cone = set()
level = frozenset(specials)
for _ in range(15):
    cone |= level
    level = sys.preimage(level, 1)
base = cover.towers[0].base - cone
inside = sys.preimage(base, 3) - cone
grown = extend_tower_base(sys, base, inside, 5)
print("\nextension with an already-swept target returns the base unchanged:",
      grown == base)
