"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Everything here is an exact comparison; tolerances appear only as the
rational bounds fixed by the statements themselves.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from shiftdim.amenability import (
    build_equivariant_map,
    check_equivariance,
    project_finite_support,
)
from shiftdim.certificates import Certificate
from shiftdim.cover import (
    build_cover_graph,
    check_intertwining,
    isolated_orbit_window,
    isolated_state_check,
    special_match_report,
)
from shiftdim.groupoid import bound_chain, difference_set
from shiftdim.pipeline import PipelineParams, recheck_certificate, run_certify, run_dad
from shiftdim.rokhlin import build_rokhlin_cover, verify_rokhlin_cover
from shiftdim.simplex import SimplexPoint, cover_index, skeleton_distance
from shiftdim.special import left_special_count, sp_estimate
from shiftdim.towers import (
    attach_shifted_pairs,
    build_phase_pairs,
    pairs_from_rokhlin,
    verify_tower_pairs,
)
from shiftdim.words import (
    check_extendability,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    thue_morse_spec,
)

from .oracles import (
    partition_failure_oracle,
    sliding_factors,
    substitution_factors_oracle,
    substitution_image,
)
from .test_simplex import random_point, skeleton_distance_oracle

FIB_RULES = {"0": "01", "1": "0"}
TM_RULES = {"0": "01", "1": "10"}


def report(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def big():
    """The deep pipeline: graph at prefix depth 6800 (main cycle 6765),
    height-5 tower cover, staggered-phase pairs, map at resolution 721."""
    spec = fibonacci_spec()
    graph = build_cover_graph(spec, 6800, 6)
    sys = graph.system
    specials = sys.special_states()
    cover = build_rokhlin_cover(sys, 5)
    d = 2 * len(cover.towers) - 1
    N = 721
    orbit = isolated_orbit_window(graph)
    carrier = sys.without_entries_into(orbit)
    tps = build_phase_pairs(carrier, d + 1, N)
    pair_cert = verify_tower_pairs(carrier, tps)
    emap = build_equivariant_map(sys, tps, (-1, 0, 1), N, Fraction(1, 10), orbit)
    eq_cert = check_equivariance(sys, emap, (-1, 0, 1), Fraction(1, 10), orbit)
    return {
        "spec": spec,
        "graph": graph,
        "sys": sys,
        "specials": specials,
        "cover": cover,
        "d": d,
        "N": N,
        "orbit": orbit,
        "tps": tps,
        "pair_cert": pair_cert,
        "emap": emap,
        "eq_cert": eq_cert,
    }


def test_criterion_01_fibonacci_complexity_exact():
    spec = fibonacci_spec()
    start = time.monotonic()
    values = [spec.complexity(n) for n in range(1, 201)]
    # independent oracle: slide windows over an explicit iterate
    text = substitution_image(FIB_RULES, "0", 17)
    next_text = substitution_image(FIB_RULES, "0", 18)
    for n in range(1, 201):
        expected = sliding_factors(text, n)
        assert sliding_factors(next_text, n) == expected  # stabilized
        assert values[n - 1] == len(expected) == n + 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"p(n) = n+1 for n <= 200, exact integers, {elapsed:.2f}s")


def test_criterion_02_thue_morse_against_naive_oracle():
    spec = thue_morse_spec()
    for n in range(1, 31):
        oracle = substitution_factors_oracle(TM_RULES, n)
        assert spec.complexity(n) == len(oracle)
        assert set(spec.language(n)) == oracle
    report(2, "factor counts equal the naive enumeration for n <= 30")


def test_criterion_03_left_special_finiteness():
    spec = fibonacci_spec()
    for n in range(1, 201):
        assert left_special_count(spec, n) == 1
    rep = sp_estimate(spec, 20)
    assert rep.d_hat == Fraction(21, 20)
    assert rep.bound == 3  # ceil(2 * 21/20)
    assert rep.branch_lower == 1 <= rep.bound
    full = sp_estimate(full_shift_spec(2), 10)
    assert full.superlinear_warning
    report(3, "count 1 at every depth <= 200; 1 <= ceil(2*21/20) = 3; "
              "full shift flagged superlinear")


def test_criterion_04_counting_step():
    specs = [fibonacci_spec(), thue_morse_spec(), golden_mean_spec()]
    for spec in specs:
        assert check_extendability(spec, 12)
        for m in range(1, 101):
            assert left_special_count(spec, m) <= spec.complexity(m + 1) - spec.complexity(m)
    report(4, "|LS(m)| <= p(m+1) - p(m) for m <= 100 on all three presentations")


def test_criterion_05_cover_correctness():
    full2 = full_shift_spec(2)
    gf = build_cover_graph(full2, 3, 3)
    assert gf.num_states == 8
    prefixes = [gf.pi(s) for s in range(8)]
    assert sorted(prefixes) == ["".join(w) for w in itertools.product("01", repeat=3)]
    edges = {(gf.pi(s), gf.pi(t)) for s in range(8) for t in gf.succ[s]}
    assert edges == {(u, v) for u in prefixes for v in prefixes if u[1:] == v[:2]}
    assert check_intertwining(gf) == ""
    fib = fibonacci_spec()
    g = build_cover_graph(fib, 6, 6)
    match = special_match_report(g)
    assert len(match.special_states) == 1
    assert match.counts_match and match.all_witnessed
    assert check_intertwining(g) == ""
    report(5, "full-shift (3,3) graph is the 8-state edge graph; "
              "one special state at (6,6) matching the word count; intertwining exact")


def test_criterion_06_isolation_across_refinements():
    fib = fibonacci_spec()
    g = build_cover_graph(fib, 6, 6)
    special = g.system.special_states()[0]
    refinements = [(10, 10), (14, 14)]
    assert isolated_state_check(g, special, refinements)
    non_special = [s for s in range(g.num_states) if s != special]
    assert all(not isolated_state_check(g, s, refinements) for s in non_special)
    report(6, "special state keeps a unique single-cored marked class "
              "through (6,6)->(10,10)->(14,14); every other state does not")


def test_criterion_07_tower_cover_construction():
    fib = fibonacci_spec()
    graph = build_cover_graph(fib, 60, 6)
    sys = graph.system
    specials = sys.special_states()
    q = len(specials)
    start = time.monotonic()
    cover = build_rokhlin_cover(sys, 5)
    cert = verify_rokhlin_cover(sys, cover)
    elapsed = time.monotonic() - start
    assert q == 1
    assert len(cover.towers) <= 2 * q + 2
    assert cert.passed, cert.first_failure()
    assert elapsed < 60.0
    report(7, f"{len(cover.towers)} towers of height 5 at depth 60 (q=1), "
              f"verifier green in {elapsed:.2f}s")


def test_criterion_08_tower_pairs():
    fib = fibonacci_spec()
    graph = build_cover_graph(fib, 60, 6)
    sys = graph.system
    cover = build_rokhlin_cover(sys, 5)
    tps = pairs_from_rokhlin(cover, [-1, 0, 1])
    assert tps.M == 3 and tps.height == 5
    attach_shifted_pairs(tps, sys)
    cert = verify_tower_pairs(sys, tps)
    assert cert.passed, cert.first_failure()
    kinds = cert.params["witness_kinds"]
    assert int(kinds["original"]) > 0 and int(kinds["shifted"]) > 0
    chrom = next(c for c in cert.clauses if c.name == "(3)-chromatic-bound")
    assert chrom.passed  # color count <= 2 * tower count
    report(8, f"M=3, height=5 exact; five clauses green; witness kinds "
              f"{kinds['original']}/{kinds['shifted']}; colors <= {2 * len(cover.towers)}")


def test_criterion_09_partition_fuzz():
    from shiftdim.amenability import build_B_partition

    rng = random.Random(2024)
    for _ in range(1000):
        e_max = rng.randint(1, 3)
        E = sorted(rng.sample(range(-e_max, e_max + 1), rng.randint(1, 2 * e_max)))
        S = sorted(rng.sample(range(0, 16), rng.randint(1, 10)))
        N = rng.randint(1, 5)
        part = build_B_partition(S, E, N)
        assert partition_failure_oracle(part) == "", (S, E, N)
    report(9, "1000 random integer partitions: blocks tile the window and "
              "window shifts move levels by at most one, exactly")


def test_criterion_10_equivariant_map(big):
    d, N = big["d"], big["N"]
    emap, cert = big["emap"], big["eq_cert"]
    assert big["pair_cert"].passed
    assert d == 7 and N == 721
    bound = Fraction((d + 1) * (d + 2), N)
    assert bound < Fraction(1, 10)
    for point in emap.assignment:
        assert sum((w for _, w in point.entries), Fraction(0)) == 1
        assert len(point.entries) <= d + 1
    assert emap.epsilon_achieved <= bound
    assert cert.passed, cert.first_failure()
    exc = int(cert.params["exceptional_edges"])
    assert exc <= 2 * len(big["specials"])
    report(10, f"deviation {emap.epsilon_achieved} <= 72/721 < 1/10 over "
               f"{cert.params['edges']} window edges ({exc} orbit-entry edges "
               f"confined to the declared window)")


def test_criterion_11_projection_formula(big):
    rng = random.Random(77)
    from shiftdim.amenability import EquivariantMap

    checked = 0
    for _ in range(1000):
        denom = rng.choice([24, 36, 60])
        atoms = rng.sample(range(-9, 10), 5)
        cuts = sorted(rng.sample(range(1, denom), 4))
        weights = [Fraction(b - a, denom) for a, b in zip([0] + cuts, cuts + [denom])]
        point = SimplexPoint.from_entries(zip(atoms, weights))
        emap = EquivariantMap(
            assignment=(point,),
            window_set=(0,),
            resolution=1,
            d=4,
            epsilon_achieved=Fraction(0),
            support_window=tuple(sorted(atoms)),
        )
        keep = set(rng.sample(atoms, rng.randint(3, 5)))
        kept = sum((w for a, w in point.entries if a in keep), Fraction(0))
        if kept == 0:
            continue
        projected, worst = project_finite_support(emap, keep, 2 * (1 - kept) + Fraction(1, 99))
        assert Fraction(*point.l1(projected.assignment[0])) == 2 * (1 - kept) == worst
        checked += 1
    assert checked > 900
    # equivariance survives projection at the adjusted bound on the pipeline map
    emap = big["emap"]
    projected, moved = project_finite_support(emap, emap.support_window, Fraction(1, 2))
    assert moved == 0
    cert = check_equivariance(
        big["sys"], projected, (-1, 0, 1), Fraction(1, 10), big["orbit"]
    )
    assert cert.passed
    report(11, f"{checked} random projections match 2x(1 - kept mass) exactly; "
               "pipeline map unchanged by projecting to its own support")


def test_criterion_12_simplex_geometry():
    rng = random.Random(4242)
    for _ in range(1000):
        mu = random_point(rng)
        for size in range(1, 7):
            assert skeleton_distance(mu, size) == skeleton_distance_oracle(mu, size)
    for _ in range(1000):
        d = rng.randint(0, 5)
        mu = random_point(rng, max_atoms=d + 1)
        ring, cell = cover_index(mu, d)
        assert 0 <= ring <= d and len(cell) == ring + 1
    # the sampled points have no atom heavier than 0.54, so none is in
    # ring 0 and ring 1 is the first ring containing them
    members = []
    while len(members) < 1000:
        cell = tuple(sorted(rng.sample(range(-9, 10), 2)))
        main = Fraction(rng.randint(46, 54), 100)
        spill = Fraction(1, rng.choice([80, 100, 140]))
        extra = rng.choice([a for a in range(-9, 10) if a not in cell])
        mu = SimplexPoint.from_entries(
            {cell[0]: main, cell[1]: 1 - main - spill, extra: spill}.items()
        )
        ring, got = cover_index(mu, 5)
        if ring == 1:
            members.append((got, mu))
    separated = 0
    for (ca, mu), (cb, nu) in zip(members, members[1:]):
        if ca != cb:
            assert Fraction(*mu.l1(nu)) >= Fraction(1, 30)
            separated += 1
    assert separated > 100
    report(12, f"skeleton distances match subset enumeration on 1000 points; "
               f"ring cover total; {separated} cross-cell pairs all >= 1/30 apart")


def test_criterion_13_groupoid_window(big):
    assert difference_set(range(5)) == tuple(range(-4, 5))
    graph, sys, emap, orbit = big["graph"], big["sys"], big["emap"], big["orbit"]
    _, cert = run_dad(graph, emap, orbit, (-1, 0, 1), 2, Fraction(1, 10))
    assert cert.passed, cert.first_failure()
    # micro run at the genuine radius for ambient dimension zero
    from .test_groupoid import test_dad_micro_genuine_epsilon

    test_dad_micro_genuine_epsilon()
    report(13, "difference set of {0..4} is {-4..4}; pipeline window elements "
               "split into the two finiteness cases; micro run at radius 1/3 green")


def test_criterion_14_bound_chain():
    assert bound_chain(1, 0).as_tuple() == (3, 7, 7, 7, 6)
    assert bound_chain(0, 0).as_tuple() == (1, 3, 3, 3, 6)
    assert bound_chain(0, 3).as_tuple() == (1, 3, 3, 3, 96)
    assert bound_chain(2, 0).as_tuple() == (5, 11, 11, 11, 6)
    report(14, "closed-form bounds (3,7,7,7,6) at q=1 and the q=0/q=2 rows, exact")


def test_criterion_15_determinism(tmp_path):
    config = "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 0\n"
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        params = PipelineParams(
            config_text=config,
            out_dir=str(out),
            horizon=16,
            depth=250,
            past_len=6,
            height=5,
            window_set=(-1, 0, 1),
            big_n=30,
            epsilon=Fraction(5, 2),
            exponent_bound=2,
        )
        certs, overall = run_certify(params)
        assert overall == "pass"
        blob = {}
        for name in certs:
            path = out / f"{name}.json"
            blob[name] = path.read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    for name, raw in outputs[0].items():
        cert = Certificate.from_json(raw.decode())
        ok, why = recheck_certificate(cert, str(tmp_path / "a"))
        assert ok, f"{name}: {why}"
    report(15, "two chain runs byte-identical; every emitted certificate, "
               "the chain included, re-checked standalone from its stored witnesses")
