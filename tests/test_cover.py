import itertools
import random

import pytest

from shiftdim import cover
from shiftdim.cover import (
    _descriptor,
    _past_text,
    _past_words,
    build_cover_graph,
    check_intertwining,
    isolated_orbit_window,
    isolated_state_check,
    past_set,
    special_match_report,
)
from shiftdim.errors import InvalidSpec
from shiftdim.pipeline import _cover_certificate, run_cover
from shiftdim.special import left_special_words
from shiftdim.words import (
    Alphabet,
    SFTSpec,
    SubstitutionSpec,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    thue_morse_spec,
)

from .oracles import (
    cover_class,
    cover_key,
    cover_rows_oracle,
    descriptor_oracle,
    orbit_window_oracle,
    past_stabilized_oracle,
    predecessors_oracle,
    shift_map_oracle,
)
from .test_amenability import random_branching_system
from .test_words import RANDOM_RULES, TRIB_RULES


def test_past_set_full_shift(full2):
    ps = past_set(full2, "00", 1, 4)
    assert sorted(ps.words) == ["0", "1"]
    assert ps.stabilized


def test_past_set_fibonacci(fib):
    # 000 is not a factor, 100 is
    ps = past_set(fib, "00", 1, 4)
    assert sorted(ps.words) == ["1"]


def test_past_set_golden_mean(golden):
    ps = past_set(golden, "1", 1, 3)
    assert sorted(ps.words) == ["0"]


def test_past_set_monotone_in_lookahead(fib):
    w = "010"
    prev = None
    for m in range(3, 9):
        words = past_set(fib, w, 3, m).words
        if prev is not None:
            assert words <= prev
        prev = words


def test_full_shift_cover_is_de_bruijn(full2):
    graph = build_cover_graph(full2, 3, 3)
    assert graph.num_states == 8
    prefixes = [graph.pi(s) for s in range(8)]
    assert sorted(prefixes) == sorted("".join(w) for w in itertools.product("01", repeat=3))
    edges = {
        (graph.pi(s), graph.pi(t))
        for s in range(8)
        for t in graph.succ[s]
    }
    expected = {(u, v) for u in prefixes for v in prefixes if u[1:] == v[:2]}
    assert edges == expected
    assert all(len(graph.class_words[s]) >= 1 for s in range(8))


def test_single_orbit_cover(single):
    graph = build_cover_graph(single, 2, 2)
    assert graph.num_states == 1
    assert graph.succ == ((0,),)
    assert graph.system.special_states() == []


def test_fibonacci_cover_special_states(fib):
    graph = build_cover_graph(fib, 6, 6)
    assert len(graph.system.special_states()) == 1
    report = special_match_report(graph)
    assert report.counts_match and report.all_witnessed


def test_full_shift_all_states_special(full2):
    graph = build_cover_graph(full2, 1, 1)
    assert graph.num_states == 2
    assert graph.system.special_states() == [0, 1]


def test_intertwining(fib, full2, single):
    for spec, k, l in [(fib, 2, 2), (full2, 1, 1), (single, 2, 2)]:
        graph = build_cover_graph(spec, k, l)
        assert check_intertwining(graph) == ""


def test_intertwining_exhaustive_medium(fib):
    graph = build_cover_graph(fib, 6, 6)
    assert check_intertwining(graph) == ""


def test_pi_iota_prefix_recovery(fib):
    graph = build_cover_graph(fib, 4, 4)
    for w in graph.stored:
        assert graph.pi(cover_class(graph, w)) == w[:4]


def test_cover_surjective_when_extendable(fib, tm):
    for spec in (fib, tm):
        graph = build_cover_graph(spec, 5, 5)
        assert graph.surjective


def test_fibonacci_class_count_cross_check(fib):
    # independent classification: group stored words by brute-force key
    graph = build_cover_graph(fib, 2, 2, 12)
    lam = graph.lookahead
    lang = set(fib.language(graph.depth))
    keys = set()
    for w in lang:
        tail = w[2 : 2 + lam]
        past = frozenset(
            mu for mu in fib.language(2) if fib.is_factor(mu + tail)
        )
        keys.add((w[:2], past))
    assert graph.num_states == len(keys)


def test_isolated_state_check_fibonacci(fib):
    graph = build_cover_graph(fib, 6, 6)
    special = graph.system.special_states()[0]
    refinements = [(10, 10), (14, 14)]
    assert isolated_state_check(graph, special, refinements)
    for s in range(graph.num_states):
        if s != special:
            assert not isolated_state_check(graph, s, refinements)


def test_isolated_state_check_full_shift(full2):
    graph = build_cover_graph(full2, 3, 3)
    assert not isolated_state_check(graph, 0, [(5, 5), (7, 7)])


def test_isolated_state_check_takes_refinement_horizons(fib):
    # (k, l, horizon) with the canonical horizon k + l refines as (k, l) does
    graph = build_cover_graph(fib, 6, 6)
    for s in range(graph.num_states):
        assert isolated_state_check(graph, s, [(10, 10, 20), (14, 14, 28)]) == (
            isolated_state_check(graph, s, [(10, 10), (14, 14)])
        )


def test_orbit_window(fib):
    graph = build_cover_graph(fib, 60, 6)
    window = isolated_orbit_window(graph)
    assert window
    special = graph.system.special_states()[0]
    # singleton classes only, and connected to the merge state
    for s in window:
        assert len(graph.class_words[s]) == 1
    assert special not in window


def test_orbit_window_matches_class_word_oracle(fib_skew_dad):
    graphs = [fib_skew_dad.graph]
    graphs += [build_cover_graph(make(), k, 6) for make in CENSUS.values() for k in (20, 60)]
    windows = [isolated_orbit_window(graph) for graph in graphs]
    assert windows == [orbit_window_oracle(graph) for graph in graphs]
    assert sum(map(bool, windows)) > len(windows) // 2


def test_horizon_precondition(fib):
    with pytest.raises(InvalidSpec):
        build_cover_graph(fib, 5, 5, 8)  # below k + l


def test_thue_morse_special_states(tm):
    graph = build_cover_graph(tm, 6, 6)
    specials = graph.system.special_states()
    # the count follows the word-level left special count at this depth
    # (it oscillates between 2 and 4 for this substitution)
    assert len(specials) == len(left_special_words(tm, 6))
    assert special_match_report(graph).counts_match


MULTI = Alphabet(("a", "bb", "c10"))


def test_descriptor_matches_oracle_multichar():
    rng = random.Random(4)
    prefixes = [
        "".join(w) for n in range(1, 8) for w in itertools.product(MULTI.chars, repeat=n)
    ]
    prefixes += [
        "".join(rng.choice(MULTI.chars) for _ in range(n))
        for n in range(8, 41)
        for _ in range(60)
    ]
    past = frozenset({"01", "20", "1"})
    decoded_lengths = set()
    for prefix in prefixes:
        label = _descriptor(prefix, len(prefix), _past_text(past, MULTI), MULTI)
        assert label == descriptor_oracle(prefix, past, MULTI), prefix
        decoded_lengths.add(len(MULTI.decode(prefix)))
    # both sides of the 24-character cut are exercised
    assert {23, 24, 25, 26} <= decoded_lengths


def test_alphabet_rejects_empty_symbol():
    with pytest.raises(InvalidSpec):
        Alphabet(("a", ""))


def test_adjacency_text_labels_match_oracle(trib):
    multi_trib = SubstitutionSpec(
        MULTI, {"a": ["a", "bb"], "bb": ["a", "c10"], "c10": ["a"]}
    )
    for spec, k in ((trib, 200), (multi_trib, 40)):
        graph = build_cover_graph(spec, k, 6)
        expected = [
            f"{s}\t{descriptor_oracle(graph.pi(s), graph._keys[s][1], spec.alphabet)}\t-> "
            + " ".join(str(t) for t in graph.succ[s])
            for s in range(graph.num_states)
        ]
        assert graph.to_adjacency_text().splitlines()[1:] == expected


def test_labels_built_on_read(trib, monkeypatch):
    # the cover stage reads no label; the adjacency text reads each once
    calls = []

    def counting(*args):
        calls.append(args)
        return descriptor(*args)

    descriptor = cover._descriptor
    monkeypatch.setattr(cover, "_descriptor", counting)
    graph = run_cover(trib, 200, 6, None)[0]
    assert calls == []
    graph.to_adjacency_text()
    assert len(calls) == graph.num_states


@pytest.mark.parametrize("name", ["fib", "tm", "trib"])
def test_cached_keys_match_uncached_past_words(name, request):
    spec = request.getfixturevalue(name)
    graph = build_cover_graph(spec, 200, 6)
    k, lam = graph.k, graph.lookahead
    for w in graph.stored:
        for word, m in ((w, lam), (w[1:], lam), (w, lam - 1)):
            expected = (word[:k], _past_words(spec, word[k : k + m], graph.l))
            assert cover_key(graph, word, m) == expected


def test_past_words_computed_once_per_tail(trib, monkeypatch):
    calls = []

    def counting(spec, tail, l):
        calls.append((tail, l))
        return _past_words(spec, tail, l)

    monkeypatch.setattr(cover, "_past_words", counting)
    graph = build_cover_graph(trib, 200, 6)
    assert check_intertwining(graph) == ""
    assert len(calls) == len(set(calls))
    # the stored words' tails at the lookahead and one below it, and the
    # shifted words' tails at the lookahead; nothing else
    k, lam = graph.k, graph.lookahead
    tails = {w[k : k + m] for w in graph.stored for m in (lam, lam - 1)}
    tails |= {w[k + 1 : k + 1 + lam] for w in graph.stored}
    assert {tail for tail, _ in calls} == tails


def _substitution(rules):
    return lambda: SubstitutionSpec(Alphabet(tuple(sorted(rules))), rules)


# Fresh presentations: a test that builds a longer top must not leave it
# to the session's shared ones.
PRESENTATIONS = {
    "fib": fibonacci_spec,
    "tm": thue_morse_spec,
    "trib": _substitution(TRIB_RULES),
    **{f"random{i}": _substitution(RANDOM_RULES[i]) for i in range(4)},
}


@pytest.mark.parametrize("name, k, before", [
    pytest.param(name, k, before, id="-".join(str(p) for p in (k, name, before) if p))
    for before in (None, "language", "graph")
    for name in PRESENTATIONS
    for k in (1, 2, 50, 200)
])
def test_row_number_cover_matches_spelled_classification(name, k, before):
    """The graph against the classification spelled out word by word.
    ``before`` builds a longer top first: the language 40 symbols past the
    graph's top, or the graph at 2k, whose certificate and adjacency text
    must then equal a fresh build's."""
    spec = PRESENTATIONS[name]()
    if before == "language":
        spec.language(2 * k + 7 + 40)  # the top of the (k, 6) graph is 2k + 7
    elif before == "graph":
        build_cover_graph(spec, 2 * k, 6)
    graph = build_cover_graph(spec, k, 6)
    if before:
        assert len(spec.top(0)[0]) > graph.depth + 1
    lam, l = graph.lookahead, graph.l
    stored = list(graph.stored)
    assert stored == list(spec.sorted_language(graph.depth))

    def key(word):
        return (word[:k], _past_words(spec, word[k : k + lam], l))

    groups = {}
    for w in stored:
        groups.setdefault(key(w), []).append(w)
    order = sorted(groups, key=lambda kp: (kp[0], sorted(kp[1])))
    assert [(graph.pi(s), graph._keys[s][1]) for s in range(graph.num_states)] == order
    assert [list(words) for words in graph.class_words] == [groups[kp] for kp in order]
    index = {kp: s for s, kp in enumerate(order)}
    edges = [set() for _ in order]
    for w in stored:
        assert cover_class(graph, w) == index[key(w)]
        assert cover_class(graph, w[1:]) == index[key(w[1:])]
        edges[index[key(w)]].add(index[key(w[1:])])
    assert graph.succ == tuple(tuple(sorted(e)) for e in edges)
    assert check_intertwining(graph) == ""
    report = special_match_report(graph)
    assert report.branch_count_at_k == len(left_special_words(spec, k))
    # each witness is the first stored word of its state with two left
    # extensions, and only a state with none has no witness
    longer = spec.language(graph.depth + 1)
    for s, witness in zip(report.special_states, report.witnesses):
        special = [
            w for w in graph.class_words[s]
            if sum(a + w in longer for a in spec.alphabet.chars) >= 2
        ]
        assert witness == (special[0] if special else "")
    if before == "graph":
        fresh_graph, fresh_cert = run_cover(PRESENTATIONS[name](), k, 6, None)
        assert run_cover(spec, k, 6, None)[1].canonical_json() == fresh_cert.canonical_json()
        assert graph.to_adjacency_text() == fresh_graph.to_adjacency_text()


@pytest.mark.parametrize(
    "row, top_len", [(0, None), (1, None), (200, 250), (-1, None)], ids=["0", "1", "200", "-1"]
)
def test_intertwining_fails_on_a_wrong_shift_entry(row, top_len):
    """A shift-map entry pointed at the neighbouring stored word fails the
    intertwining check, which names the row.  Each cover is built on a
    presentation of its own, so its top is exactly depth + 1 long (108
    rows) unless ``top_len`` built a longer one first (251 rows)."""
    spec = fibonacci_spec()
    if top_len:
        spec.top(top_len)
    graph = build_cover_graph(spec, 50, 6)
    assert graph._top.n == (top_len or graph.depth + 1)
    assert check_intertwining(graph) == ""
    row %= len(graph._shift)
    target = graph._shift[row]
    wrong = graph._shift[row] = target + 1 if target + 1 < len(graph.stored) else target - 1
    assert check_intertwining(graph) == (
        f"row {row}: the shift map names stored word {wrong}, not the row's shift"
    )


def test_intertwining_fails_on_a_missing_edge():
    """An edge the shift map implies but ``succ`` lacks fails the check at
    the first row that implies it."""
    graph = build_cover_graph(fibonacci_spec(), 50, 6)
    source, target = graph._classes[0], graph._classes[graph._shift[0]]
    graph.succ = tuple(
        tuple(t for t in ts if t != target) if s == source else ts
        for s, ts in enumerate(graph.succ)
    )
    assert check_intertwining(graph) == f"row 0: no edge from state {source} to state {target}"


def test_cover_retains_less_than_half_the_top():
    """The graph and its top refer to the presentation's texts by
    position: building both keeps less than half a byte per symbol of the
    top's p(n)·n, and never allocates as many bytes as that at once.  The
    count p(n)·n is computed on another presentation, outside the trace."""
    import tracemalloc

    from shiftdim.pipeline import run_cover
    from shiftdim.words import thue_morse_spec

    k = 400
    n = 2 * k + 7  # the top of the k = 400, l = 6 cover
    top_symbols = thue_morse_spec().complexity(n) * n
    spec = thue_morse_spec()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph, cert = run_cover(spec, k, 6, None)
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert cert.passed and len(graph.stored) == spec.complexity(graph.depth)
    assert len(spec.top(0)) == spec.complexity(n)  # the graph built the top
    assert retained < 0.5 * top_symbols
    assert peak < 1.0 * top_symbols


# the census presentations: Fibonacci, Thue-Morse, Tribonacci and the
# seeded primitive substitutions
CENSUS = {
    "fib": fibonacci_spec,
    "tm": thue_morse_spec,
    "trib": _substitution(TRIB_RULES),
    **{f"random{i}": _substitution(rules) for i, rules in enumerate(RANDOM_RULES)},
}
# (k, l, horizon): lookahead 1 (no shorter one), 2, 3 and 5
STABILIZATION_ARENAS = [(1, 1, 2), (2, 1, 3), (3, 2, None), (3, 1, 6)]
SMALL_SHIFTS = {
    "golden": golden_mean_spec,
    "sft": lambda: SFTSpec(Alphabet(("0", "1")), ["11", "000"]),
    "full2": lambda: full_shift_spec(2),
    "full3": lambda: full_shift_spec(3),
}


def test_past_stabilized_matches_two_walk_oracle():
    deeper = [(2, 2, 7), (8, 3, None), (20, 6, None)]
    runs = [(CENSUS, arena) for arena in STABILIZATION_ARENAS + deeper]
    runs += [(SMALL_SHIFTS, arena) for arena in STABILIZATION_ARENAS]
    flags = set()
    for presentations, (k, l, horizon) in runs:
        for name, make in presentations.items():
            graph = build_cover_graph(make(), k, l, horizon)
            assert graph.past_stabilized == past_stabilized_oracle(graph), (name, k, l, horizon)
            flags.add((graph.lookahead == 1, graph.past_stabilized))
    assert flags == {(True, False), (False, False), (False, True)}


def test_cover_build_matches_per_row_oracle(monkeypatch):
    """The row loop's first row of each stored word, its row-to-stored-word
    map (read as ``_shift_map`` receives it), the state keys and classes,
    the successors and the stabilization flag, against the cover spelled
    out row by row.  The census runs at lookaheads 1, 2, 3 and 5 and at
    k = 20, the small shifts at the four stabilization arenas.  Among the
    runs are graphs where neighbouring rows share a stored word, graphs of
    lookahead 1, and graphs where the partition at one less lookahead
    splits a class."""
    owns = []
    shift_map = cover.CoverGraph._shift_map

    def recording(graph, own):
        owns.append(list(own))
        return shift_map(graph, own)

    monkeypatch.setattr(cover.CoverGraph, "_shift_map", recording)
    runs = [(CENSUS, arena) for arena in STABILIZATION_ARENAS + [(20, 6, None)]]
    runs += [(SMALL_SHIFTS, arena) for arena in STABILIZATION_ARENAS]
    seen = set()
    for presentations, arena in runs:
        for name, make in presentations.items():
            graph = build_cover_graph(make(), *arena)
            expected = cover_rows_oracle(graph)
            case = (name, arena)
            assert owns.pop() == expected["own"], case
            assert graph._rows == expected["rows"], case
            assert graph._keys == expected["keys"], case
            assert graph._classes == expected["classes"], case
            assert graph.succ == expected["succ"], case
            assert graph.past_stabilized == expected["stabilized"], case
            if len(graph._rows) < len(graph._top):
                seen.add("rows share a stored word")
            if graph.lookahead == 1:
                seen.add("lookahead 1")
            if expected["splits"]:
                seen.add("the coarse partition splits")
            if expected["stabilized"]:
                seen.add("stabilized")
    assert seen == {
        "rows share a stored word", "lookahead 1", "the coarse partition splits", "stabilized"
    }


def test_flat_state_tables_match_oracles():
    """The per-state tables against their definitions, on the census at
    the stabilization arenas and on random branching systems: a state's
    class size is its number of stored words, the predecessors are the
    successors turned round, the merge states are those with two, and
    every successor and predecessor list is a tuple."""
    systems = []
    for arena in STABILIZATION_ARENAS:
        for name, make in CENSUS.items():
            graph = build_cover_graph(make(), *arena)
            assert graph._sizes == [len(words) for words in graph.class_words], (name, arena)
            systems.append(graph.system)
    rng = random.Random(34)
    systems += [random_branching_system(rng) for _ in range(200)]
    for sys in systems:
        pred = predecessors_oracle(sys.succ)
        assert sys.pred == pred
        assert sys.special_states() == [t for t, ps in enumerate(pred) if len(ps) >= 2]
        assert type(sys.succ) is tuple and type(sys.pred) is tuple
        assert all(type(ts) is tuple for ts in (*sys.succ, *sys.pred))


def _failing_clauses(graph) -> dict:
    """The failing clauses of the cover certificate on ``graph``, name to
    witness."""
    cert = _cover_certificate(graph)
    return {clause.name: clause.witness for clause in cert.clauses if not clause.passed}


def test_cover_certificate_fails_intertwining_on_a_wrong_shift_entry():
    graph = build_cover_graph(fibonacci_spec(), 50, 6)
    assert _failing_clauses(graph) == {}
    graph._shift[50] += 1
    assert _failing_clauses(graph) == {
        "intertwining": "row 50: the shift map names stored word 91, not the row's shift"
    }


def test_cover_certificate_fails_the_special_count():
    # one special state more than left special words of length k
    graph = build_cover_graph(CENSUS["random0"](), 250, 6)
    failing = _failing_clauses(graph)
    assert failing["special-count-matches-branch-count"] == "cover 7 vs words 6"


def test_cover_certificate_names_the_states_without_a_predecessor():
    sft = SFTSpec(Alphabet(("0", "1", "2")), ["02", "12", "22", "20"])
    graph = build_cover_graph(sft, 3, 2)
    assert _failing_clauses(graph) == {"shift-onto-states": "no predecessor for states [8, 9]"}


def test_shift_map_matches_plain_search():
    """Every entry of the shift map against the stored word found by plain
    search, on the census at five depths, each with the top exactly
    ``depth + 1`` long and with a top 37 symbols longer built first, and
    on the small shifts.  A row whose shifted window starts a row reads
    that row's stored word; the others are walked to.  The census has
    both (a text's last window, a repeated occurrence); the small shifts'
    texts are one window each, so all their rows are walked to."""
    runs = [
        (make, (k, 6, None), longer)
        for k in (1, 2, 5, 20, 250)
        for make in CENSUS.values()
        for longer in (0, 37)
    ]
    runs += [(make, arena, 0) for arena in STABILIZATION_ARENAS for make in SMALL_SHIFTS.values()]
    read = {True: 0, False: 0}  # census or not -> rows read off the next start
    walked = {True: 0, False: 0}
    for make, (k, l, horizon), longer in runs:
        spec = make()
        depth = k + (horizon or k + l)
        spec.top(depth + 1 + longer)
        graph = build_cover_graph(spec, k, l, horizon)
        assert graph._top.n == depth + 1 + longer
        assert graph._shift == shift_map_oracle(graph), (spec.describe(), k, l, horizon, longer)
        starts = graph._top.starts
        row_starts = set(starts)
        next_starts = sum(s + 1 in row_starts for s in starts)
        census = make in CENSUS.values()
        read[census] += next_starts
        walked[census] += len(starts) - next_starts
    assert read[True] > walked[True] > 0
    assert read[False] == 0 and walked[False] > 0
