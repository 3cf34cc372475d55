"""End-to-end runs producing certificates, and the standalone re-checker.

Each stage echoes the presentation, every parameter and the witnesses
that re-verify its claim without the construction search.  The
re-checker rebuilds the arena (the cover graph a graph-based certificate
names) and the claimed objects from the echo, reruns the verifier and
stamps what it rebuilt through ``_stamp``, as construction does; it
accepts a certificate the recomputation reproduces as the same JSON
value, which is the same canonical text.

``STAGES`` holds each stage's build: the stages and parameters it reads
and the certificates it emits, run by ``run_stages`` for ``run_certify``
and the CLI subcommands.  ``RECORDS`` holds one record per certificate
file: its kind, witnesses, rebuild and ties.  A tie says that one of the
file's echoes equals a value of another file (``chain.json`` included),
as it is or through a named derivation.  ``verify chain.json`` checks
every tie, then re-checks every stage file, the graph-based ones on
``cover.json``'s graph, built once.  ``verify X.json`` re-checks X, then
every tie with X at one end whose other file lies beside it; that file is
read, not re-checked, since it can only make the check fail.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .amenability import EquivariantMap, build_equivariant_map, check_equivariance
from .certificates import Certificate, Clause, same_json
from .config import spec_from_config
from .cover import (
    CoverGraph, build_cover_graph, check_intertwining, isolated_orbit_window, special_match_report,
)
from .errors import ConfigError, DepthInsufficient, InvalidSpec, PeriodicWitness, ShiftDimError
from .groupoid import (
    DadCover, bound_chain, build_dad_cover, build_window, difference_set, verify_dad_cover,
)
from .rokhlin import RokhlinCover, RokhlinTower, build_rokhlin_cover, verify_rokhlin_cover
from .special import sp_estimate
from .systems import aperiodicity_window_check
from .towers import (
    TowerPair, TowerPairSystem, attach_shifted_pairs, build_phase_pairs, normalize_window,
    pairs_from_rokhlin, verify_tower_pairs,
)
from .words import LanguageTable, SubshiftSpec


class PipelineParams(NamedTuple):
    """Everything a chain run needs.  The chain defaults live here alone:
    the CLI passes only the flags it was given."""

    config_text: str
    out_dir: str | None = None
    horizon: int = 20
    depth: int = 24  # special-report depth and cover prefix length default
    past_len: int = 6
    height: int = 5  # tower-cover height
    window_set: tuple[int, ...] = (-1, 0, 1)
    big_n: int = 37
    epsilon: Fraction = Fraction(2)
    exponent_bound: int = 2


def write_file(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


# -- individual stages --------------------------------------------------------


def _at_least(value: int, bound: int, name: str) -> int:
    """``value``, refused as a bad parameter when it is not an ``int`` or
    is below ``bound``."""
    if type(value) is not int:
        raise InvalidSpec(f"{name} {value!r} is not an integer")
    if value < bound:
        raise InvalidSpec(f"{name} {value} must be >= {bound}")
    return value


def run_lang(spec: SubshiftSpec, horizon: int, out_dir: str | None):
    table = LanguageTable.build(spec, _at_least(horizon, 1, "language horizon"))
    clauses = [
        Clause("factorial", table.check_factorial(), ""),
        Clause("monotone", all(a <= b for a, b in zip(table.p, table.p[1:])), ""),
    ]
    cert = Certificate.build(
        kind="language-table",
        params={"spec": spec.describe(), "n_max": horizon, "p": list(table.p)},
        clauses=clauses,
    )
    if out_dir:
        table.write_csv(out_dir, spec.alphabet)
    return table, cert


def run_special(spec: SubshiftSpec, depth: int):
    report = sp_estimate(spec, _at_least(depth, 4, "report depth"))
    clauses = [
        Clause(
            "bound-consistency",
            report.bound_holds(),
            f"branch_upper={report.branch_upper} bound={report.bound}",
        ),
        Clause(
            "superlinear-warning-absent",
            not report.superlinear_warning,
            "growth surrogate exceeded threshold" if report.superlinear_warning else "",
        ),
    ]
    # the report's fields but the warning, which the last clause carries
    params = {"spec": spec.describe(), **report._asdict()}
    del params["superlinear_warning"]
    return report, Certificate.build(kind="special-report", params=params, clauses=clauses)


def run_cover(spec: SubshiftSpec, k: int, l: int, horizon: int | None):
    graph = build_cover_graph(spec, k, l, horizon)
    return graph, _stamp(_cover_certificate(graph), graph)


def _cover_certificate(graph: CoverGraph) -> Certificate:
    """The verifier's certificate on ``graph``, without the arena echo."""
    match = special_match_report(graph)
    unwitnessed = [s for s, w in zip(match.special_states, match.witnesses) if not w]
    orphans = [s for s, p in enumerate(graph.system.pred) if not p]
    broken = check_intertwining(graph)
    clauses = [
        Clause("intertwining", not broken, broken),
        Clause(
            "special-count-matches-branch-count",
            match.counts_match,
            f"cover {len(match.special_states)} vs words {match.branch_count_at_k}",
        ),
        Clause(
            "special-states-witnessed-by-left-special-words",
            match.all_witnessed,
            f"no left special stored word for states {unwitnessed[:5]}" if unwitnessed else "",
        ),
        Clause(
            "shift-onto-states",
            not orphans,
            f"no predecessor for states {orphans[:5]}" if orphans else "",
        ),
    ]
    return Certificate.build(
        kind="cover-graph",
        params={
            "states": graph.num_states,
            "edges": sum(len(s) for s in graph.succ),
            "special_states": list(match.special_states),
            "past_stabilized": graph.past_stabilized,
            "past_sound": graph.past_sound,
            "functional": graph.functional,
        },
        clauses=clauses,
    )


def run_rokhlin(graph: CoverGraph, height: int):
    """Tower cover of height ``height``.  A short cycle of the cover graph
    is a real periodic point only when the presentation has a periodic
    word of at most its length; otherwise it is an artefact of the
    resolution."""
    sys = graph.system
    try:
        cover = build_rokhlin_cover(sys, height)
    except PeriodicWitness as exc:
        if aperiodicity_window_check(graph.spec, exc.length):
            raise DepthInsufficient(
                f"{exc}; the shift has no periodic point of period <= {exc.length}, "
                "so the cycle is an artefact of the resolution"
            ) from exc
        raise PeriodicWitness(
            f"{exc}; the shift has a periodic point of period <= {exc.length}, "
            "so the cycle is a real periodic point",
            exc.length,
        ) from exc
    return cover, _stamp(verify_rokhlin_cover(sys, cover), graph, cover=cover)


def run_towerdim(graph: CoverGraph, cover: RokhlinCover, window_set):
    sys = graph.system
    tps = pairs_from_rokhlin(cover, window_set)
    attach_shifted_pairs(tps, sys)
    return tps, _stamp(verify_tower_pairs(sys, tps), graph, tps=tps, carrier="full")


def run_amen(graph: CoverGraph, cover: RokhlinCover, window_set, big_n: int, epsilon):
    """Equivariant-map stage: staggered-phase pairs sized for the full
    big_n-fold sumset margin, map construction, exact deviation split."""
    sys = graph.system
    d = 2 * len(cover.towers) - 1
    orbit = isolated_orbit_window(graph)
    entry_free = sys.without_entries_into(orbit)
    max_e = max(abs(n) for n in normalize_window(window_set))
    tps = build_phase_pairs(entry_free, d + 1, big_n * max_e)
    pair_cert = _stamp(
        verify_tower_pairs(entry_free, tps), graph, tps=tps, carrier="entry-free"
    )
    emap = build_equivariant_map(sys, tps, window_set, big_n, epsilon, orbit)
    eq_cert = _stamp(
        check_equivariance(sys, emap, window_set, epsilon, orbit),
        graph, emap=emap, tps=tps, orbit=orbit,
    )
    return emap, tps, orbit, pair_cert, eq_cert


def run_dad(
    graph: CoverGraph,
    emap: EquivariantMap,
    orbit,
    window_set,
    exponent_bound: int,
    epsilon,
    out_dir: str | None = None,
):
    sys = graph.system
    window = build_window(sys, window_set, exponent_bound)
    if out_dir:
        write_file(out_dir, "window_elements.txt", window.to_text())
    # build_dad_cover takes a passing equivariance certificate of the map it covers
    eq_cert = check_equivariance(sys, emap, window_set, epsilon, orbit)
    cover = build_dad_cover(window, emap, orbit, eq_cert)
    cert = _stamp(verify_dad_cover(window, cover), graph, cover=cover, emap=emap, epsilon=epsilon)
    return cover, cert


def run_bounds(q: int, dim_x: int):
    report = bound_chain(_at_least(q, 0, "q"), _at_least(dim_x, 0, "dim_x"))
    cert = Certificate.build(
        kind="bounds",
        params=report._asdict(),
        clauses=[
            Clause(
                "monotone-in-q",
                bound_chain(q + 1, dim_x).as_tuple() >= report.as_tuple(),
                "",
            )
        ],
    )
    return report, cert


# -- the chain -------------------------------------------------------------------


class Stage(NamedTuple):
    """One link of the chain.  ``build(params, built)`` reads the fields
    ``reads`` of the run's parameters and the objects of the stages in
    ``needs``, and returns its own object and the certificates ``emits``."""

    needs: tuple[str, ...]
    reads: tuple[str, ...]
    emits: tuple[str, ...]
    build: Callable[[SimpleNamespace, dict], tuple]


def _amen_stage(p: SimpleNamespace, built: dict):
    emap, _, orbit, pair_cert, cert = run_amen(
        built["cover"], built["rokhlin"], p.window_set, p.big_n, p.epsilon
    )
    return (emap, orbit), pair_cert, cert


# In chain order; a stage needs only stages listed before it.
STAGES = {
    "spec": Stage((), ("config_text",), (), lambda p, b: (spec_from_config(p.config_text)[0],)),
    "lang": Stage(
        ("spec",), ("horizon", "out_dir"), ("lang",),
        lambda p, b: run_lang(b["spec"], p.horizon, p.out_dir),
    ),
    "special": Stage(
        ("spec",), ("horizon",), ("special",), lambda p, b: run_special(b["spec"], p.horizon)
    ),
    "cover": Stage(
        ("spec",), ("depth", "past_len"), ("cover",),
        lambda p, b: run_cover(b["spec"], p.depth, p.past_len, None),
    ),
    "rokhlin": Stage(
        ("cover",), ("height",), ("rokhlin",), lambda p, b: run_rokhlin(b["cover"], p.height)
    ),
    "towerdim": Stage(
        ("cover", "rokhlin"), ("window_set",), ("towerdim",),
        lambda p, b: run_towerdim(b["cover"], b["rokhlin"], p.window_set),
    ),
    "amen": Stage(
        ("cover", "rokhlin"), ("window_set", "big_n", "epsilon"), ("amen_pairs", "amen"),
        _amen_stage,
    ),
    "dad": Stage(
        ("cover", "amen"), ("window_set", "exponent_bound", "epsilon", "out_dir"), ("dad",),
        lambda p, b: run_dad(
            b["cover"], *b["amen"], p.window_set, p.exponent_bound, p.epsilon,
            out_dir=p.out_dir,
        ),
    ),
    "bounds": Stage(
        ("cover",), (), ("bounds",),
        lambda p, b: run_bounds(len(b["cover"].system.special_states()), 0),
    ),
}
CERTIFICATES = tuple(name for stage in STAGES.values() for name in stage.emits)


def required_stages(names) -> dict[str, Stage]:
    """The stages ``names`` and every stage they need, in chain order."""
    wanted = set(names)
    for name in reversed(STAGES):
        if name in wanted:
            wanted.update(STAGES[name].needs)
    return {name: stage for name, stage in STAGES.items() if name in wanted}


def run_stages(params: PipelineParams, names) -> dict[str, Certificate]:
    """Run the stages ``names`` and those they need, in chain order, each on
    the fields it ``reads``; return the named stages' certificates by name."""
    built: dict = {}
    certs: dict[str, Certificate] = {}
    for name, stage in required_stages(names).items():
        fields = SimpleNamespace(**{field: getattr(params, field) for field in stage.reads})
        try:
            built[name], *emitted = stage.build(fields, built)
        except ShiftDimError as exc:
            exc.stage = name
            raise
        if name in names:
            certs.update(zip(stage.emits, emitted))
    return certs


def _chain_certificate(params: dict) -> Certificate:
    stages = params["stages"]
    return Certificate.build(
        kind="certify-chain",
        params=params,
        clauses=[
            Clause(f"stage-{name}", stages[name] == "pass", stages[name])
            for name in CERTIFICATES
        ],
    )


def run_certify(params: PipelineParams) -> tuple[dict[str, Certificate], str]:
    """Run the whole chain; returns certificates by stage and the overall
    verdict (worst stage verdict)."""
    certs = run_stages(params, STAGES)
    overall = "pass" if all(cert.passed for cert in certs.values()) else "fail"
    if params.out_dir:
        for name, cert in certs.items():
            write_file(params.out_dir, f"{name}.json", cert.canonical_json())
        # the chain echoes the parameters that stage files tie to
        tied = {tie.other_key for _, tie in TIES if tie.other == "chain"} - {"config"}
        master = _chain_certificate({
            "stages": {name: cert.verdict for name, cert in certs.items()},
            "config": params.config_text,
            **{key: getattr(params, key) for key in tied},
        })
        write_file(params.out_dir, "chain.json", master.canonical_json())
        certs["chain"] = master
    return certs, overall


# -- certificate records and re-checking ----------------------------------------

# The arena echo: a graph-based certificate's cover graph is rebuilt from these.
ARENA = ("spec", "k", "l", "graph_horizon")
# The keys under which cover.json echoes the same values.
COVER_ARENA = ("spec", "k", "l", "horizon")


class Mismatch(Exception):
    """A re-check found a certificate that disagrees with what it refers to."""


class Tie(NamedTuple):
    """A file's echo ``key`` equals ``other_key`` of ``{other}.json``, or ``derive`` of it."""

    key: str
    other: str
    other_key: str
    derive: Callable | None = None

    def check(self, name: str, files: dict) -> None:
        """Raise ``Mismatch`` unless ``{name}.json`` and the other file, whose
        params ``files`` holds by file name, agree; the message shows values
        that hold no object and no list of lists.  A derivation that refuses
        the other file's value fails naming that file and key."""
        echoed, value = files[name].get(self.key), files[self.other].get(self.other_key)
        where = f"{self.other}.json {self.other_key}"
        if self.derive:
            try:
                value = self.derive(value)
            except ValueError as exc:
                raise Mismatch(f"stage {name}: {where}: {exc}")
            where = f"{self.derive.__name__}({where})"
        if echoed != value:
            nested = [v for v in (echoed, value) if type(v) is dict or type(v) is list and any(
                type(m) in (dict, list) for m in v)]
            shown = f" other than {where}" if nested else f" = {echoed!r}, {where} = {value!r}"
            raise Mismatch(f"stage {name}: {name}.json echoes {self.key}{shown}")


class Record(NamedTuple):
    """A certificate file: its ``kind``, its re-check and its ``ties``.  A
    graph-based kind has an ``arena`` echo and ``witnesses``, read off the
    objects its stage built; ``rebuild(graph, params)`` rebuilds them from
    the echo and returns the verifier's certificate and them, and
    construction and re-check both stamp through ``_stamp``.  The readers
    of the ``canonical`` keys make canonical JSON, taken without a copy.
    Any other kind is recomputed by ``rebuild(params, directory, arenas)``."""

    kind: str
    rebuild: Callable
    witnesses: dict = {}
    arena: tuple[str, ...] = ()
    canonical: tuple[str, ...] = ()
    ties: tuple[Tie, ...] = ()

    def recheck(self, params: dict, directory: str | None, arenas: dict) -> Certificate:
        """A graph-based kind on the echoed arena's graph, built once in
        ``arenas``, whose sizes must be ``int``s, as ``true`` equals 1."""
        if not self.arena:
            return self.rebuild(params, directory, arenas)
        echo = [params[key] for key in self.arena]
        for key, size in zip(self.arena[1:], echo[1:]):
            _at_least(size, 1, key)
        arena = json.dumps(echo, sort_keys=True)
        if arena not in arenas:
            arenas[arena] = build_cover_graph(_echoed_spec(params), *echo[1:])
        graph = arenas[arena]
        cert, built = self.rebuild(graph, params)
        return _stamp(cert, graph, **built)


def _stamp(cert: Certificate, graph: CoverGraph, **built) -> Certificate:
    """The verifier's ``cert`` with the arena echo of ``graph`` and the
    witnesses its kind reads off ``built``."""
    record = _BY_KIND[cert.kind]
    objects = SimpleNamespace(**built)
    witnesses = {key: read(objects) for key, read in record.witnesses.items()}
    canonical = {key: witnesses.pop(key) for key in record.canonical}
    echo = zip(record.arena, (graph.spec.describe(), graph.k, graph.l, graph.horizon))
    return cert.with_params({**dict(echo), **witnesses}, canonical)


def _config_from_echo(spec_echo: dict) -> str:
    lines = [f"variant = {spec_echo['variant']}", "alphabet = " + " ".join(spec_echo["alphabet"])]
    if spec_echo["variant"] == "sft":
        lines.append("forbidden = " + ", ".join(spec_echo.get("forbidden", [])))
    if spec_echo["variant"] == "substitution":
        if type(spec_echo["rules"]) is not dict:
            raise ValueError(f"spec rules {spec_echo['rules']!r} are not an object")
        for sym, image in spec_echo["rules"].items():
            lines.append(f"rule.{sym} = {image}")
    return "\n".join(lines) + "\n"


def _echoed_spec(params: dict) -> SubshiftSpec:
    try:
        spec, _ = spec_from_config(_config_from_echo(params["spec"]))
    except ConfigError as exc:
        raise ValueError(f"spec echo: {exc}")
    return spec


def _states(graph: CoverGraph, listed) -> frozenset:
    """The state set a witness lists; a member that is not an ``int`` in
    ``0..num_states-1`` makes it a malformed witness."""
    n = graph.num_states
    bad = [s for s in listed if type(s) is not int or not 0 <= s < n]
    if bad:
        raise ValueError(f"state {bad[0]!r} is not an integer in 0..{n - 1}")
    return frozenset(listed)


def _rebuild_rokhlin(graph: CoverGraph, p: dict):
    sys, height = graph.system, _at_least(p["height"], 1, "tower height")
    # a built cover has height 1, or 3·height below the shortest cycle,
    # which holds at most every state; a taller one is refused unwalked
    if height > graph.num_states:
        raise ValueError(f"tower height {height} is above the {graph.num_states} states")
    towers = (RokhlinTower.from_base(sys, _states(graph, b), height) for b in p["tower_bases"])
    cover = RokhlinCover(height, tuple(towers))
    return verify_rokhlin_cover(sys, cover), {"cover": cover}


def _exponent_range(rng) -> range:
    """The exponents of a ``[0, h-1]`` echo, h >= 1."""
    if len(rng) != 2 or rng[0] != 0 or rng[1] < 0:
        raise ValueError(f"exponent range {rng!r} is not [0, h-1] with h >= 1")
    return range(rng[1] + 1)


def _rebuild_pairs(graph: CoverGraph, p: dict):
    """A pair taller than the state count is refused unwalked, since none
    passes: a Rokhlin or shifted pair has the cover's height, at most the
    state count, and a phase pair is one state on a cycle of its carrier,
    whose preimage levels never become empty and meet again within the
    cycle length."""
    sys, n = graph.system, graph.num_states
    if p["carrier"] == "entry-free":
        sys = sys.without_entries_into(isolated_orbit_window(graph))
    elif p["carrier"] != "full":
        raise ValueError(f"carrier {p['carrier']!r} is neither full nor entry-free")
    pairs = []
    for base, rng, kind, origin in zip(
        p["pair_bases"], p["pair_exponent_ranges"], p["pair_kinds"], p["pair_origins"]
    ):
        if kind not in ("base", "shifted", "phase"):
            raise ValueError(f"pair kind {kind!r} is none of base, shifted and phase")
        if type(origin) is not int or origin < 0:
            raise ValueError(f"pair origin {origin!r} is not a nonnegative integer")
        if len(exponents := _exponent_range(rng)) > n:
            raise ValueError(f"exponent range {rng!r} is taller than the {n} states")
        pairs.append(TowerPair(_states(graph, base), exponents, kind, origin))
    tps = TowerPairSystem(pairs, p["E"], p["d_claimed"])
    return verify_tower_pairs(sys, tps), {"tps": tps, "carrier": p["carrier"]}


def _rebuild_equivariance(graph: CoverGraph, p: dict):
    emap = EquivariantMap.from_jsonable(p["map"])
    if len(emap.assignment) != graph.num_states:
        raise ValueError(f"the map has {len(emap.assignment)} points, not one per state")
    orbit = _states(graph, p["orbit_window"])
    # the phase pairs the map was built on: one per base, over [0, phase_span]
    span = _exponent_range([0, p["phase_span"]])
    bases = p["phase_pair_bases"]
    pairs = [TowerPair(_states(graph, b), span, "phase", j) for j, b in enumerate(bases)]
    tps = TowerPairSystem(pairs, p["E"], len(pairs) - 1)
    E = normalize_window(p["E"])
    cert = check_equivariance(graph.system, emap, E, Fraction(p["epsilon"]), orbit)
    # the map echoes the window and the deviation measured, as construction stamps them
    achieved = Fraction(cert.params["max_regular_deviation"])
    emap = emap._replace(window_set=E, epsilon_achieved=achieved)
    return cert, {"emap": emap, "tps": tps, "orbit": orbit}


def _rebuild_dad(graph: CoverGraph, p: dict):
    """The verifier's certificate on the echoed pieces, with ``F`` and the
    orbit states derived as ``build_dad_cover`` derives them.  ``epsilon``
    must be positive (a chain compares it with its own)."""
    epsilon = Fraction(p["epsilon"])
    if epsilon <= 0:
        raise InvalidSpec(f"epsilon {p['epsilon']} must be positive")
    window = build_window(graph.system, tuple(p["E"]), p["exponent_bound"])
    pieces = tuple(_states(graph, piece) for piece in p["pieces"])
    # a map covered by d + 1 pieces over the window E echoes that d and E
    emap = EquivariantMap.from_jsonable(p["map"])._replace(d=len(pieces) - 1, window_set=window.E)
    cover = DadCover(
        pieces=pieces,
        F=difference_set(emap.support_window),
        orbit_states=isolated_orbit_window(graph) | frozenset(graph.system.special_states()),
    )
    return verify_dad_cover(window, cover), {"cover": cover, "emap": emap, "epsilon": epsilon}


# -- the derivations through which a tie reads the other file's value


def presentation(config) -> dict:
    """The presentation echo of a chain's configuration text."""
    if type(config) is not str:
        raise ValueError(f"{config!r} is not a string")
    try:
        return spec_from_config(config)[0].describe()
    except ConfigError as exc:
        raise Mismatch(f"chain config: {exc}")


def normalized(window_set) -> list[int]:
    if any(type(n) is not int for n in window_set):
        raise ValueError(f"{window_set!r} holds a non-integer")
    return list(normalize_window(window_set))


def span(ranges) -> int | list[int]:
    """The h-1 of every pair's range [0, h-1], or the sorted h-1s if they differ."""
    tops = sorted({_exponent_range(rng)[-1] for rng in ranges})
    return tops[0] if len(tops) == 1 else tops


def covering_dimension(_) -> int:
    return 0  # a subshift is totally disconnected


def _recheck_chain(params: dict, directory: str | None, arenas: dict) -> Certificate:
    """Read every stage file the chain lists from ``directory``, check every
    tie, then that each file records the chain's verdict for it and
    re-checks, the graph-based ones on ``cover.json``'s graph, built once.
    Returns the chain certificate recomputed from its ``stages``."""
    if directory is None:
        raise Mismatch("a certify-chain certificate is re-checked from its directory")
    stages = params["stages"]
    if sorted(stages) != sorted(CERTIFICATES):
        raise Mismatch(f"chain lists stages {sorted(stages)}, not {sorted(CERTIFICATES)}")
    certs = {name: _read_stage(directory, name) for name in CERTIFICATES}
    files = {"chain": params, **{name: cert.params for name, cert in certs.items()}}
    for owner, tie in TIES:
        tie.check(owner, files)
    for name, cert in certs.items():
        if cert.verdict != stages[name]:
            raise Mismatch(f"stage {name}: {name}.json records {cert.verdict}, "
                           f"the chain {stages[name]}")
        ok, why = recheck_certificate(cert, arenas=arenas)
        if not ok:
            raise Mismatch(f"stage {name}: {why}")
    return _chain_certificate(params)


# every graph-based file makes its claim on the graph of cover.json
ON_COVER = tuple(Tie(key, "cover", cover_key) for key, cover_key in zip(ARENA, COVER_ARENA))
PRESENTATION = Tie("spec", "chain", "config", presentation)
PAIRS = {
    "carrier": lambda o: o.carrier,
    "pair_bases": lambda o: [sorted(p.base) for p in o.tps.pairs],
    "pair_kinds": lambda o: [p.kind for p in o.tps.pairs],
    "pair_origins": lambda o: [p.origin for p in o.tps.pairs],
    "pair_exponent_ranges": lambda o: [[p.exponents[0], p.exponents[-1]] for p in o.tps.pairs],
}
# file name -> its record, in chain order: the stage files, then chain.json
RECORDS = {
    "lang": Record("language-table", lambda p, *_: run_lang(
        _echoed_spec(p), p["n_max"], None)[1], ties=(PRESENTATION,)),
    "special": Record("special-report", lambda p, *_: run_special(
        _echoed_spec(p), p["depth"])[1], ties=(PRESENTATION,)),
    "cover": Record(
        "cover-graph", lambda graph, _: (_cover_certificate(graph), {}), arena=COVER_ARENA,
        ties=(PRESENTATION, Tie("k", "chain", "depth"), Tie("l", "chain", "past_len")),
    ),
    "rokhlin": Record(
        "rokhlin-cover", _rebuild_rokhlin,
        {"tower_bases": lambda o: [sorted(t.base) for t in o.cover.towers]},
        ARENA, ties=(*ON_COVER, Tie("height", "chain", "height")),
    ),
    "towerdim": Record("tower-pairs", _rebuild_pairs, PAIRS, ARENA, ties=ON_COVER),
    "amen_pairs": Record("tower-pairs", _rebuild_pairs, PAIRS, ARENA, ties=ON_COVER),
    "amen": Record(
        "equivariance", _rebuild_equivariance,
        {
            "orbit_window": lambda o: sorted(o.orbit),
            "phase_pair_bases": lambda o: [sorted(p.base) for p in o.tps.pairs],
            "phase_span": lambda o: o.tps.height - 1,
            "map": lambda o: o.emap.to_jsonable(),
        },
        ARENA, ("map",), (
            *ON_COVER, Tie("E", "chain", "window_set", normalized),
            Tie("resolution", "chain", "big_n"), Tie("epsilon", "chain", "epsilon"),
            # the map is built on the phase pairs amen_pairs.json lists
            Tie("phase_pair_bases", "amen_pairs", "pair_bases"),
            Tie("phase_span", "amen_pairs", "pair_exponent_ranges", span),
        ),
    ),
    "dad": Record(
        "dad-cover", _rebuild_dad,
        {
            "projection_moved": lambda o: Fraction(0),
            "support": lambda o: list(o.emap.support_window),
            "F": lambda o: list(o.cover.F),
            "pieces": lambda o: [sorted(piece) for piece in o.cover.pieces],
            "orbit_states": lambda o: sorted(o.cover.orbit_states),
            "map": lambda o: o.emap.to_jsonable(),
            "epsilon": lambda o: Fraction(o.epsilon),
        },
        # the dad cover is a cover of the map the amen stage checked
        ARENA, ("map",), (*ON_COVER, Tie("E", "chain", "window_set", normalized),
                          Tie("epsilon", "chain", "epsilon"), Tie("map", "amen", "map")),
    ),
    # the bounds stage reads q, the number of cover special states, and dim_x 0
    "bounds": Record("bounds", lambda p, *_: run_bounds(p["q"], p["dim_x"])[1], ties=(
        Tie("q", "cover", "special_states", len),
        Tie("dim_x", "cover", "spec", covering_dimension),
    )),
    "chain": Record("certify-chain", _recheck_chain),
}
_BY_KIND = {record.kind: record for record in RECORDS.values()}
# every tie, as (the file that declares it, the tie), in chain order
TIES = tuple((name, tie) for name, record in RECORDS.items() for tie in record.ties)


def _read_stage(directory: str, name: str) -> Certificate:
    """``{name}.json`` of ``directory``, a certificate of its record's kind."""
    try:
        with open(os.path.join(directory, f"{name}.json")) as fh:
            cert = Certificate.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise Mismatch(f"stage {name}: cannot read {name}.json: {exc}")
    if cert.kind != RECORDS[name].kind:
        raise Mismatch(f"stage {name}: {name}.json is {cert.kind}, not {RECORDS[name].kind}")
    return cert


def _check_beside(name: str, params: dict, directory: str) -> None:
    """Check every tie with ``{name}.json`` at one end whose other file lies
    in ``directory``, read but not re-checked: it can only make this fail."""
    files = {name: params}
    for owner, tie in TIES:
        if name in (owner, tie.other):
            other = tie.other if owner == name else owner
            if other not in files and os.path.exists(os.path.join(directory, f"{other}.json")):
                files[other] = _read_stage(directory, other).params
            if other in files:
                tie.check(owner, files)


def recheck_certificate(cert: Certificate, directory=None, arenas=None, name=None):
    """Recompute ``cert`` as its kind's record says and accept it when the
    two are the same JSON value, the verdict of comparing their canonical
    texts, and, if ``cert`` is the stage file ``{name}.json`` of
    ``directory``, its ties to the files beside it hold.  ``directory``
    holds a chain's stage files, ``arenas`` the cover graphs built so far.
    An echo the re-check reads that is missing, of the wrong type or out of
    range (a JSON ``Infinity`` for a rational) fails as a missing or
    malformed witness, one that breaks a bound of its stage as a bad
    parameter, naming the bound."""
    record = _BY_KIND.get(cert.kind)
    if record is None:
        return False, f"unknown certificate kind {cert.kind!r}"
    try:
        fresh = record.recheck(cert.params, directory, {} if arenas is None else arenas)
        same = same_json(fresh.to_dict(), cert.to_dict())
        if same and directory is not None and name in CERTIFICATES:
            if RECORDS[name].kind == cert.kind:
                _check_beside(name, cert.params, directory)
    except Mismatch as exc:
        return False, str(exc)
    except KeyError as exc:
        return False, f"missing or malformed witness {exc.args[0]!r}"
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return False, f"missing or malformed witness: {exc}"
    except InvalidSpec as exc:
        return False, f"{exc.outcome}: {exc}"
    if same:
        return True, ""
    # the first key, in sorted order, that only one has or whose JSON values differ
    key = next((key for key in sorted({*fresh.params, *cert.params}) if not (
        key in fresh.params and key in cert.params
        and same_json(fresh.params[key], cert.params[key])
    )), None)
    detail = fresh.first_failure()
    return False, (
        "recomputation differs from stored certificate"
        + (f" at params key {key!r}" if key is not None else "")
        + (f"; failing clause: {detail}" if detail else "")
    )
