"""End-to-end runs producing certificates, and the standalone re-checker.

Each stage echoes the subshift presentation and every parameter into its
certificate together with the witnesses needed to re-verify the claim
without re-running the construction search: tower bases, pair bases and
exponent ranges, the full equivariant map, the cover pieces.  The
re-checker rebuilds the (deterministic) arena and the claimed objects
from the echo, reruns the verifier and stamps the witnesses read off
what it rebuilt through ``_stamp``, as construction does; a certificate
is accepted when the recomputation reproduces it: the same JSON value,
type for type, which is the same canonical text.

Every graph-based certificate, ``cover.json`` included, makes its claim
on one arena: the cover graph its echo of the presentation, k, l and
horizon names.  The re-checker builds that graph once per arena and
stamps the arena echo of the graph it built, not the file's, so a
non-canonical echo fails; a chain builds ``cover.json``'s graph once and
re-checks every graph-based stage file on it.

The dad stage covers the map the amen stage built and checked, as it is.
Its ``support``, ``F`` and ``projection_moved`` echoes derive from that
map and its ``orbit_states`` from the graph; in a chain ``dad.json`` must
echo ``amen.json``'s map.

Two registries define the chain once.  ``KINDS`` says, for every
certificate kind, which witnesses it echoes and how it is re-checked; the
``run_*`` functions stamp their certificates from it and
``recheck_certificate`` looks the kind up there.  ``STAGES`` lists the
stages, the stages and parameters each reads and the certificates it
emits; ``run_certify`` and the CLI subcommands run them through
``run_stages``, and each subcommand's flags are the parameters it reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

from .amenability import EquivariantMap, build_equivariant_map, check_equivariance
from .certificates import Certificate, Clause, same_json
from .config import spec_from_config
from .cover import (
    CoverGraph,
    build_cover_graph,
    check_intertwining,
    isolated_orbit_window,
    special_match_report,
)
from .errors import (
    ConfigError,
    DepthInsufficient,
    InvalidSpec,
    PeriodicWitness,
    ShiftDimError,
)
from .groupoid import (
    DadCover, bound_chain, build_dad_cover, build_window, difference_set, verify_dad_cover,
)
from .rokhlin import RokhlinCover, RokhlinTower, build_rokhlin_cover, verify_rokhlin_cover
from .special import sp_estimate
from .systems import aperiodicity_window_check
from .towers import (
    TowerPair,
    TowerPairSystem,
    attach_shifted_pairs,
    build_phase_pairs,
    normalize_window,
    pairs_from_rokhlin,
    verify_tower_pairs,
)
from .words import LanguageTable, SubshiftSpec


@dataclass
class PipelineParams:
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
        Clause(
            "monotone",
            all(a <= b for a, b in zip(table.p, table.p[1:])),
            "",
        ),
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
    cert = Certificate.build(
        kind="special-report",
        params={
            "spec": spec.describe(),
            "depth": depth,
            "counts": list(report.counts),
            "branch_lower": report.branch_lower,
            "branch_upper": report.branch_upper,
            "stabilized": report.stabilized,
            "d_hat": report.d_hat,
            "bound": report.bound,
        },
        clauses=clauses,
    )
    return report, cert


def run_cover(spec: SubshiftSpec, k: int, l: int, horizon: int | None):
    graph = build_cover_graph(spec, k, l, horizon)
    return graph, _stamp(_cover_certificate(graph), graph)


def _cover_certificate(graph: CoverGraph) -> Certificate:
    """The verifier's certificate on ``graph``, without the arena echo."""
    match = special_match_report(graph)
    unwitnessed = [s for s, w in zip(match.special_states, match.witnesses) if not w]
    orphans = [s for s, p in enumerate(graph.system.pred) if not p]
    clauses = [
        Clause("intertwining", check_intertwining(graph), ""),
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
    margin = list(range(-big_n * max_e, big_n * max_e + 1))
    tps = build_phase_pairs(entry_free, d + 1, margin)
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
        params={
            "q": q,
            "dim_x": dim_x,
            "rokhlin": report.rokhlin,
            "tower": report.tower,
            "amenability": report.amenability,
            "dad": report.dad,
            "nuclear": report.nuclear,
        },
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


@dataclass(frozen=True)
class Stage:
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
        master = _chain_certificate({
            "stages": {name: cert.verdict for name, cert in certs.items()},
            "config": params.config_text,
            **{key: getattr(params, key) for key in CHAIN_ECHOES},
        })
        write_file(params.out_dir, "chain.json", master.canonical_json())
        certs["chain"] = master
    return certs, overall


# -- certificate kinds and standalone re-checking -------------------------------

# The arena echo: a graph-based certificate's cover graph is rebuilt from these.
ARENA = ("spec", "k", "l", "graph_horizon")
# The keys under which cover.json echoes the same values.
COVER_ARENA = ("spec", "k", "l", "horizon")


class Mismatch(Exception):
    """A re-check found a certificate that disagrees with what it refers to."""


@dataclass(frozen=True)
class GraphKind:
    """A certificate kind whose claim lives on a cover graph.

    ``witnesses`` maps each witness key the certificate echoes to how it
    is read off the objects the stage built; ``rebuild(graph, params)``
    rebuilds those objects from the echoed values and returns the
    verifier's certificate with them, named as construction names them.
    Construction and re-check both stamp through ``_stamp``; the readers of
    the ``canonical`` keys make canonical JSON, taken without a copy."""

    witnesses: dict[str, Callable[[SimpleNamespace], object]]
    rebuild: Callable[[CoverGraph, dict], tuple[Certificate, dict]]
    arena: tuple[str, ...] = ARENA
    canonical: tuple[str, ...] = ()

    def echo(self, graph: CoverGraph) -> dict:
        """The arena echo of ``graph``, under this kind's keys."""
        return dict(zip(self.arena, (graph.spec.describe(), graph.k, graph.l, graph.horizon)))

    def __call__(self, params: dict, directory: str | None, arenas: dict) -> Certificate:
        """Rebuild on the echoed arena's graph, built once in ``arenas``;
        its sizes must be ``int``s, as JSON ``true`` equals 1 in Python."""
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
    kind = KINDS[cert.kind]
    objects = SimpleNamespace(**built)
    witnesses = {key: read(objects) for key, read in kind.witnesses.items()}
    canonical = {key: witnesses.pop(key) for key in kind.canonical}
    return cert.with_params({**kind.echo(graph), **witnesses}, canonical)


def _config_from_echo(spec_echo: dict) -> str:
    lines = [f"variant = {spec_echo['variant']}"]
    lines.append("alphabet = " + " ".join(spec_echo["alphabet"]))
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
    sys, height = graph.system, p["height"]
    towers = (RokhlinTower.from_base(sys, _states(graph, b), height) for b in p["tower_bases"])
    cover = RokhlinCover(height, tuple(towers))
    return verify_rokhlin_cover(sys, cover), {"cover": cover}


def _exponent_range(rng) -> range:
    """The exponents of a ``[0, h-1]`` echo, h >= 1."""
    if len(rng) != 2 or rng[0] != 0 or rng[1] < 0:
        raise ValueError(f"exponent range {rng!r} is not [0, h-1] with h >= 1")
    return range(rng[1] + 1)


def _rebuild_pairs(graph: CoverGraph, p: dict):
    sys = graph.system
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
        pairs.append(TowerPair(_states(graph, base), _exponent_range(rng), kind, origin))
    tps = TowerPairSystem(pairs, p["E"], p["d_claimed"])
    return verify_tower_pairs(sys, tps), {"tps": tps, "carrier": p["carrier"]}


def _rebuild_equivariance(graph: CoverGraph, p: dict):
    emap = EquivariantMap.from_jsonable(p["map"])
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
    emap = replace(emap, window_set=E, epsilon_achieved=achieved)
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
    emap = replace(EquivariantMap.from_jsonable(p["map"]), d=len(pieces) - 1, window_set=window.E)
    cover = DadCover(
        pieces=pieces,
        F=difference_set(emap.support_window),
        orbit_states=isolated_orbit_window(graph) | frozenset(graph.system.special_states()),
    )
    return verify_dad_cover(window, cover), {"cover": cover, "emap": emap, "epsilon": epsilon}


# chain parameter -> the (stage, key) under which each stage certificate echoes it
CHAIN_ECHOES = {
    "depth": (("cover", "k"),),
    "past_len": (("cover", "l"),),
    "height": (("rokhlin", "height"),),
    "window_set": (("amen", "E"), ("dad", "E")),
    "big_n": (("amen", "resolution"),),
    "epsilon": (("amen", "epsilon"), ("dad", "epsilon")),
}


def _recheck_chain(params: dict, directory: str | None, arenas: dict) -> Certificate:
    """Re-check every stage file the chain lists, from ``directory``: each
    must record the chain's verdict for it, echo the presentation of the
    chain's configuration and re-check, every graph-based one must echo
    the arena of ``cover.json``, the stages in ``CHAIN_ECHOES`` must echo
    the chain's parameters, ``dad.json`` must echo ``amen.json``'s map,
    ``amen.json`` the phase pairs of ``amen_pairs.json`` and ``bounds.json``
    the q and dim_x the bounds stage reads.  The graph-based files are
    re-checked on one arena, ``cover.json``'s graph, built once.  Returns
    the chain certificate recomputed from its ``stages``."""
    if directory is None:
        raise Mismatch("a certify-chain certificate is re-checked from its directory")
    stages = params["stages"]
    if sorted(stages) != sorted(CERTIFICATES):
        raise Mismatch(f"chain lists stages {sorted(stages)}, not {sorted(CERTIFICATES)}")
    try:
        spec = spec_from_config(params["config"])[0].describe()
    except ConfigError as exc:
        raise Mismatch(f"chain config: {exc}")
    certs = {}
    for name in CERTIFICATES:
        try:
            with open(os.path.join(directory, f"{name}.json")) as fh:
                certs[name] = cert = Certificate.from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise Mismatch(f"stage {name}: cannot read {name}.json: {exc}")
        if cert.verdict != stages[name]:
            raise Mismatch(
                f"stage {name}: {name}.json records {cert.verdict}, the chain {stages[name]}"
            )
        if "spec" in cert.params and cert.params["spec"] != spec:
            raise Mismatch(f"stage {name}: presentation differs from the chain's config")
    # every graph-based stage file makes its claim on the graph of cover.json
    cover = certs["cover"].params
    for name, cert in certs.items():
        kind = KINDS.get(cert.kind)
        if isinstance(kind, GraphKind):
            for key, cover_key in zip(kind.arena, COVER_ARENA):
                echoed, value = cert.params.get(key), cover.get(cover_key)
                if echoed != value:
                    raise Mismatch(
                        f"stage {name}: {name}.json echoes {key} = {echoed!r}, "
                        f"cover.json {cover_key} = {value!r}"
                    )
    for key, echoes in CHAIN_ECHOES.items():
        value = params[key]
        if key == "window_set":
            if any(type(n) is not int for n in value):
                raise ValueError(f"chain window_set {value!r} holds a non-integer")
            value = list(normalize_window(value))
        for name, echo in echoes:
            echoed = certs[name].params.get(echo)
            if echoed != value:
                raise Mismatch(
                    f"stage {name}: {name}.json echoes {echo} = {echoed!r}, "
                    f"the chain's {key} is {params[key]!r}"
                )
    # the dad cover is a cover of the map the amen stage checked
    if certs["dad"].params.get("map") != certs["amen"].params.get("map"):
        raise Mismatch("stage dad: dad.json echoes a map other than amen.json's")
    # the amen map is built on the pairs amen_pairs.json lists
    amen, pairs = certs["amen"].params, certs["amen_pairs"].params
    if amen.get("phase_pair_bases") != pairs.get("pair_bases"):
        raise Mismatch("stage amen: amen.json echoes phase_pair_bases other than "
                       "amen_pairs.json's pair_bases")
    span = amen.get("phase_span")
    if any(rng != [0, span] for rng in pairs.get("pair_exponent_ranges", ())):
        raise Mismatch(f"stage amen: amen.json echoes phase_span = {span!r}, not h-1 of "
                       "amen_pairs.json's pair_exponent_ranges [0, h-1]")
    # the bounds stage reads q, the number of cover special states, and dim_x 0
    q = len(cover["special_states"])
    bounds = certs["bounds"].params
    if (bounds.get("q"), bounds.get("dim_x")) != (q, 0):
        raise Mismatch(f"stage bounds: bounds.json echoes q = {bounds.get('q')!r} and "
                       f"dim_x = {bounds.get('dim_x')!r}, the chain reads q = {q} and dim_x = 0")
    for name, cert in certs.items():
        ok, why = recheck_certificate(cert, arenas=arenas)
        if not ok:
            raise Mismatch(f"stage {name}: {why}")
    return _chain_certificate(params)


# kind -> recheck(params, directory, arenas), returning the recomputed certificate.
KINDS: dict[str, Callable[[dict, str | None, dict], Certificate]] = {
    "language-table": lambda p, *_: run_lang(_echoed_spec(p), p["n_max"], None)[1],
    "special-report": lambda p, *_: run_special(_echoed_spec(p), p["depth"])[1],
    "cover-graph": GraphKind({}, lambda graph, _: (_cover_certificate(graph), {}), COVER_ARENA),
    "rokhlin-cover": GraphKind(
        {"tower_bases": lambda o: [sorted(t.base) for t in o.cover.towers]}, _rebuild_rokhlin
    ),
    "tower-pairs": GraphKind(
        {
            "carrier": lambda o: o.carrier,
            "pair_bases": lambda o: [sorted(p.base) for p in o.tps.pairs],
            "pair_kinds": lambda o: [p.kind for p in o.tps.pairs],
            "pair_origins": lambda o: [p.origin for p in o.tps.pairs],
            "pair_exponent_ranges": lambda o: [
                [p.exponents[0], p.exponents[-1]] for p in o.tps.pairs
            ],
        },
        _rebuild_pairs,
    ),
    "equivariance": GraphKind(
        {
            "orbit_window": lambda o: sorted(o.orbit),
            "phase_pair_bases": lambda o: [sorted(p.base) for p in o.tps.pairs],
            "phase_span": lambda o: o.tps.height - 1,
            "map": lambda o: o.emap.to_jsonable(),
        },
        _rebuild_equivariance,
        canonical=("map",),
    ),
    "dad-cover": GraphKind(
        {
            "projection_moved": lambda o: Fraction(0),
            "support": lambda o: list(o.emap.support_window),
            "F": lambda o: list(o.cover.F),
            "pieces": lambda o: [sorted(piece) for piece in o.cover.pieces],
            "orbit_states": lambda o: sorted(o.cover.orbit_states),
            "map": lambda o: o.emap.to_jsonable(),
            "epsilon": lambda o: Fraction(o.epsilon),
        },
        _rebuild_dad,
        canonical=("map",),
    ),
    "bounds": lambda p, *_: run_bounds(p["q"], p["dim_x"])[1],
    "certify-chain": _recheck_chain,
}


def _first_differing_key(fresh: dict, stored: dict) -> str | None:
    """The first key, in sorted order, that only one of the params has or
    whose values are not the same JSON value there (so ``true`` is not ``1``)."""
    for key in sorted({*fresh, *stored}):
        if key not in fresh or key not in stored or not same_json(fresh[key], stored[key]):
            return key
    return None


def recheck_certificate(cert: Certificate, directory=None, arenas=None) -> tuple[bool, str]:
    """Recompute ``cert`` as its kind says and accept it when the two are
    the same JSON value (``same_json`` of their ``to_dict()``), which is
    the verdict of comparing their canonical texts, without writing them.
    ``directory`` holds the stage files of a ``certify-chain``
    certificate, ``arenas`` the cover graphs built so far by arena echo.
    A certificate lacking an echo the re-check reads, or holding one of
    the wrong type or out of range (such as a JSON ``Infinity`` where a
    rational is read), fails as a missing or malformed witness; one whose
    parameter breaks a bound of its stage fails as a bad parameter,
    naming the bound."""
    recheck = KINDS.get(cert.kind)
    if recheck is None:
        return False, f"unknown certificate kind {cert.kind!r}"
    try:
        fresh = recheck(cert.params, directory, {} if arenas is None else arenas)
    except Mismatch as exc:
        return False, str(exc)
    except KeyError as exc:
        return False, f"missing or malformed witness {exc.args[0]!r}"
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return False, f"missing or malformed witness: {exc}"
    except InvalidSpec as exc:
        return False, f"bad parameter: {exc}"
    if same_json(fresh.to_dict(), cert.to_dict()):
        return True, ""
    key = _first_differing_key(fresh.params, cert.params)
    detail = fresh.first_failure()
    return False, (
        "recomputation differs from stored certificate"
        + (f" at params key {key!r}" if key is not None else "")
        + (f"; failing clause: {detail}" if detail else "")
    )
