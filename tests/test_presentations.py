"""The verdict belongs to the subshift, not to its presentation.

For a primitive substitution sigma, sigma^2 presents the same subshift
(Queffelec 1987), so every stage certificate of sigma^2 must equal that
of sigma apart from the ``spec`` echo of the presentation: the same
parameters, clauses and verdict.  A renaming of the letters presents a
conjugate subshift, so its certificates must agree in every verdict and
count, and its cover graph must be the same graph with its states
renumbered.  A presentation on which this fails is a defect of the
construction, not a case to drop.
"""

import itertools
from fractions import Fraction

import pytest

from shiftdim.cover import build_cover_graph
from shiftdim.errors import ShiftDimError
from shiftdim.pipeline import PipelineParams, run_certify, run_cover, run_stages
from shiftdim.words import Alphabet, SubstitutionSpec

from .oracles import renamed_cover_states, substitution_image
from .test_words import FIB_RULES, TM_RULES, TRIB_RULES


def _square(rules):
    return {c: substitution_image(rules, c, 2) for c in rules}


def _config(rules):
    lines = ["variant = substitution", "alphabet = " + " ".join(rules)]
    lines += [f"rule.{c} = {' '.join(image)}" for c, image in rules.items()]
    return "\n".join(lines) + "\n"


def _apart_from_spec(cert):
    params = {key: value for key, value in cert.params.items() if key != "spec"}
    return params, cert.clauses, cert.verdict


def test_fibonacci_square_gives_the_same_chain():
    chains = [
        run_certify(PipelineParams(
            config_text=_config(rules), horizon=16, depth=250, big_n=30, epsilon=Fraction(5, 2)
        ))[0]
        for rules in (FIB_RULES, _square(FIB_RULES))
    ]
    assert len(chains[0]) == 9 and chains[0].keys() == chains[1].keys()
    assert chains[0]["cover"].params["spec"] != chains[1]["cover"].params["spec"]
    for name, cert in chains[0].items():
        assert _apart_from_spec(cert) == _apart_from_spec(chains[1][name]), name


@pytest.mark.parametrize("rules", [TM_RULES, TRIB_RULES], ids=["thue-morse", "tribonacci"])
def test_square_gives_the_same_cover(rules):
    # Thue-Morse's k = 300 cover fails, and must fail the same way for both
    certs = [
        run_cover(SubstitutionSpec(Alphabet(tuple(r)), r), 300, 6, None)[1]
        for r in (rules, _square(rules))
    ]
    assert certs[0].params["spec"] != certs[1].params["spec"]
    assert _apart_from_spec(certs[0]) == _apart_from_spec(certs[1])


# params that list state numbers, which a renaming of the letters permutes
STATE_LISTS = ("special_states", "tower_bases", "pair_bases")


def _renamed(rules, rename):
    """The rules with every letter renamed, declared in the same order."""
    table = str.maketrans(rename)
    renamed = {rename[c]: image.translate(table) for c, image in rules.items()}
    return {c: renamed[c] for c in sorted(renamed)}


def _front_outcome(rules):
    """Each front stage's verdict, clause verdicts and params, or the
    error that stopped the chain.  A list of state numbers counts as its
    length.  The towers are swept in state order, so the split of the
    margin witnesses by kind follows the numbering: only their total is
    kept.  Clause witnesses, which spell state numbers and that split,
    are left out."""
    chain = PipelineParams(config_text=_config(rules), horizon=16, depth=250)
    try:
        certs = run_stages(chain, ["lang", "special", "cover", "rokhlin", "towerdim"])
    except ShiftDimError as exc:
        return type(exc).__name__, exc.stage, str(exc)
    outcome = {}
    for stage, cert in certs.items():
        params = {
            key: len(value) if key in STATE_LISTS else value
            for key, value in cert.params.items()
            if key != "spec"
        }
        if "witness_kinds" in params:
            params["witness_kinds"] = sum(params["witness_kinds"].values())
        clauses = [(clause.name, clause.passed) for clause in cert.clauses]
        outcome[stage] = cert.verdict, clauses, params
    return outcome


# Renamings on which the verdicts differ, by test id.  Each is a defect
# of the construction, kept failing here until it is mended.
PRESENTATION_DEFECTS = {
    "tribonacci-201": pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="rokhlin: deep preimages of W overlap at depth 250 under this renaming only",
    ),
}
RENAMINGS = [
    pytest.param(
        rules,
        dict(zip(sorted(rules), letters)),
        id=f"{name}-{''.join(letters)}",
        marks=PRESENTATION_DEFECTS.get(f"{name}-{''.join(letters)}", ()),
    )
    for name, rules in (("fibonacci", FIB_RULES), ("thue-morse", TM_RULES),
                        ("tribonacci", TRIB_RULES))
    for letters in itertools.permutations(sorted(rules))
    if list(letters) != sorted(rules)
]


@pytest.mark.parametrize("rules, rename", RENAMINGS)
def test_renamed_letters_give_the_same_verdicts_and_cover(rules, rename):
    renamed = _renamed(rules, rename)
    assert _front_outcome(renamed) == _front_outcome(rules)
    graphs = [
        build_cover_graph(SubstitutionSpec(Alphabet(tuple(r)), r), 250, 6)
        for r in (rules, renamed)
    ]
    renamed_cover_states(*graphs, rename)
