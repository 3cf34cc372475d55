"""The verdict belongs to the subshift, not to its presentation.

For a primitive substitution sigma, sigma^2 presents the same subshift
(Queffelec 1987), so every stage certificate of sigma^2 must equal that
of sigma apart from the ``spec`` echo of the presentation: the same
parameters, clauses and verdict.  A presentation on which this fails is
a defect of the construction, not a case to drop.
"""

from fractions import Fraction

import pytest

from shiftdim.pipeline import PipelineParams, run_certify, run_cover
from shiftdim.words import Alphabet, SubstitutionSpec

from .oracles import substitution_image
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
