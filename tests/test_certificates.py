from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdim.certificates import Certificate, Clause
from shiftdim.pipeline import PipelineParams, run_certify

from .oracles import canonical_json_oracle

KEYS = st.sampled_from(["10", "9", "1", "01", "", "é", "\x00", "\n\t\"\\", " "]) | st.text()
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(10**29, 10**40)
    | st.integers(-(10**40), -(10**29))
    | st.floats()
    | st.text()
)
TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
    ),
    max_leaves=40,
)


def _certificate(params, witness=""):
    return Certificate("kind", params, (Clause("clause", True, witness),), "pass")


@given(st.dictionaries(KEYS, TREES, max_size=5), st.text())
@example({"a": [True, 1, 1.0, [], {}, [[]], [{}], {"b": {}}]}, "")
@example({"10": 10**30, "9": -(10**31), "": [float("nan"), float("-inf"), 0.0, -0.0]}, "\x7f")
@settings(max_examples=400, deadline=None)
def test_canonical_json_matches_stdlib(params, witness):
    cert = _certificate(params, witness)
    assert cert.canonical_json() == canonical_json_oracle(cert.to_dict())


def test_canonical_json_of_parsed_certificate_with_floats():
    # a tampered, parsed certificate can hold floats; it must still print
    cert = Certificate.from_json('{"kind": "k", "params": {"x": [1.5, {"y": 2e300}]},'
                                 ' "clauses": [], "verdict": "pass"}')
    assert cert.canonical_json() == canonical_json_oracle(cert.to_dict())


def test_chain_certificates_match_stdlib(tmp_path):
    params = PipelineParams(
        config_text="variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 0\n",
        out_dir=str(tmp_path),
        horizon=16,
        depth=250,
        window_set=(-1, 0, 1),
        big_n=30,
        epsilon=Fraction(5, 2),
    )
    certs, overall = run_certify(params)
    assert overall == "pass"
    assert "chain" in certs
    for name, cert in certs.items():
        text = cert.canonical_json()
        assert text == canonical_json_oracle(cert.to_dict()), name
        assert (tmp_path / f"{name}.json").read_text() == text


def test_map_bearing_certificates_match_stdlib(fib_skew_dad):
    for cert in (fib_skew_dad.amen, fib_skew_dad.dad):
        assert cert.canonical_json() == canonical_json_oracle(cert.to_dict())


class Opaque:
    """Its default repr holds a memory address, which differs run to run."""


@pytest.mark.parametrize(
    "value, name",
    [(Opaque(), "Opaque"), (b"bytes", "bytes"), (complex(1, 2), "complex"), (1.5, "float")],
)
def test_build_refuses_values_without_a_canonical_form(value, name):
    with pytest.raises(TypeError, match=name):
        Certificate.build("kind", {"ok": [1, "a"], "bad": [value]}, [])


def test_with_params_normalises_only_the_addition():
    cert = Certificate.build("kind", {"r": Fraction(1, 3)}, [Clause("c", True)])
    plain = {"a": None, "b": True, "c": 2, "d": "x"}
    echoed = cert.with_params({"s": {Fraction(1, 2), Fraction(1, 4)}, "t": (1, None), "u": plain})
    assert echoed.params == {"r": "1/3", "s": ["1/2", "1/4"], "t": [1, None], "u": plain}
    assert echoed.params["u"] is not plain
    assert echoed.clauses == cert.clauses and echoed.verdict == cert.verdict
    with pytest.raises(TypeError, match="float"):
        cert.with_params({"u": [0.5]})
