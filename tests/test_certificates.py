from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftdim.certificates import Certificate, Clause, _canon, same_json
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
# flat objects of strings, three lists deep, as map points are written
@example({"points": [[[
    {"": "", "\n\t\"\\": "\x00\x7f", "é": "\u2028😀"},
    {"10": "1/2", "9": "é"},
]], [[{"": "1/1"}]]]}, "")
@settings(max_examples=400, deadline=None)
def test_canonical_json_matches_stdlib(params, witness):
    cert = _certificate(params, witness)
    assert cert.canonical_json() == canonical_json_oracle(cert.to_dict())


# Scalars that Python compares equal across JSON types (True, 1 and 1.0;
# False, 0, 0.0 and -0.0), NaN, which Python does not compare equal to
# itself, and strings that spell the others.
CONFUSABLE = st.sampled_from(
    [True, 1, 1.0, False, 0, 0.0, -0.0, None, float("nan"), "1", "true", "", "a"]
)
JSON_TREES = st.recursive(
    CONFUSABLE | st.integers(-3, 3) | st.text(max_size=2),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.sampled_from(["", "a", "1", "10", "9"]), children, max_size=3)
    ),
    max_leaves=12,
)


def _lookalike(value, data):
    """``value`` with every scalar replaced by one that Python compares
    equal to it, or by an equal but distinct string or NaN, and every
    object's keys in a drawn order."""
    if isinstance(value, dict):
        items = list(value.items())
        if data.draw(st.booleans()):
            items.reverse()
        return {key: _lookalike(member, data) for key, member in items}
    if isinstance(value, list):
        return [_lookalike(member, data) for member in value]
    if isinstance(value, str):
        return "".join(list(value))
    if isinstance(value, float) and value != value:
        return float("nan")
    if value is not None and value in (0, 1):
        return data.draw(st.sampled_from([bool(value), int(value), float(value), -float(value)]))
    return value


@given(JSON_TREES, st.data())
@settings(max_examples=500, deadline=None)
def test_same_json_is_equal_canonical_text(a, data):
    b = _lookalike(a, data) if data.draw(st.booleans()) else data.draw(JSON_TREES)
    same_text = canonical_json_oracle(a) == canonical_json_oracle(b)
    assert same_json(a, b) == same_json(b, a) == same_text


@pytest.mark.parametrize("a, b, same", [
    (True, 1, False), (1, 1.0, False), (False, 0, False), (0.0, -0.0, False),
    (None, 0, False), ([1], [True], False), ({"a": 1}, {"a": 1.0}, False), ([], {}, False),
    (float("nan"), float("nan"), True), ({"a": [None, "x"]}, {"a": [None, "x"]}, True),
])
def test_same_json_examples(a, b, same):
    assert same_json(a, b) is same
    assert (canonical_json_oracle(a) == canonical_json_oracle(b)) is same


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
    [
        (Opaque(), "Opaque"),
        (b"bytes", "bytes"),
        (complex(1, 2), "complex"),
        (1.5, "float"),
        # a record is a tuple, but its field names would not reach the text
        (Clause("c", True), "Clause"),
    ],
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


def test_with_params_takes_canonical_values_as_they_are():
    cert = Certificate.build("kind", {"r": Fraction(1, 3)}, [Clause("c", True)])
    made = {"points": [{"0": "1/2", "1": "1/2"}], "d": 1}
    echoed = cert.with_params({"s": (1,)}, {"map": made})
    assert echoed.params == {"r": "1/3", "s": [1], "map": made}
    assert echoed.params["map"] is made


def test_stamped_maps_are_their_own_canonical_json(fib_skew_dad):
    # the map is taken without a copy, so it must already be what _canon
    # makes, and no object of it may be shared with another caller
    for cert in (fib_skew_dad.amen, fib_skew_dad.dad):
        stamped = cert.params["map"]
        assert same_json(stamped, _canon(stamped))
        assert same_json(stamped, fib_skew_dad.emap.to_jsonable())
    first, second = fib_skew_dad.amen.params["map"], fib_skew_dad.dad.params["map"]
    assert first is not second
    assert first["window_set"] is not second["window_set"]
    assert first["support_window"] is not second["support_window"]
    assert not any(a is b for a, b in zip(first["points"], second["points"]))
