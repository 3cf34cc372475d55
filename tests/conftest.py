from fractions import Fraction
from types import SimpleNamespace

import pytest

from shiftdim.pipeline import run_amen, run_cover, run_dad, run_rokhlin
from shiftdim.words import (
    Alphabet,
    SubstitutionSpec,
    fibonacci_spec,
    full_shift_spec,
    golden_mean_spec,
    single_orbit_spec,
    thue_morse_spec,
)


@pytest.fixture(scope="session")
def fib():
    return fibonacci_spec()


@pytest.fixture(scope="session")
def tm():
    return thue_morse_spec()


@pytest.fixture(scope="session")
def trib():
    """0 -> 01, 1 -> 02, 2 -> 0 (Tribonacci; p(n) = 2n + 1)."""
    return SubstitutionSpec(Alphabet(("0", "1", "2")), {"0": "01", "1": "02", "2": "0"})


@pytest.fixture(scope="session")
def full2():
    return full_shift_spec(2)


@pytest.fixture(scope="session")
def golden():
    return golden_mean_spec()


@pytest.fixture(scope="session")
def single():
    return single_orbit_spec()


@pytest.fixture(scope="session")
def fib_skew_dad():
    """The dad path of the fib-skew-dad benchmark: Fibonacci cover at
    k=1700, towers of height 11, the map for E = {-2, 0, 3} at N = 37 and
    epsilon 2, and the dad cover with exponent bound 3."""
    E = (-2, 0, 3)
    graph = run_cover(fibonacci_spec(), 1700, 6, None)[0]
    towers = run_rokhlin(graph, 11)[0]
    emap, tps, orbit, _, amen = run_amen(graph, towers, E, 37, Fraction(2))
    cover, dad = run_dad(graph, emap, orbit, E, 3, Fraction(2))
    return SimpleNamespace(
        graph=graph, E=E, emap=emap, tps=tps, orbit=orbit, amen=amen, cover=cover, dad=dad
    )
