import pytest

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
