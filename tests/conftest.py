import pytest
from hypothesis import settings

from helpers import solved_case

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def case_a():
    return solved_case("a")


@pytest.fixture(scope="session")
def case_b():
    return solved_case("b")


@pytest.fixture(scope="session")
def case_c():
    return solved_case("c")


@pytest.fixture(scope="session")
def case_d():
    return solved_case("d")
