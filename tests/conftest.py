import pytest
from hypothesis import settings

from deltacodes.field import Field

# Property tests draw the same examples on every run, in bounded time, and
# write no example database.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def F4():
    return Field(2)


@pytest.fixture(scope="session")
def F8():
    return Field(3)


@pytest.fixture(scope="session")
def F16():
    return Field(4)


@pytest.fixture(scope="session")
def F32():
    return Field(5)
