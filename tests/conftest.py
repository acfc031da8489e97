from pathlib import Path

import pytest

from bikerelay import parse_scheme

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    return parse_scheme((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def split_riders():
    return load_fixture("split_riders.mat")


@pytest.fixture(scope="session")
def split_riders_swapped():
    return load_fixture("split_riders_swapped.mat")


@pytest.fixture(scope="session")
def handover_free():
    return load_fixture("handover_free_11x7.mat")


@pytest.fixture(scope="session")
def tie_order_split():
    return load_fixture("tie_order_split.mat")


@pytest.fixture(scope="session")
def late_first_stall():
    return load_fixture("late_first_stall.mat")
