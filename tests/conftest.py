import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from csw import (
    build_K_family,
    build_eps_family,
    build_scheme,
    validate_type,
)

TYPE_DEPTH1 = ([1, 6], [6], [0])
TYPE_DEPTH2 = ([1, 2, 4], [2, 3], [0, 1])
TYPE_DEPTH3 = ([1, 2, 4, 10], [2, 3, 4], [0, 1, 2])
TYPE_DEPTH4 = ([1, 2, 4, 10, 46], [2, 3, 4, 5], [0, 1, 2, 1])
TYPE_DEPTH5 = ([1, 2, 4, 10, 46, 271], [2, 3, 4, 5, 6], [0, 1, 2, 1, 1])
TYPE_WIDE8 = ([1, 8], [8], [0])
TYPE_TINY = ([1, 2], [2], [0])


@pytest.fixture(scope="session")
def scheme_depth1():
    return build_scheme(validate_type(*TYPE_DEPTH1))


@pytest.fixture(scope="session")
def scheme_depth2():
    return build_scheme(validate_type(*TYPE_DEPTH2))


@pytest.fixture(scope="session")
def scheme_depth3():
    return build_scheme(validate_type(*TYPE_DEPTH3))


@pytest.fixture(scope="session")
def scheme_wide8():
    return build_scheme(validate_type(*TYPE_WIDE8))


@pytest.fixture(scope="session")
def scheme_tiny():
    return build_scheme(validate_type(*TYPE_TINY))


@pytest.fixture(scope="session")
def eps_half_depth1(scheme_depth1):
    return build_eps_family(scheme_depth1, Fraction(1, 2))


@pytest.fixture(scope="session")
def eps_half_depth2(scheme_depth2):
    return build_eps_family(scheme_depth2, Fraction(1, 2))


@pytest.fixture(scope="session")
def eps_half_depth3(scheme_depth3):
    return build_eps_family(scheme_depth3, Fraction(1, 2))


@pytest.fixture(scope="session")
def k2_wide8(scheme_wide8):
    return build_K_family(scheme_wide8, 2, scale_cap=1)


@pytest.fixture(scope="session")
def k2_tiny(scheme_tiny):
    return build_K_family(scheme_tiny, 2, scale_cap=1)


@pytest.fixture(scope="session")
def k2_depth2(scheme_depth2):
    return build_K_family(scheme_depth2, 2, scale_cap=1)


@pytest.fixture(scope="session")
def k2_depth3(scheme_depth3):
    return build_K_family(scheme_depth3, 2, scale_cap=1)


@pytest.fixture(scope="session")
def eps_half_depth5():
    return build_eps_family(build_scheme(validate_type(*TYPE_DEPTH5)), Fraction(1, 2))


@pytest.fixture(scope="session")
def k2cap2_depth4():
    return build_K_family(build_scheme(validate_type(*TYPE_DEPTH4)), 2, scale_cap=2)
