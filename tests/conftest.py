import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis adds the literals of every loaded local module to its example
# pool, so a derandomized test's draws depend on which besovlab modules the
# collected test files import.  besovlab.cli imports them all: loaded here, a
# test draws the same examples whichever files are collected.
import besovlab.cli  # noqa: F401
from besovlab.fields import make_field
from besovlab.mollifiers import make_mollifier
from besovlab.seminorms import FunctionalParams


@pytest.fixture(scope="session")
def step():
    return make_field("step_1d")


@pytest.fixture(scope="session")
def step3():
    return make_field("step_1d", amplitude=3.0)


@pytest.fixture(scope="session")
def vstep():
    return make_field("vector_step_1d")


@pytest.fixture(scope="session")
def disk():
    return make_field("disk_2d")


@pytest.fixture(scope="session")
def bump():
    return make_field("gaussian_bump_1d")


@pytest.fixture(scope="session")
def tent():
    return make_mollifier("tent")


@pytest.fixture(scope="session")
def tent2():
    return make_mollifier("tent", dim=2)


@pytest.fixture(scope="session")
def jump_params():
    return FunctionalParams.jump_regime(2.0)
