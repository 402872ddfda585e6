from __future__ import annotations

from importlib import resources
from pathlib import Path

import pytest

from torbif.oracle import circle_quartic_spec
from torbif.problemfile import parse_problem


def fixture_path(name: str) -> Path:
    return Path(resources.files("torbif") / "fixtures" / name)


@pytest.fixture(scope="session")
def circle_fixture_path() -> Path:
    return fixture_path("circle_quartic.json")


@pytest.fixture(scope="session")
def sphere_fixture_path() -> Path:
    return fixture_path("sphere_p1.json")


@pytest.fixture(scope="session")
def circle_spec(circle_fixture_path):
    return parse_problem(circle_fixture_path)


@pytest.fixture(scope="session")
def sphere_spec(sphere_fixture_path):
    return parse_problem(sphere_fixture_path)


@pytest.fixture(scope="session")
def circle_deep_spec():
    # same model with spectral data out to beta = 25, for levels up to 25
    return circle_quartic_spec(25)
