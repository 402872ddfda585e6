from __future__ import annotations

import importlib.util
import sys
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


@pytest.fixture()
def bench_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded read-only: the benchmark's seeded problems and checks."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    loader = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)  # its dataclass looks itself up there
    loader.loader.exec_module(workloads)
    return workloads
