import ast
from pathlib import Path

import pytest

import torbif

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_public_names_resolve_once():
    # a stale entry breaks `from torbif import *`
    assert len(torbif.__all__) == len(set(torbif.__all__))
    missing = [name for name in torbif.__all__ if not hasattr(torbif, name)]
    assert missing == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_sources_parse_as_python_3_10(path):
    # pyproject declares requires-python >= 3.10
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
