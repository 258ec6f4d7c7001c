"""Shared fixtures for the test suite.

Most fixtures are the paper's examples (built once per session — they are
immutable) plus a couple of small schemas and instances reused across
modules.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make `pytest tests -q` work from a plain checkout without PYTHONPATH=src.
# Kept ahead of any environment entry so an installed (possibly stale)
# repro never shadows the checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.database import DatabaseInstance
from repro.paperlib import (
    chain_workload,
    example_4_1,
    example_4_2,
    example_4_3,
    example_4_6,
    example_e_1,
    example_e_2,
    orders_workload,
)
from repro.schema import DatabaseSchema


@pytest.fixture(scope="session")
def ex41():
    return example_4_1()


@pytest.fixture(scope="session")
def ex42():
    return example_4_2()


@pytest.fixture(scope="session")
def ex43():
    return example_4_3()


@pytest.fixture(scope="session")
def ex46():
    return example_4_6()


@pytest.fixture(scope="session")
def exE1():
    return example_e_1()


@pytest.fixture(scope="session")
def exE2():
    return example_e_2()


@pytest.fixture(scope="session")
def orders():
    return orders_workload()


@pytest.fixture(scope="session")
def chain3():
    return chain_workload(3)


@pytest.fixture()
def small_schema() -> DatabaseSchema:
    return DatabaseSchema.from_arities({"p": 2, "r": 1, "s": 2})


@pytest.fixture()
def small_instance(small_schema) -> DatabaseInstance:
    return DatabaseInstance.from_dict(
        {
            "p": [(1, 2), (1, 3), (2, 3)],
            "r": [(1,), (2,)],
            "s": [(2, 5), (3, 5), (3, 6)],
        },
        small_schema,
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "nightly: a long campaign, deselected unless a -m expression names it "
        "(the nightly workflow runs pytest -m nightly)",
    )


def pytest_collection_modifyitems(config, items):
    """Deselect the nightly campaigns unless ``-m`` asks about them."""
    if "nightly" in (config.option.markexpr or ""):
        return
    nightly = [item for item in items if item.get_closest_marker("nightly")]
    if nightly:
        config.hook.pytest_deselected(items=nightly)
        items[:] = [item for item in items if not item.get_closest_marker("nightly")]
