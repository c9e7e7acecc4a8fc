from __future__ import annotations

import functools

import pytest
from hypothesis import settings

from stq.engine import simulate
from stq.model import fixture
from stq.planner import plan_task

# Property tests draw the same examples on every run: derandomized, and no
# example database to replay earlier failures from.  Each test's own
# `max_examples` still applies.
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")

# Plans and reports are deterministic, so fixtures computed once serve
# every test file.  Treat the cached objects as read-only.


@functools.lru_cache(maxsize=None)
def cached_task(name: str):
    return fixture(name)


@functools.lru_cache(maxsize=None)
def cached_plan(name: str):
    return plan_task(cached_task(name))


@functools.lru_cache(maxsize=None)
def cached_report(name: str):
    return simulate(cached_plan(name))


@pytest.fixture(scope="session")
def task_of():
    return cached_task


@pytest.fixture(scope="session")
def plan_of():
    return cached_plan


@pytest.fixture(scope="session")
def report_of():
    return cached_report
