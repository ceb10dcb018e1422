"""Make the oracle helpers in this directory importable as ``oracles``
under every pytest import mode, and start every test with empty memos of
``apolarity.rank`` and ``apolarity._residual_squared``, so that no
certificate or residual cached by an earlier test hides a fault a later one
plants or serves a call a later one counts.  The fixture
``no_irreducibility_proof`` makes ``ratfactor._cofactor_factors`` raise for
the tests that must not reach it.  Each test item records when its setup
began, module fixtures included, as ``started_at``, for the wall times of
the acceptance checks."""

import sys
import time
from pathlib import Path

import pytest

from cuspidal import apolarity, ratfactor

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    item.started_at = time.perf_counter()


@pytest.fixture(autouse=True)
def _fresh_memos():
    apolarity.rank.cache_clear()
    apolarity._residual_squared.cache_clear()


@pytest.fixture
def no_irreducibility_proof(monkeypatch):
    def refuse(h):
        raise AssertionError(f"the cofactor {h} was proved irreducible")

    monkeypatch.setattr(ratfactor, "_cofactor_factors", refuse)
