"""Make the oracle helpers in this directory importable as ``oracles``
under every pytest import mode, and start every test with an empty memo of
``apolarity.rank``, so that no certificate cached by an earlier test hides
a fault a later one plants."""

import sys
from pathlib import Path

import pytest

from cuspidal import apolarity

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(autouse=True)
def _fresh_rank_memo():
    apolarity.rank.cache_clear()
