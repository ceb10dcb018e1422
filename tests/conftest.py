"""Make the oracle helpers in this directory importable as ``oracles``
under every pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
