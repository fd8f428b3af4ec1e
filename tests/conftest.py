"""Shared test set-up.

The CLI tests start ``python -m fractalvit`` in subprocesses. Putting the
directory of the package under test on their ``PYTHONPATH`` makes them
run the same sources as the test process, also under a bare ``pytest``
from a checkout, where only pytest's own ``pythonpath`` setting finds
``src``.
"""

import os
from pathlib import Path

import fractalvit

_SRC = str(Path(fractalvit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
