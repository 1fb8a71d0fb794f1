"""Environment for child processes that import the package under test."""

import os
import pathlib

import gnnpeft

# the source directory of the package this test run imported; absolute, so a
# child started in any working directory finds it without an installed package
SRC = pathlib.Path(gnnpeft.__file__).resolve().parent.parent


def child_env() -> dict:
    """``os.environ`` with ``PYTHONPATH`` starting at ``SRC``."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)
