import os
import sys
import time

import pytest

# allow running the suite from a fresh checkout without installing
SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, os.path.abspath(SRC))


@pytest.fixture(scope="session")
def default_smoke_run(tmp_path_factory):
    """`evlm train-smoke` with the built-in config and every default, run once
    per session for the CLI convergence test and acceptance criterion 7.
    Returns the completed process, the checkpoint path and the process's
    wall seconds."""
    from test_cli import run_cli

    ckpt = tmp_path_factory.mktemp("default_smoke") / "default.ckpt"
    start = time.perf_counter()
    out = run_cli("train-smoke", "--out", str(ckpt))
    return out, ckpt, time.perf_counter() - start
