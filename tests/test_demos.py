"""Each script under demos/ runs to completion in a fresh interpreter, with
RuntimeWarnings and (pending) deprecation warnings as errors, as the test
suite treats them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobsym

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(frobsym.__file__).parents[1])}
    flags = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
             "-W", "error::PendingDeprecationWarning"]
    result = subprocess.run([sys.executable, *flags, str(demo)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
