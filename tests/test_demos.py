import os
import subprocess
import sys

import pytest

from conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=env, cwd=ROOT, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    # every search in the demos drains or proves its plans complete
    assert "enumeration stopped" not in result.stderr
