"""Every README demo runs to completion as a script and prints its report,
the README's library tour runs as written, and its config example parses."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flustab.cli import parse_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_tour_runs():
    # so a name the package no longer has cannot linger in the README
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["traj"].states.shape == (2001, 5)


def test_readme_config_example_parses():
    # so a config key the parser no longer has cannot linger in the README
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    cfg = parse_config(json.loads(blocks[0]))
    assert cfg.params.n_I == 2 and cfg.T_sweep == (0.5, 2.5, 101)
