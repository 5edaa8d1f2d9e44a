"""The README's library example and its instance config must keep working."""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_library_example_prints_its_two_lines():
    (code,) = _blocks("python")
    res = _run("-c", code)
    assert res.returncode == 0, res.stderr
    # the values 2 and 0, written at their minimal conductor 1
    assert res.stdout.splitlines() == [
        "{'box': [3, 3], 'dim': 2, 'truncated': False, 'entries': [{'n': [2, 1], "
        "'w': [{'M': 1, 'coeffs': ['2/1']}, {'M': 1, 'coeffs': ['0/1']}]}]}",
        "2",
    ]


def test_config_example_verifies(tmp_path):
    config = json.loads(_blocks("json")[0])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(config))
    res = _run(
        "-m", "qtorus.cli", "verify", "--config", str(path),
        "--suite", "cocycle,lie", "--samples", "20",
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.splitlines()[-1])["pass"] is True
