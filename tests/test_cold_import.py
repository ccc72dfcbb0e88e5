"""A cold interpreter that imports fockcount and its CLI loads none of the
modules that cost most of the start-up time; JSON output and config files
load `json` only when they run."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "ast", "typing", "json")

COUNT = ["count", "--family", "cs", "--M", "8,9", "--N", "2", "--p", "1", "--q", "2"]

CHILD = """
import sys
sys.path.insert(0, {src!r})
import fockcount
import fockcount.cli
print(sorted(name for name in {heavy!r} if name in sys.modules))
codes = [fockcount.cli.main({json_run!r}), fockcount.cli.main({config_run!r})]
print(codes)
"""


def test_import_loads_no_heavy_module_and_output_is_unchanged(tmp_path, capsys):
    from fockcount.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": [8, 9], "format": "json"}))
    json_run = [*COUNT, "--format", "json"]
    config_run = ["count", "--family", "cs", "--N", "2", "--p", "1", "--q", "2",
                  "--config", str(cfg)]
    child = CHILD.format(src=str(SRC), heavy=HEAVY, json_run=json_run,
                         config_run=config_run)
    done = subprocess.run([sys.executable, "-I", "-S", "-c", child],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""

    expected = []
    for argv in (json_run, config_run):
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    assert expected[0] == expected[1]
    assert done.stdout == "[]\n" + "".join(expected) + "[0, 0]\n"
