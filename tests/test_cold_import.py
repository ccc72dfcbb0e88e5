"""A cold interpreter that imports fockcount and its CLI loads none of the
modules that cost most of the start-up time; JSON output and config files
load `json` only when they run, and a plain call never loads `shutil`. A
call spelled with exact long options is read off the option table and loads
neither `argparse` nor the `gettext` and `locale` it brings; a spelling only
argparse reads, such as an abbreviation, still runs the same. The family
registry loads without the CLI."""

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


# argparse's stock help formatter imports these to read the terminal width.
SHUTIL = ("shutil", "bz2", "lzma")

VERIFY_CHILD = """
import sys
sys.path.insert(0, {src!r})
from fockcount.cli import main
code = main(["verify", "--kind", "cs-average", "--out", {out!r}])
print(code, sorted(name for name in {shutil!r} if name in sys.modules))
"""

HELP_CHILD = """
import sys
sys.path.insert(0, {src!r})
from fockcount.cli import main
main(["count", "--help"])
"""


def test_a_call_without_help_loads_no_shutil(tmp_path):
    out = tmp_path / "verify.csv"
    child = VERIFY_CHILD.format(src=str(SRC), out=str(out), shutil=SHUTIL)
    done = subprocess.run([sys.executable, "-I", "-S", "-c", child],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"
    assert out.read_text(encoding="utf-8").startswith("check,params,status,detail\n")

    child = HELP_CHILD.format(src=str(SRC))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", child],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: fockcount count [-h] --family")


# argparse, and what it imports to translate its messages.
ARGPARSE = ("argparse", "gettext", "locale")

PLAIN_CHILD = """
import sys
sys.path.insert(0, {src!r})
from fockcount.cli import main
code = main(["verify", "--kind", "cs-average", "--out", {verify!r}])
print(code, sorted(name for name in {argparse!r} if name in sys.modules))
codes = [main(["count", "--fam", "cs", *{grid!r}, "--out", {abbreviated!r}]),
         main(["count", "--family", "cs", *{grid!r}, "--out", {spelled!r}])]
print(codes, "argparse" in sys.modules)
"""


def test_a_plain_call_loads_no_argparse_and_an_abbreviation_still_runs(tmp_path):
    verify, abbreviated, spelled = (tmp_path / name for name in ("v.csv", "a.csv", "s.csv"))
    child = PLAIN_CHILD.format(src=str(SRC), verify=str(verify), argparse=ARGPARSE,
                               grid=COUNT[3:], abbreviated=str(abbreviated),
                               spelled=str(spelled))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", child],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n[0, 0] True\n"
    assert verify.read_text(encoding="utf-8").startswith("check,params,status,detail\n")
    assert abbreviated.read_text(encoding="utf-8") == spelled.read_text(encoding="utf-8")
    assert spelled.read_text(encoding="utf-8").startswith("family,M,N,p,q,value")


REGISTRY_CHILD = """
import sys
sys.path.insert(0, {src!r})
import fockcount.registry
print(sorted(name for name in ("fockcount.cli", "argparse") if name in sys.modules))
print(len(fockcount.registry.VERIFY_KINDS))
"""


def test_the_registry_loads_without_the_cli():
    child = REGISTRY_CHILD.format(src=str(SRC))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", child],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n14\n"
