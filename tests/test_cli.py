"""Command-line interface: parsing, output formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from fockcount.cli import (
    COMMANDS,
    format_cell,
    main,
    parse_frac_values,
    parse_int_values,
    render,
)
from fockcount.core import quon
from fockcount.gram import gram_matrix
from fockcount.restrictions import CSRule

from oracles import gauss_rank


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_parse_int_values():
    assert parse_int_values("4") == [4]
    assert parse_int_values("2..5") == [2, 3, 4, 5]
    assert parse_int_values("1,4,9") == [1, 4, 9]
    with pytest.raises(ValueError):
        parse_int_values("5..2")


def test_parse_frac_values():
    assert parse_frac_values("1/2,2") == [Fraction(1, 2), Fraction(2)]
    assert parse_frac_values("0..2") == [0, 1, 2]


def test_format_cell_conventions():
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(Fraction(3, 4)) == "3/4"
    assert format_cell(Fraction(4, 2)) == "2"
    assert format_cell((1, 2, 3)) == "1 2 3"
    assert format_cell(None) == ""
    assert format_cell(0.5) == "0.5"


def test_render_json_rationals():
    text = render(["x"], [(Fraction(1, 3),)], "json")
    assert json.loads(text) == [{"x": {"num": 1, "den": 3}}]


def test_count_command_csv(capsys):
    code, out, err = run_cli(
        ["count", "--family", "cs", "--M", "8..10", "--N", "2",
         "--p", "1", "--q", "2"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "M", "N", "p", "q", "value", "formula"]
    assert [r[5] for r in rows] == ["16", "20", "25"]


def test_count_command_oracle_agrees(capsys):
    code, out, err = run_cli(
        ["count", "--family", "gentile", "--M", "2..4", "--N", "2",
         "--m", "1,2", "--oracle"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["oracle", "agrees"]
    assert all(r[-1] == "true" for r in rows)


def test_count_rows_follow_grid_order(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "cs", "--M", "5,4", "--N", "1,2",
         "--p", "1", "--q", "1"],
        capsys,
    )
    header, rows = parse_csv(out)
    assert [(r[1], r[2]) for r in rows] == [
        ("5", "1"), ("5", "2"), ("4", "1"), ("4", "2"),
    ]


def test_enumerate_command(capsys):
    code, out, err = run_cli(
        ["enumerate", "--family", "cs", "--M", "6", "--N", "2",
         "--p", "1", "--q", "2"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 9
    assert rows[0][4] == "1 2"
    assert rows[-1][4] == "5 6"


def test_gram_command_json(capsys):
    code, out, err = run_cli(
        ["gram", "--multiset", "1,2,3", "--alg", "quon:1/2",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == [
        {"multiset": [1, 2, 3], "algebra": "quon:1/2", "dimension": 6, "rank": 6}
    ]


def test_gram_command_rule_projection(capsys):
    code, out, err = run_cli(
        ["gram", "--multiset", "1,2", "--alg", "quon:0",
         "--rule-family", "cs", "--p", "1", "--q", "2"],
        capsys,
    )
    header, rows = parse_csv(out)
    assert rows[0][3] == "1"


def test_params_command_haldane(capsys):
    code, out, err = run_cli(
        ["params", "--family", "cs-haldane", "--p", "1", "--q", "2",
         "--nlast", "0,1"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert [r[-1] for r in rows] == ["1/2", "3/2"]


def test_params_command_oracle_column(capsys):
    code, out, err = run_cli(
        ["params", "--family", "para-fermi", "--M", "5", "--n", "1",
         "--k", "2", "--p", "2", "--oracle"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["definitional", "agrees"]
    assert rows[0][-3:] == ["5/2", "5/2", "true"]


def test_spectrum_command(capsys):
    code, out, err = run_cli(
        ["spectrum", "--N", "2", "--lambda", "1", "--L", "6.283185307179586"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert rows[0][-1] == "true"


def test_verify_single_kind(capsys):
    code, out, err = run_cli(["verify", "--kind", "binom-identity"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["check", "params", "status", "detail"]
    assert all(r[2] == "pass" for r in rows)


def test_verify_unknown_kind_fails(capsys):
    code, out, err = run_cli(["verify", "--kind", "no-such-check"], capsys)
    assert code == 2
    assert "unknown verify kind" in err


def test_missing_required_grid_is_an_error(capsys):
    code, out, err = run_cli(["count", "--family", "cs", "--M", "5"], capsys)
    assert code == 2
    assert "required" in err


def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": "8..10", "N": "2", "p": "1", "q": "2"}))
    code, out, err = run_cli(
        ["count", "--family", "cs", "--config", str(cfg)], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[5] for r in rows] == ["16", "20", "25"]


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": "8", "N": "2", "p": "1", "q": "2"}))
    code, out, err = run_cli(
        ["count", "--family", "cs", "--config", str(cfg), "--M", "9"], capsys
    )
    _, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][1] == "9"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, err = run_cli(
        ["count", "--family", "cs", "--M", "6", "--N", "2", "--p", "1",
         "--q", "1", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("family,M,N,p,q,value,formula")


# sha256 of `verify --all --out F`. The verify bytes are a fixed point of the
# library: a change that alters them updates this hash and says why.
VERIFY_ALL_SHA256 = "ab778468d4fe4b43190ce51da018d071dcb812a858baca9e8c04930feb1fcd23"


def test_verify_all_is_deterministic_and_clean(tmp_path, capsys):
    target = tmp_path / "verify.csv"
    code1, out1, _ = run_cli(["verify", "--all"], capsys)
    code2, _, _ = run_cli(["verify", "--all", "--out", str(target)], capsys)
    assert code1 == code2 == 0
    assert out1 == target.read_text()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == VERIFY_ALL_SHA256
    _, rows = parse_csv(out1)
    assert all(r[2] in ("pass", "info") for r in rows)


def test_window_min_oracle_counts_canonical_states(capsys):
    code, out, _ = run_cli(
        ["count", "--family", "window-min", "--M", "1..8", "--N", "1..4",
         "--p", "1,2", "--oracle"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 64
    assert all(r[header.index("agrees")] == "true" for r in rows)


def test_window_min_of_width_zero_has_an_oracle(capsys):
    code, out, err = run_cli(
        ["count", "--family", "window-min", "--M", "1..6", "--N", "1..3",
         "--p", "0", "--oracle"],
        capsys,
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 18
    assert all(r[header.index("agrees")] == "true" for r in rows)


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(COMMANDS) == 6
    for name in COMMANDS:
        assert name in out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_each_command_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: fockcount {name} [-h]")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cuont", "--M", "3"])
    assert exc.value.code == 2
    assert "invalid choice: 'cuont'" in capsys.readouterr().err


def test_render_matches_format_cell_on_mixed_rows():
    header = ["a", "b", "c", "d", "e", "f", "g"]
    rows = [
        (True, 3, Fraction(-2, 3), (1, 2, 2), 0.25, None, "x,y"),
        (False, -7, Fraction(4, 2), (), 1e-20, "", 'say "hi"'),
        (Fraction(5), 0, 2**70, (3,), float("inf"), "plain", None),
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(v) for v in row])
    assert render(header, rows, "csv") == buf.getvalue()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fockcount", "count", "--family", "cs",
         "--M", "6", "--N", "2", "--p", "1", "--q", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "cs,6,2,1,1,15,cs-slack-sum"


def test_enumeration_cap_reports_capacity_error(capsys):
    code, out, err = run_cli(
        ["enumerate", "--M", "80", "--N", "40", "--cap", "100"], capsys
    )
    assert code == 2
    assert "cap" in err.lower() or "candidate" in err.lower()


def test_gram_orbit_capacity_refused_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "fockcount", "gram", "--multiset", "1,2,3,4,5,6,7,8",
         "--alg", "bose"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "40320 words" in proc.stderr


def test_gram_word_length_refused_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "fockcount", "gram", "--multiset", ",".join(["1"] * 13),
         "--alg", "bose"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "13 letters" in proc.stderr


def test_gram_sweep_reports_orbit_size_and_gram_rank(capsys):
    code, out, err = run_cli(
        ["gram", "--M", "4", "--N", "3", "--alg", "quon:1/2",
         "--rule-family", "cs", "--p", "1", "--q", "2", "--format", "json"],
        capsys,
    )
    assert code == 0
    rule = CSRule(1, 2)
    rows = json.loads(out)
    assert len(rows) == 20
    for row in rows:
        gm = gram_matrix(row["multiset"], quon(Fraction(1, 2)), rule)
        assert row["dimension"] == gm.dimension
        assert row["rank"] == gauss_rank(gm.entries)


def test_gram_one_letter_sector_of_ten_particles(capsys):
    code, out, err = run_cli(
        ["gram", "--multiset", "1,1,1,1,1,1,1,1,1,1", "--alg", "bose"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["multiset", "algebra", "dimension", "rank"]
    assert rows[0][2:] == ["1", "1"]
