"""Command-line interface: parsing, output formats, determinism, exit codes."""

import csv
import functools
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcount import cli
from fockcount.cli import (
    COMMANDS,
    _apply_config,
    build_parser,
    format_cell,
    main,
    parse_frac_values,
    parse_int_values,
    render,
)
from fockcount.core import quon
from fockcount.gram import gram_matrix
from fockcount.registry import COUNT_FAMILIES, PARAM_FAMILIES, RULES
from fockcount.restrictions import CSRule, enumerate_allowed

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


@pytest.mark.parametrize("length", ["inf", "nan", "0"])
def test_spectrum_needs_a_finite_positive_ring(length, capsys):
    code, out, err = run_cli(["spectrum", "--N", "2", "--lambda", "1", "--L", length], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ring length must be")


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


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--family", "x-fermi", "--M", "5", "--N", "2"],
     ["gram", "--multiset", "1,2", "--rule-family", "x-bose"]],
    ids=["enumerate", "gram"],
)
def test_missing_x_set_is_a_clean_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: option --x-set is required here\n"


@pytest.mark.parametrize(
    "argv,message",
    [(["spectrum", "--N", "2", "--L", "6"], "--lambda is required for spectrum"),
     (["count", "--family", "real", "--M", "3", "--N", "1"],
      "--lambda is required for family 'real'"),
     (["count", "--family", "x-fermi", "--M", "3", "--N", "1"],
      "--x-set is required for family 'x-fermi'")],
    ids=["spectrum-lambda", "count-lambda", "count-x-set"],
)
def test_missing_option_is_named_by_its_flag(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "grid",
    [["--M", "-1", "--N", "2"], ["--M", "0", "--N", "2"],
     ["--M", "0..2", "--N", "0..2"], ["--M", "3", "--N", "-1"]],
    ids=["negative-M", "zero-M", "zero-N-grid", "negative-N"],
)
def test_gram_grid_outside_the_count_domain_is_an_error(grid, capsys):
    code, out, err = run_cli(["gram", *grid], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: need M >= 1 and N >= 1\n"


def test_count_refuses_the_same_gap_set_with_and_without_oracle(capsys):
    argv = ["count", "--family", "x-bose", "--M", "5", "--N", "0", "--x-set", ""]
    plain = run_cli(argv, capsys)
    checked = run_cli([*argv, "--oracle"], capsys)
    assert plain == checked == (2, "", "error: gap set must be non-empty\n")


def test_gram_without_multiset_or_grid_is_a_clean_error(capsys):
    code, out, err = run_cli(["gram", "--alg", "fermi"], capsys)
    assert code == 2
    assert err == "error: --M is required for gram\n"


def test_undefined_count_points_leave_empty_rows(capsys):
    # (N-1)(1-g) is not an integer at g = 1/2 for N = 2 and N = 4
    code, out, err = run_cli(
        ["count", "--family", "haldane-wu", "--M", "6..9", "--N", "1..4",
         "--g", "0,1/2", "--oracle"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "M", "N", "g", "value", "formula", "oracle", "agrees"]
    assert len(rows) == 32
    undefined = [r for r in rows if r[3] == "1/2" and r[2] in ("2", "4")]
    assert len(undefined) == 8
    assert all(r[4] == r[6] == r[7] == "" and r[5] == "interpolating-binomial"
               for r in undefined)
    assert all(r[4] != "" for r in rows if r not in undefined)
    assert all(r[7] == "true" for r in rows if r[3] == "0")
    warnings = err.splitlines()
    assert len(warnings) == 8
    assert warnings[0] == ("warning: M=6 N=2 g=1/2: (N-1)(1-g) = 1/2 is not an "
                           "integer; counting law undefined")


@pytest.mark.parametrize(
    "argv",
    [["count", "--family", "cs", "--M", "4", "--N", "2", "--p", "-1", "--q", "1"],
     ["count", "--family", "haldane-wu", "--M", "6,7", "--N", "2", "--g", "1/2"],
     ["params", "--family", "single-gentile", "--n", "2,3", "--m", "2", "--oracle"]],
    ids=["cs-negative-p", "haldane-wu-all-undefined", "single-gentile-all-undefined"],
)
def test_count_grid_without_a_defined_point_is_an_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# One value per count option, each defined for every family that takes it.
COUNT_OPTION_VALUES = {
    "p": "1", "q": "2", "g": "1", "lam": "1", "m": "2", "x_set": "1,3",
}


@pytest.mark.parametrize("family", list(COUNT_FAMILIES))
def test_every_count_family_agrees_with_its_oracle(family, capsys):
    argv = ["count", "--family", family, "--M", "1..6", "--N", "1..3", "--oracle"]
    for name in COUNT_FAMILIES[family][0]:
        flag = {"lam": "--lambda"}.get(name, "--" + name.replace("_", "-"))
        argv += [flag, COUNT_OPTION_VALUES[name]]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 18
    assert all(r[header.index("agrees")] == "true" for r in rows)


# A small grid per params family, away from the lattice walls and at q = 1,
# where the two floor conventions of cs-finite coincide.
PARAM_GRIDS = {
    "cs-finite": ["--M", "13", "--i1", "5", "--N", "1,2", "--p", "2", "--q", "1",
                  "--side", "right,left"],
    "cs-average": ["--p", "0..2", "--q", "1,2", "--N", "2", "--i1", "1"],
    "cs-haldane": ["--p", "1", "--q", "2", "--nlast", "0,1"],
    "gentile-average": ["--pattern", "1,2"],
    "single-gentile": ["--n", "0..3", "--m", "4"],
    "para-fermi": ["--M", "5,6", "--n", "1", "--k", "1,2", "--p", "2"],
    "para-bose": ["--M", "5,6", "--n", "1,2", "--k", "1", "--p", "2,3"],
}


@pytest.mark.parametrize("family", list(PARAM_FAMILIES))
def test_every_params_family_agrees_with_its_definitional_value(family, capsys):
    code, out, err = run_cli(
        ["params", "--family", family, *PARAM_GRIDS[family], "--oracle"], capsys
    )
    assert code == 0, err
    assert err == ""
    header, rows = parse_csv(out)
    assert header[-2:] == ["definitional", "agrees"]
    assert rows
    # cs-average and cs-haldane have a closed form only
    expected = "true" if PARAM_FAMILIES[family][2] else ""
    assert all(r[-1] == expected and r[-3] != "" for r in rows)


def test_undefined_params_points_leave_empty_rows(capsys):
    code, out, err = run_cli(
        ["params", "--family", "single-gentile", "--n", "0..3", "--m", "2", "--oracle"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert rows == [
        ["single-gentile", "0", "2", "0", "0", "true"],
        ["single-gentile", "1", "2", "1", "1", "true"],
        ["single-gentile", "2", "2", "", "", ""],
        ["single-gentile", "3", "2", "", "", ""],
    ]
    assert err.splitlines() == [
        "warning: n=2 m=2: filling must lie in 0..1, got 2",
        "warning: n=3 m=2: filling must lie in 0..1, got 3",
    ]


def test_haldane_wu_without_sites_is_an_undefined_point(capsys):
    code, out, err = run_cli(
        ["count", "--family", "haldane-wu", "--M", "0..2", "--N", "1", "--g", "0",
         "--oracle"],
        capsys,
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[4:] for r in rows] == [
        ["", "interpolating-binomial", "", ""],
        ["1", "interpolating-binomial", "1", "true"],
        ["2", "interpolating-binomial", "2", "true"],
    ]
    assert err == "warning: M=0 N=1 g=0: need M >= 1 and N >= 0\n"


@pytest.mark.parametrize("family", ["cs-finite", "cs-average"])
def test_params_without_i1_is_a_clean_error(family, capsys):
    code, out, err = run_cli(
        ["params", "--family", family, "--M", "12", "--N", "2", "--p", "1", "--q", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --i1 is required for family '{family}'\n"


def test_cs_average_walks_M_as_the_M0_grid(capsys):
    base = ["params", "--family", "cs-average", "--p", "1", "--q", "2", "--N", "2",
            "--i1", "1"]
    code, out, _ = run_cli([*base, "--M", "9,10"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["family", "p", "q", "M0", "N", "i1", "value"]
    assert [r[3] for r in rows] == ["9", "10"]
    assert [r[-1] for r in rows] == ["1/2", "1/2"]
    # without --M, M0 = N p + q + i1 + 2
    _, out, _ = run_cli(base, capsys)
    assert [r[3] for r in parse_csv(out)[1]] == ["7"]


def test_side_is_checked_when_parsed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--family", "cs-finite", "--M", "13", "--i1", "5", "--N", "1",
              "--p", "2", "--q", "1", "--side", "right,rigth"])
    assert exc.value.code == 2
    assert "invalid parse_sides value: 'right,rigth'" in capsys.readouterr().err


def _dests(command, *argv):
    return vars(build_parser().parse_args([command, *argv]))


def test_every_option_a_family_reads_is_an_option_of_its_command():
    count = _dests("count", "--family", "cs")
    for options, *_ in COUNT_FAMILIES.values():
        assert set(options) <= set(count)
    for command in ("enumerate", "gram"):
        dests = _dests(command)
        for options, _ in RULES.values():
            assert set(options) <= set(dests)
    params = _dests("params", "--family", "cs-finite")
    for family, (columns, _, _) in PARAM_FAMILIES.items():
        if family not in cli._PARAM_POINTS:
            assert set(columns) <= set(params)


# (config key, value, command line, column, cell from the config, flag that
# overrides it, cell with that flag)
CONFIG_KEYS = [
    ("side", "left", ["params", "--family", "cs-finite", "--M", "13", "--i1", "5",
                      "--N", "1", "--p", "2", "--q", "1"],
     "side", "left", ["--side", "right"], "right"),
    ("alg", "bose", ["gram", "--multiset", "1,2"],
     "algebra", "bose", ["--alg", "fermi"], "fermi"),
    ("anchor", "literal", ["spectrum", "--N", "2", "--lambda", "1", "--L", "6.5"],
     "anchor", "literal", ["--anchor", "symmetric"], "symmetric"),
    ("family", "cs", ["enumerate", "--M", "6", "--N", "2", "--p", "1", "--q", "2"],
     "family", "cs", ["--family", "none"], "none"),
]


@pytest.mark.parametrize("key, value, argv, column, from_config, flag, from_flag",
                         CONFIG_KEYS, ids=[c[0] for c in CONFIG_KEYS])
def test_config_sets_options_that_have_defaults(
        key, value, argv, column, from_config, flag, from_flag, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    for extra, expected in (([], from_config), (flag, from_flag)):
        code, out, err = run_cli([*argv, "--config", str(cfg), *extra], capsys)
        assert code == 0, err
        header, rows = parse_csv(out)
        assert {r[header.index(column)] for r in rows} == {expected}


def test_config_side_is_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"side": "up"}))
    code, out, err = run_cli(CONFIG_KEYS[0][2] + ["--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: side must be left or right, got 'up'\n"


CS_COUNT = ["count", "--family", "cs", "--M", "8", "--N", "2", "--p", "1", "--q", "2"]


def _run_with_config(config, argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run_cli([*argv, "--config", str(cfg)], capsys)


def test_config_format_is_checked_against_its_choices(tmp_path, capsys):
    code, out, err = _run_with_config({"format": "xml"}, CS_COUNT, tmp_path, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: config key 'format': invalid choice 'xml' (choose from csv, json)\n"
    code, out, _ = _run_with_config({"format": "json"}, CS_COUNT, tmp_path, capsys)
    assert code == 0 and json.loads(out)[0]["value"] == 16


def test_config_list_means_its_entries_joined_with_commas(tmp_path, capsys):
    argv = ["count", "--family", "cs", "--N", "2", "--p", "1", "--q", "2"]
    code, out, err = _run_with_config({"M": [8, 9]}, argv, tmp_path, capsys)
    assert code == 0, err
    assert out == run_cli([*argv, "--M", "8,9"], capsys)[1]
    assert [row[1] for row in parse_csv(out)[1]] == ["8", "9"]
    code, out, err = _run_with_config({"M": [8, [9]]}, argv, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: config key 'M' must be a string, a number or a list")


def test_config_value_goes_through_the_option_type(tmp_path, capsys):
    argv = ["enumerate", "--family", "cs", "--M", "6", "--N", "2", "--p", "1", "--q", "2"]
    code, out, err = _run_with_config({"cap": "10"}, argv, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == "error: 21 candidate states for 2 particles on 6 sites exceeds cap 10\n"
    code, out, err = _run_with_config({"cap": 21}, argv, tmp_path, capsys)
    assert code == 0, err
    code, out, err = _run_with_config({"cap": "ten"}, argv, tmp_path, capsys)
    assert code == 2
    assert err == "error: invalid literal for int() with base 10: 'ten'\n"


def test_config_flags_take_only_json_booleans(tmp_path, capsys):
    code, out, err = _run_with_config({"oracle": "no"}, CS_COUNT, tmp_path, capsys)
    assert code == 2 and out == ""
    assert err == "error: config key 'oracle' must be true or false, got 'no'\n"
    for value, columns in ((True, 9), (False, 7)):
        code, out, err = _run_with_config({"oracle": value}, CS_COUNT, tmp_path, capsys)
        assert code == 0, err
        assert len(parse_csv(out)[0]) == columns


def test_config_key_of_no_command_is_an_error(tmp_path, capsys):
    for key in ("orcale", "help", "command"):
        code, out, err = _run_with_config({key: True}, CS_COUNT, tmp_path, capsys)
        assert code == 2 and out == ""
        assert err == f"error: unknown config key {key!r}\n"
    # keys of other commands (params, verify, spectrum, gram) are skipped
    shared = {"side": "left", "kind": "cs-average", "anchor": "literal", "rule-family": "cs"}
    code, out, err = _run_with_config(shared, CS_COUNT, tmp_path, capsys)
    assert (code, out, err) == run_cli(CS_COUNT, capsys)


def test_config_kind_takes_one_entry_per_check(tmp_path, capsys):
    expected = run_cli(["verify", "--kind", "binom-identity", "--kind", "cs-average"],
                       capsys)
    kinds = {"kind": ["binom-identity", "cs-average"]}
    assert _run_with_config(kinds, ["verify"], tmp_path, capsys) == expected
    single = run_cli(["verify", "--kind", "binom-identity"], capsys)
    assert _run_with_config({"kind": "binom-identity"}, ["verify"], tmp_path, capsys) == single


# A zero denominator is bad text like any other, not a disagreement: a flag
# gets argparse's usage error, --alg and a config file an error line; all
# exit 2.
@pytest.mark.parametrize("argv", [
    ["count", "--family", "haldane-wu", "--M", "5", "--N", "2", "--g", "1/0"],
    ["count", "--family", "real", "--M", "5", "--N", "2", "--lambda", "1/0"],
])
def test_a_zero_denominator_flag_is_a_usage_error(argv, capsys):
    code, out, err = _parser_exit(argv, capsys)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument {argv[-2]}: invalid parse_frac_values value: '1/0'\n")


def test_a_zero_denominator_algebra_is_an_error(capsys):
    code, out, err = run_cli(["gram", "--multiset", "1,2", "--alg", "quon:1/0"], capsys)
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


def test_a_zero_denominator_in_a_config_file_is_an_error(tmp_path, capsys):
    argv = ["count", "--family", "haldane-wu", "--M", "5", "--N", "2"]
    code, out, err = _run_with_config({"g": "1/0"}, argv, tmp_path, capsys)
    assert (code, out, err) == (2, "", "error: zero denominator in '1/0'\n")


# Each command's option strings in the order its --help lists them.
HELP_OPTIONS = {
    "count": ["--help", "--family", "--M", "--N", "--p", "--q", "--m", "--g", "--lambda",
              "--x-set", "--oracle", "--cap", "--config", "--format", "--out"],
    "enumerate": ["--help", "--family", "--M", "--N", "--p", "--q", "--m", "--x-set",
                  "--cap", "--config", "--format", "--out"],
    "gram": ["--help", "--multiset", "--alg", "--rule-family", "--M", "--N", "--p", "--q",
             "--m", "--x-set", "--cap", "--config", "--format", "--out"],
    "params": ["--help", "--family", "--M", "--N", "--p", "--q", "--i1", "--n", "--k", "--m",
               "--nlast", "--pattern", "--side", "--oracle", "--config", "--format", "--out"],
    "spectrum": ["--help", "--N", "--lambda", "--L", "--filling", "--anchor", "--config",
                 "--format", "--out"],
    "verify": ["--help", "--all", "--kind", "--config", "--format", "--out"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_help_lists_each_option_in_order(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    assert re.findall(r"^  (?:-h, )?(--[\w-]+)", options, re.M) == HELP_OPTIONS[command]


def test_help_tells_each_case_pair_of_options_apart(capsys):
    for command in COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
        metavars = dict(re.findall(r"^  (--\w+) (\S+)", options, re.M))
        for upper, lower in (("--M", "--m"), ("--N", "--n")):
            if upper in metavars and lower in metavars:
                assert metavars[upper] != metavars[lower], (command, upper, lower)


# A value of each option that differs from its default, as a config file
# gives it: text, True for a flag without text, a list for a repeatable flag.
OPTION_VALUES = {
    "family": "cs", "M": "2..4", "N": "1,3", "p": "2", "q": "1", "m": "3", "g": "1/2",
    "lambda": "1/2,1", "x-set": "3,1", "i1": "1..2", "n": "2", "k": "1", "nlast": "4",
    "pattern": "2,0,1", "multiset": "1,2,2", "L": "6.5,7", "filling": "0,1",
    "side": "left,right", "alg": "quon:1/2", "rule-family": "cs", "anchor": "literal",
    "format": "json", "out": "rows.csv", "cap": "10", "oracle": True, "all": True,
    "kind": ["binom-identity", "cs-average"],
}
# The options a command requires, which therefore come from its command line.
REQUIRED = {"count": ["--family", "cs"], "params": ["--family", "cs-finite"]}
CONFIG_CASES = [
    (command, option[2:], key)
    for command, options in HELP_OPTIONS.items()
    for option in options
    if option not in ("--help", "--config", *REQUIRED.get(command, []))
    for key in sorted({option[2:], option[2:].replace("-", "_")})
]


def _namespace(argv):
    args = build_parser().parse_args(argv)
    _apply_config(args)
    return {dest: value for dest, value in vars(args).items() if dest != "config"}


@pytest.mark.parametrize("command, option, key", CONFIG_CASES,
                         ids=[f"{c}-{k}" for c, _, k in CONFIG_CASES])
def test_config_value_equals_the_same_text_as_a_flag(command, option, key, tmp_path):
    value = OPTION_VALUES[option]
    if value is True:
        flags = [f"--{option}"]
    else:
        flags = [arg for text in (value if isinstance(value, list) else [value])
                 for arg in (f"--{option}", text)]
    argv = [command, *REQUIRED.get(command, [])]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    from_config = _namespace([*argv, "--config", str(cfg)])
    assert from_config == _namespace([*argv, *flags])
    assert from_config != _namespace(argv)


# Every count and params family, each grid defined at every point. The
# sha256 covers the exit code, stderr and stdout of each run with and without
# --oracle, in CSV and JSON; like the verify bytes, a change that alters them
# updates the hash and says why.
GOLDEN_RUNS = [
    ["count", "--family", "cs", "--M", "1..5", "--N", "1..3", "--p", "1", "--q", "2"],
    ["count", "--family", "cs-bose", "--M", "1..5", "--N", "1..3", "--q", "1,2"],
    ["count", "--family", "haldane-wu", "--M", "1..5", "--N", "1..3", "--g", "0,1"],
    ["count", "--family", "real", "--M", "1..5", "--N", "1..3", "--lambda", "1/2,1"],
    ["count", "--family", "x-fermi", "--M", "1..5", "--N", "1..3", "--x-set", "1,3"],
    ["count", "--family", "x-bose", "--M", "1..5", "--N", "1..3", "--x-set", "2"],
    ["count", "--family", "gentile", "--M", "1..4", "--N", "1..3", "--m", "2"],
    ["count", "--family", "para-fermi", "--M", "1..4", "--N", "1..3", "--p", "2"],
    ["count", "--family", "para-bose", "--M", "1..4", "--N", "1..3", "--p", "2"],
    ["count", "--family", "window-min", "--M", "1..5", "--N", "1..3", "--p", "0..2"],
    ["params", "--family", "cs-finite", "--M", "9", "--i1", "3", "--N", "1,2",
     "--p", "1", "--q", "1,2", "--side", "right,left"],
    ["params", "--family", "cs-average", "--p", "0..2", "--q", "1,2", "--N", "2",
     "--i1", "1"],
    ["params", "--family", "cs-haldane", "--p", "1,2", "--q", "1,2", "--nlast", "0,1"],
    ["params", "--family", "gentile-average", "--pattern", "1,2"],
    ["params", "--family", "single-gentile", "--n", "0..3", "--m", "4"],
    ["params", "--family", "para-fermi", "--M", "5,6", "--n", "1,2", "--k", "1",
     "--p", "2,3"],
    ["params", "--family", "para-bose", "--M", "5,6", "--n", "1,2", "--k", "1",
     "--p", "2,3"],
]
GOLDEN_RUNS_SHA256 = "d8d7a0a4ed26bf1a3b10998f14542ecb54e1361e40d9261d8e20f1a7011d74ba"


def test_count_and_params_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in GOLDEN_RUNS:
        for oracle in ([], ["--oracle"]):
            for fmt in ("csv", "json"):
                run = [*argv, *oracle, "--format", fmt]
                code, out, err = run_cli(run, capsys)
                digest.update(f"{shlex.join(run)}\n{code}\n{err}{out}".encode())
    assert digest.hexdigest() == GOLDEN_RUNS_SHA256


# Every rule family of `enumerate`, each on a small grid that includes N = 0
# and sites without successors, plus the 31,465-row cs listing and a refused
# search. The sha256 covers the exit code, stderr and stdout of each run in
# CSV and JSON; a change that alters them updates the hash and says why.
ENUMERATE_GOLDEN_RUNS = [
    ["enumerate", "--family", "none", "--M", "1..4", "--N", "0..3"],
    ["enumerate", "--family", "cs", "--M", "1..6", "--N", "0..3", "--p", "1", "--q", "2"],
    ["enumerate", "--family", "cs", "--M", "1..6", "--N", "0..3", "--p", "4", "--q", "1"],
    ["enumerate", "--family", "cs-bose", "--M", "1..5", "--N", "0..3", "--q", "2"],
    ["enumerate", "--family", "x-fermi", "--M", "1..6", "--N", "0..3", "--x-set", "1,3"],
    ["enumerate", "--family", "x-fermi", "--M", "1..7", "--N", "1..3", "--x-set", "6"],
    ["enumerate", "--family", "x-bose", "--M", "1..5", "--N", "0..3", "--x-set", "2"],
    ["enumerate", "--family", "window-min", "--M", "1..5", "--N", "0..3", "--p", "0..2"],
    ["enumerate", "--family", "window-max", "--M", "1..5", "--N", "0..3", "--p", "1,2"],
    ["enumerate", "--family", "gentile", "--M", "1..4", "--N", "0..4", "--m", "1..3"],
    ["enumerate", "--family", "total-cap", "--M", "1..4", "--N", "0..4", "--p", "2"],
    ["enumerate", "--family", "none", "--M", "10", "--N", "3", "--cap", "100"],
    ["enumerate", "--family", "cs", "--M", "34", "--N", "4", "--p", "2", "--q", "1"],
]
ENUMERATE_GOLDEN_SHA256 = "6e88db08a2a43e501200001743597c64c0544187987e2efffc31dbeefca28ebd"


def test_enumerate_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for argv in ENUMERATE_GOLDEN_RUNS:
        for fmt in ("csv", "json"):
            run = [*argv, "--format", fmt]
            code, out, err = run_cli(run, capsys)
            digest.update(f"{shlex.join(run)}\n{code}\n{err}{out}".encode())
    assert digest.hexdigest() == ENUMERATE_GOLDEN_SHA256


# Values the table read meets, in half the draws, instead of each option's
# OPTION_VALUES text: grids, rationals and words other options read, text no
# type reads, a zero denominator, a leading "-" and a word no option chooses.
VALUE_MENU = ["4", "2..6", "1/2", "6.5", "quon:1/2", "left,right", "cs-average", "",
              "x", "-1", "1/0", "2..1", "nope"]
OPTION_NAMES = sorted({name for _, options, _ in COMMANDS.values() for name in options})
# Each token is an exact option and its value two times in three, else one of
# the twists the table read must leave to argparse.
TOKEN_FORMS = ["pair"] * 12 + ["flag", "value", "abbreviation", "equals", "help", "other"]


@st.composite
def _argvs(draw):
    """A command, maybe its required options, then tokens from its option
    table: mostly an exact option and its value, sometimes a lone flag or
    value, an abbreviation, --opt=value, -h/--help or another command's
    option."""
    command = draw(st.sampled_from(list(COMMANDS)))
    options = {**COMMANDS[command][1], **cli._COMMON}
    argv = [command, *draw(st.sampled_from([REQUIRED.get(command, []), []]))]
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(list(options)))
        value = OPTION_VALUES.get(name)
        value = value[-1] if isinstance(value, list) else value
        if not isinstance(value, str) or draw(st.booleans()):
            value = draw(st.sampled_from([*options[name].get("choices", ()), *VALUE_MENU]))
        flag = options[name].get("action") == "store_true"
        argv += {
            "pair": [f"--{name}"] + ([] if flag else [value]),
            "flag": [f"--{name}"],
            "value": [value],
            "abbreviation": [f"--{name[:-1]}", value] if len(name) > 1 else [f"--{name}"],
            "equals": [f"--{name}={value}"],
            "help": [draw(st.sampled_from(["-h", "--help"]))],
            "other": [f"--{draw(st.sampled_from(OPTION_NAMES))}", value],
        }[draw(st.sampled_from(TOKEN_FORMS))]
    return argv


@functools.cache
def _parser():
    """One parser for every example: parse_args leaves it as it was."""
    return build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=400)
@given(_argvs())
def test_the_table_read_gives_argparse_namespace_or_none(argv):
    plain = cli._parse_plain(argv)
    parsed = _argparse_vars(argv)
    if parsed is None:
        assert plain is None
    else:
        assert plain is None or vars(plain) == parsed


def test_the_table_reads_every_pinned_run():
    runs = [[*argv, *oracle, "--format", fmt]
            for argv in GOLDEN_RUNS for oracle in ([], ["--oracle"]) for fmt in ("csv", "json")]
    runs += [[*argv, "--format", fmt] for argv in ENUMERATE_GOLDEN_RUNS for fmt in ("csv", "json")]
    for argv in runs:
        plain = cli._parse_plain(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_vars(argv)
    assert cli._parse_plain([]) is None and cli._parse_plain(["frob"]) is None


def _readme_commands():
    """The `fockcount ...` lines of the README's "Command line" code block,
    with continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("fockcount ")]


def _readme_case(argv):
    if argv[:3] == ["params", "--family", "cs-finite"] and "--oracle" in argv:
        return pytest.param(argv, marks=pytest.mark.xfail(
            strict=True,
            reason="params aborts where the definitional route refuses a point "
                   "(the cli.run_params FOUND line in CHANGES.md)"))
    return argv


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", [_readme_case(a) for a in README_COMMANDS],
                         ids=[f"{a[0]}-{i}" for i, a in enumerate(README_COMMANDS)])
def test_readme_command_line_examples_run(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    # 1 reports a disagreement, which is output, not an error
    assert code in (0, 1), err
    assert out.count("\n") > 1


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


def test_window_min_oracle_lists_nothing_so_the_cap_does_not_apply(capsys):
    code, out, err = run_cli(
        ["count", "--family", "window-min", "--M", "8", "--N", "2", "--p", "1",
         "--oracle", "--cap", "10"],
        capsys,
    )
    assert code == 0, err
    assert out.splitlines()[1] == "window-min,8,2,1,28,min-window-binomial,28,true"


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


def _parser_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


# Every help page, then three usage errors: a missing required option, an
# unknown command and a bad choice.
PARSER_EXITS = [["--help"], *([name, "--help"] for name in COMMANDS),
                ["count"], ["frob"], ["count", "--family", "nope"]]


@pytest.mark.parametrize("columns, terminal", [
    ("40", 57), ("80", 57), ("200", 57), ("0", 57), ("abc", 57),
    (None, 57), (None, OSError), ("0", OSError),
])
def test_help_exits_zero_and_a_usage_error_two(columns, terminal, monkeypatch, capsys):
    """At every width argparse's formatter may read: COLUMNS when it is a
    positive integer, else the terminal's, else 80 columns."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def terminal_size(fd):
        if terminal is OSError:
            raise OSError("not a terminal")
        return os.terminal_size((terminal, 24))

    monkeypatch.setattr(os, "get_terminal_size", terminal_size)
    codes = [_parser_exit(argv, capsys)[0] for argv in PARSER_EXITS]
    assert codes == [0] * (len(COMMANDS) + 1) + [2] * 3


@pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, 1), (["frob"], 2, 2)],
                         ids=["help", "frob"])
def test_top_level_usage_is_one_line_on_a_narrow_terminal(argv, code, stream, monkeypatch,
                                                          capsys):
    """argparse would wrap the command choices and "..." onto lines of their
    own at 40 columns; the parser's own usage string keeps them on one."""
    monkeypatch.setenv("COLUMNS", "40")
    result = _parser_exit(argv, capsys)
    assert result[0] == code
    assert result[stream].splitlines()[0] == (
        "usage: fockcount [-h] {count,enumerate,gram,params,spectrum,verify} ...")


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_refused_enumerate_point_writes_no_row(fmt, tmp_path, capsys):
    # M = 3 lists at once; M = 100 needs C(104, 5) multisets, above the cap
    target = tmp_path / "rows.csv"
    argv = ["enumerate", "--M", "3,100", "--N", "5", "--format", fmt]
    code, out, err = run_cli([*argv, "--out", str(target)], capsys)
    assert code == 2 and out == "" and "exceeds cap" in err
    assert not target.exists()
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and "exceeds cap" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_closed_pipe_ends_a_listing_quietly(fmt):
    # 123,410 rows, far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "fockcount", "enumerate", "--family", "none",
         "--M", "40", "--N", "4", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert first == (b"[\n" if fmt == "json" else b"family,M,N,index,state\n")
    assert err == b""


def _listing_peak_kb(argv):
    """Run main(argv) in a fresh interpreter; its exit code and peak RSS in kB."""
    code = (
        f"import sys; sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})\n"
        "from fockcount.cli import main\n"
        f"rc = main({argv!r})\n"
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
        "print(rc, int(hwm[0].split()[1]))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, peak_kb = map(int, proc.stdout.split())
    return rc, peak_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_a_listing_is_written_as_it_is_made(tmp_path):
    # 278,257 lines: held at once, the rows and their text peak near 80 MB
    target = tmp_path / "rows.csv"
    argv = ["enumerate", "--family", "none", "--M", "30", "--N", "5", "--out", str(target)]
    rc, peak_kb = _listing_peak_kb(argv)
    assert rc == 0
    assert peak_kb < 30 * 1024
    text = target.read_text()
    assert text.count("\n") == 278_257
    rows = [("none", 30, 5, i, state) for i, state in enumerate(enumerate_allowed(30, 5))]
    assert text == render(["family", "M", "N", "index", "state"], rows, "csv")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
def test_a_json_listing_is_written_as_it_is_made(tmp_path):
    target = tmp_path / "rows.json"
    argv = ["enumerate", "--family", "none", "--M", "30", "--N", "5", "--format", "json",
            "--out", str(target)]
    rc, peak_kb = _listing_peak_kb(argv)
    assert rc == 0
    assert peak_kb < 30 * 1024
    objects = json.loads(target.read_text())
    states = enumerate_allowed(30, 5)
    assert len(objects) == len(states) == 278_256
    for i in (0, -1):
        index = i % len(states)
        assert objects[i] == {"family": "none", "M": 30, "N": 5, "index": index,
                              "state": list(states[i])}


# Each rule family's options, by dest, over values in its rule's domain.
_LISTING_OPTIONS = {
    "none": {},
    "cs": {"p": st.integers(0, 3), "q": st.integers(1, 3)},
    "cs-bose": {"q": st.integers(1, 3)},
    "x-fermi": {"x_set": st.sets(st.integers(1, 6), min_size=1)},
    "x-bose": {"x_set": st.sets(st.integers(1, 6), min_size=1)},
    "window-min": {"p": st.integers(0, 3)},
    "window-max": {"p": st.integers(1, 3)},
    "gentile": {"m": st.integers(1, 3)},
    "total-cap": {"p": st.integers(1, 4)},
}


@st.composite
def _listings(draw):
    """An enumerate family, its option values, an M grid (M <= 9), an N grid
    (N <= 4) and a format."""
    family = draw(st.sampled_from(list(RULES)))
    values = {name: draw(strategy) for name, strategy in _LISTING_OPTIONS[family].items()}
    ms = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    ns = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    return family, values, ms, ns, draw(st.sampled_from(["csv", "json"]))


@given(listing=_listings())
# total-cap 2: N = 4 lists nothing before N = 0 and N = 2 list; cap 1 lists nothing at all
@example(listing=("total-cap", {"p": 2}, [3, 1], [4, 0, 2], "csv"))
@example(listing=("total-cap", {"p": 2}, [3, 1], [4, 0, 2], "json"))
@example(listing=("total-cap", {"p": 1}, [2], [2, 3], "csv"))
@example(listing=("total-cap", {"p": 1}, [2], [2, 3], "json"))
def test_a_listing_is_render_of_enumerate_allowed(listing, tmp_path_factory):
    family, values, ms, ns, fmt = listing
    target = tmp_path_factory.mktemp("listing") / "rows"
    argv = ["enumerate", "--family", family, "--M", ",".join(map(str, ms)),
            "--N", ",".join(map(str, ns)), "--format", fmt, "--out", str(target)]
    for name, value in values.items():
        text = ",".join(map(str, sorted(value))) if name == "x_set" else str(value)
        argv += [f"--{name.replace('_', '-')}", text]
    assert main(argv) == 0
    options, build = RULES[family]
    rule = build(*[tuple(sorted(values[name])) if name == "x_set" else values[name]
                   for name in options])
    rows = [(family, m, n, i, state) for m in ms for n in ns
            for i, state in enumerate(enumerate_allowed(m, n, rule))]
    header = ["family", "M", "N", "index", "state"]
    assert target.read_bytes().decode() == render(header, rows, fmt)


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_an_out_file_that_cannot_be_opened_is_an_error(command, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.csv"
    argv = [command, "--family", "cs", "--M", "3", "--N", "2", "--p", "1", "--q", "1",
            "--out", str(target)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("sink", ["out", "stdout"])
def test_a_failed_write_is_an_error(command, sink):
    # /dev/full refuses every write with ENOSPC, as a full disk does
    argv = [sys.executable, "-m", "fockcount", command, "--family", "cs",
            "--M", "3", "--N", "2", "--p", "1", "--q", "1"]
    if sink == "out":
        proc = subprocess.run([*argv, "--out", "/dev/full"], capture_output=True, text=True,
                              timeout=60)
    else:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 28] No space left on device\n"


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


def test_gram_orbit_refusal_names_the_given_multiset(capsys):
    code, out, err = run_cli(["gram", "--multiset", "3,12,3,5,8,9,3"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: the orbit of (3, 3, 3, 5, 8, 9, 12) has 840 words, "
                   "more than the 720 a Gram matrix is built for\n")


def test_gram_grid_keeps_to_the_cap(capsys):
    argv = ["gram", "--M", "8", "--N", "3"]
    code, out, err = run_cli([*argv, "--cap", "10"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: 120 candidate states for 3 particles on 8 sites exceeds cap 10\n"
    code, out, err = run_cli([*argv, "--cap", "120"], capsys)
    assert code == 0, err
    assert len(parse_csv(out)[1]) == 120


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_gram_grid_beyond_the_default_cap_refused_at_once():
    # Unguarded, this grid point lists C(204, 5), about 2.8e9, multisets; the
    # child's 1 GiB address space turns that into a MemoryError, not a swap.
    code = ("import sys, time; from fockcount.cli import main; t = time.perf_counter(); "
            "rc = main(['gram', '--M', '200', '--N', '5']); "
            "print(rc, time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    rc, seconds = proc.stdout.split()
    assert rc == "2" and float(seconds) < 1
    assert proc.stderr == "error: 2802350040 candidate states for 5 particles on 200 sites " \
                          "exceeds cap 2000000\n"


@pytest.mark.parametrize("argv", [
    ["params", "--family", "single-gentile", "--n", "1", "--m", "3"],
    ["spectrum", "--N", "2", "--lambda", "1", "--L", "6"],
    ["verify", "--kind", "cs-oracle"],
], ids=lambda argv: argv[0])
def test_cap_is_an_option_only_where_it_is_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--cap", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --cap 1" in capsys.readouterr().err
    # a config file shared with count, enumerate or gram may still hold it
    assert _run_with_config({"cap": 1}, argv, tmp_path, capsys) == run_cli(argv, capsys)


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
