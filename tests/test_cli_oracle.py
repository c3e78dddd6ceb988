"""``cli.main`` against ``cli_oracle``, which reads every command line with argparse's two-level pass:
the same exit code, stdout and stderr on each command line, and a count of the parser passes that
the direct hand-off to a command's parser saves."""

import argparse

import pytest

import cli_oracle
from hhaudit import cli

FN = ("--fn", "x^2", "--a", "0", "--b", "2")
INTEGRATE = ("integrate", "--fn", "x^2", "--a", "0", "--b", "1", "--err", "1e-3")
NORM_I = ("special", "normI", "--p", "0.5", "--x", "1")

COMMAND_LINES = [
    # help at each level, before and after other options, and an abbreviated --help
    ("-h",), ("--help",), ("--he",), ("verify", "-h"), ("integrate", "--help"), ("special", "-h"),
    ("verify", "--target", "k1", "-h"), ("special", "normI", "--h"),
    # no command, an option before it, an unknown or abbreviated command, a leading "--"
    (), ("--pretty",), ("verifY", "--target", "k1", *FN), ("ver", "--target", "k1", *FN),
    ("--", "verify", "--target", "k1", *FN), ("-x", "verify"),
    # well-formed calls of each command, findings and uncertified runs included
    ("verify", "--target", "k1", *FN), ("verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2"),
    ("verify", "--target", "all", "--fn", "exp(x)", "--trials", "3", "--seed", "7"),
    ("verify", "--target", "thm4", *FN, "--pretty"), ("verify", "--target", "prop8", "--a", "1", "--b", "2"),
    INTEGRATE, (*INTEGRATE, "--pretty"), ("integrate", "--fn", "exp(x)", "--a", "0", "--b", "2", "--err", "1e-12"),
    NORM_I, ("special", "qdigamma", "--q", "0.5", "--x", "1", "--order", "1"), (*NORM_I, "--pretty"),
    # abbreviations, one of them ambiguous (--t: --target or --trials)
    ("verify", "--tar", "k1", "--f", "x^2", "--a", "0", "--b", "2", "--pre"), ("verify", "--t", "k1", *FN),
    ("integrate", "--fn", "x^2", "--a", "0", "--b", "1", "--e", "1e-3"), ("special", "qdigamma", "--q", "0.5", "--x", "1", "--o", "3"),
    # "=" forms and repeated options, the last one winning
    ("verify", "--target=k1", "--fn=x^2", "--a=0", "--b=2"), ("integrate", "--fn=x^2", "--a=0", "--b=1", "--err=1e-3"),
    ("special", "normI", "--p=0.5", "--x=1"), ("verify", "--target", "k1", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2"),
    ("special", "normI", "--p", "1", "--p", "0.5", "--x", "1"),
    # extra tokens after each command
    ("verify", "--target", "k1", *FN, "extra"), ("verify", "--target", "k1", *FN, "--bogus", "3"),
    (*INTEGRATE, "extra", "--zzz"), (*NORM_I, "extra"), ("special", "normI", "besselK", "--p", "0.5", "--x", "1"),
    # the end-of-options marker after a command
    ("verify", "--target", "k1", *FN, "--", "5"), (*NORM_I, "--"), ("special", "--", "normI", "--p", "0.5", "--x", "1"),
    # values that start with a minus
    ("verify", "--target", "eq1", "--fn", "x^2", "--a", "-1e-3", "--b", "1"),
    ("verify", "--target", "eq1", "--fn", "-x^2+5", "--a", "1", "--b", "2"),
    ("special", "besselK", "--p", "-.5e1", "--x", "2"), ("integrate", "--fn", "x", "--a", "-1", "--b", "1", "--err", "1e-3"),
    ("verify", "--target", "k1", "--fn", "x^2", "--a", "-", "--b", "2"),
    # a bad choice, type or required option, and errors raised by the command itself
    ("verify", "--target", "nonsense", *FN), ("verify", "--target", "k1", "--fn", "x^2", "--a", "one", "--b", "2"),
    ("special", "besselX", "--p", "1", "--x", "1"), ("special", "qdigamma", "--q", "0.5", "--x", "1", "--order", "2"),
    ("integrate", "--fn", "x^2", "--a", "0", "--b", "1"), ("verify",), ("special",), ("integrate",),
    ("verify", "--target", "k1", "--fn", "x^^2", "--a", "0", "--b", "1"), ("special", "normI", "--p", "0.5"),
]


def _run(capsys, main, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", COMMAND_LINES)
def test_main_prints_what_the_two_level_parse_printed(capsys, argv):
    assert _run(capsys, cli.main, argv) == _run(capsys, cli_oracle.main, argv)


def test_the_end_of_options_marker_takes_no_value(capsys):
    # the one intended difference: the reference joins "--" and "-5" into the option "--=-5"
    argv = ("verify", "--target", "k1", *FN, "--", "-5")
    (old_code, _, old_err), (code, _, err) = _run(capsys, cli_oracle.main, argv), _run(capsys, cli.main, argv)
    assert (old_code, code) == (2, 2)
    assert "error: ambiguous option: --=-5 could match --help, --target," in old_err
    assert err.endswith("hhaudit: error: unrecognized arguments: -- -5\n")


@pytest.mark.parametrize("argv, passes", [
    (("verify", "--target", "k1", *FN), (0, 1)),
    (INTEGRATE, (0, 1)),
    (NORM_I, (0, 1)),
    (("-h",), (1, 0)),
    ((), (1, 0)),
    (("nope", "--target", "k1"), (1, 0)),
])
def test_only_a_line_without_a_command_runs_the_top_level_pass(capsys, monkeypatch, argv, passes):
    # a command line that starts with a command's name is read by that command's parser alone
    parser = cli._build_parser()
    counts = {"top": 0, "command": 0}
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        counts["top" if self is parser else "command"] += 1
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    _run(capsys, cli.main, argv)
    assert (counts["top"], counts["command"]) == passes
