"""Checks that hold in every test.

Every in-process CLI request of the suite that the one-pass parse takes
must give the Namespace argparse gives for the same words.
"""

import argparse

import pytest

from circmix import cli


@pytest.fixture(autouse=True)
def one_pass_parse_equals_argparse(monkeypatch):
    parse_exact = cli._Parser.parse_exact

    def checked(parser, argv):
        args = parse_exact(parser, argv)
        if args is not None:
            try:
                want = argparse.ArgumentParser.parse_args(parser, argv)
            except SystemExit:  # main would read this as a usage error
                pytest.fail(f"argparse rejects {argv}")
            assert args == want, argv
        return args

    monkeypatch.setattr(cli._Parser, "parse_exact", checked)
