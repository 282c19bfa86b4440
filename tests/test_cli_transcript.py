"""Replay of the CLI golden transcript (tests/cli_transcript.json).

Each recorded call is run again in process through polycf.cli.main and
must give the same exit code, stdout and stderr byte for byte; each demo
must print the same stdout.  Regenerate the file with
``python3 tests/cli_transcript.py`` when an output changes on purpose.
"""

import json

import pytest

from cli_transcript import DATA, run_argv, run_demo

with open(DATA, encoding="utf-8") as _fh:
    _RECORD = json.load(_fh)


@pytest.mark.parametrize("case", _RECORD["cli"], ids=[" ".join(c["argv"])[:60] or "no-args" for c in _RECORD["cli"]])
def test_cli_call_matches_the_transcript(case):
    assert run_argv(case["argv"]) == case


@pytest.mark.parametrize("case", _RECORD["demos"], ids=lambda c: c["demo"])
def test_demo_stdout_matches_the_transcript(case):
    assert run_demo(case["demo"]) == case
