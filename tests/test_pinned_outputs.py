"""The pinned-output runner (`scripts/pinned_outputs.py`): its rows still parse, and a
wrong digest makes a row miss."""
import hashlib
import importlib.util
from pathlib import Path

import pytest

from mmsfair.cli import build_parser, main

_SPEC = importlib.util.spec_from_file_location(
    "pinned_outputs", Path(__file__).resolve().parent.parent / "scripts" / "pinned_outputs.py"
)
runner = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(runner)

CLI_PINS = [pin for pin in runner.PINS if pin.command.startswith(runner.CLI + " ")]


def test_the_table_has_every_pinned_command():
    assert len(runner.PINS) == 15
    assert len(CLI_PINS) == 13


@pytest.mark.parametrize("pin", CLI_PINS, ids=lambda pin: pin.name)
def test_every_cli_row_parses(pin):
    # A renamed or removed flag fails here, not only in a full run of the table.
    argv = pin.command.split()[2:] + (["--out", "scan.csv"] if pin.csv_sha256 else [])
    assert build_parser().parse_args(argv).command == argv[0]


def test_a_row_with_a_wrong_digest_misses(capsys):
    assert main(["dominates", "2", "3", "5", "7"]) == 1
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    wrong = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    pin = runner.Pin("dominates, one digit off", f"{runner.CLI} dominates 2 3 5 7", 30, 1, wrong)
    assert runner.main((pin,)) == 1
    # The subprocess printed what `main` prints: only the pinned digit differs.
    line, summary = capsys.readouterr().out.splitlines()
    assert line.startswith("MISS  exit 1 ")
    assert line.endswith(f" {digest}  dominates, one digit off")
    assert summary == "0 of 1 pinned outputs hold"
