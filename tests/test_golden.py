"""Every command recorded in divbench/golden.json keeps its output exactly.

Each command runs in-process through `cli.main`, in an empty working
directory with no DIVINT_* variables, and must give the recorded exit code
and the recorded SHA-256 of its stdout.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from divint import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "divbench" / "golden.json")
    .read_text()
)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, monkeypatch, tmp_path, capsys):
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == GOLDEN[command]["exit"]
    assert hashlib.sha256(out).hexdigest() == GOLDEN[command]["sha256"]
