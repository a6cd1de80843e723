"""Every command recorded in divbench/golden.json keeps its output exactly.

Each command runs in-process through `cli.main`, in an empty working
directory with no DIVINT_* variables, and must give the recorded exit code
and the recorded SHA-256 of its stdout.  The global reading of `openprob`
runs in no benchmark workload, so its output is pinned here as well, and so
are the text and CSV forms of the listings, whose benchmark runs are JSON,
the ground sweep `matching --k` in all three formats, and oracle
listings in both engines' family order, with the one n = 6 sweep cheap
enough to run here.
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

GLOBAL_MAXIMALITY = {
    "openprob --mode bigomega --max-n 4 --max-exp 3 --t 1,2,3 --allow-t1 "
    "--maximality global --format json": {
        "exit": 0,
        "sha256": "b6540c3a2823887b965a82d66a155d29"
                  "98dbeb643d52683d5960345b02dd8645",
    },
    "openprob --mode omega --sig 3 --t 1 --allow-t1 --maximality global "
    "--list": {
        "exit": 0,
        "sha256": "74e62aa4b5e08889b45df89a5cdcc3c0"
                  "8eee3ff900e781d9f01d527fbc04f234",
    },
    "openprob --mode omega --sig 1,1,1,1,1,1,1,1 --t 4 --maximality global "
    "--format json": {
        "exit": 0,
        "sha256": "ce7f909173d7e9d0f320910002669fca"
                  "b9a47b02477564bc35f3fc4d9706c2f5",
    },
}

LISTING_FORMATS = {
    "extremal --sig 1,1,1,1,1,1 --list": {
        "exit": 0,
        "sha256": "4c279785ae9fe0b19f7609d12e45172b"
                  "5eb81cdc761f780bfb59a9e96cd91b42",
    },
    "extremal --sig 2,1,1,1,1,1 --list --format csv": {
        "exit": 0,
        "sha256": "1812d53dd4deaaa7c6a320d607b88cb3"
                  "d2f60963eff6da3575762d47f2b2a1b9",
    },
    "extremal --sig 3,2,2 --list": {
        "exit": 0,
        "sha256": "ac2d6c4e823dbdb21dc5ec7ce82a35ee"
                  "3fe56c47e85820405c0b6ef1cba9732c",
    },
    "matching --sig 1,1,1,1,1,1 --list": {
        "exit": 0,
        "sha256": "3cc2073417f01afc0bf49f29ff3b3922"
                  "5e9385e6d7371f3c98e7b0d465518fe8",
    },
    "matching --sig 1,1,1,1,1,1 --format csv": {
        "exit": 0,
        "sha256": "0a98c2904fa54a64b9f5793911414814"
                  "731d776e7834ae356ece1c0f008a1f1d",
    },
}

GROUND_PAIRINGS = {
    "matching --k 4 --list": {
        "exit": 0,
        "sha256": "7c59d825abadb80a09c2f14423250f50"
                  "dcd6cf9a5f6f9a8c3da5fc70c3f43699",
    },
    "matching --k 5 --format json": {
        "exit": 0,
        "sha256": "f61afeace51ec4ae3f3abeaeeaed15a1"
                  "c8615eaca0eac06d8590509dee56f0e5",
    },
    "matching --k 3 --format csv": {
        "exit": 0,
        "sha256": "9e91a770d167eef34d8691513140017b"
                  "ff898d8f5f6f75098c96f04768f038f4",
    },
}


ORACLE_LISTINGS = {
    "oracle --sig 2,1,1,1 --list": {
        "exit": 0,
        "sha256": "dd502d5d97583186d6081ff6bf59950d"
                  "339e0280666ab0dde8d3afbcc54742b5",
    },
    "oracle --sig 2,1,1,1,1 --list --format json": {
        "exit": 0,
        "sha256": "dd4558e1f1a732267f9c826630f77fbd"
                  "354d3fa049dc6141097e8af354d962e6",
    },
    "oracle --sig 1,1,1,1,1 --method direct-clique --list --format json": {
        "exit": 0,
        "sha256": "15faf14f92cdd2a73185f15b1b4d899b"
                  "690fae5938f64726021578aa1628c808",
    },
    "verify --max-n 6 --max-exp 1 --format json": {
        "exit": 0,
        "sha256": "dbcf8a37723c2717da4fd1027d5c0e5a"
                  "cc61259f27df0f2c1c07dd8436250a3a",
    },
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, GOLDEN[command], monkeypatch, tmp_path, capsys)


@pytest.mark.parametrize("command", sorted(GLOBAL_MAXIMALITY))
def test_global_maximality_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, GLOBAL_MAXIMALITY[command], monkeypatch, tmp_path,
                  capsys)


@pytest.mark.parametrize("command", sorted(LISTING_FORMATS))
def test_listing_format_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, LISTING_FORMATS[command], monkeypatch, tmp_path,
                  capsys)


@pytest.mark.parametrize("command", sorted(GROUND_PAIRINGS))
def test_ground_pairing_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, GROUND_PAIRINGS[command], monkeypatch, tmp_path,
                  capsys)


@pytest.mark.parametrize("command", sorted(ORACLE_LISTINGS))
def test_oracle_listing_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, ORACLE_LISTINGS[command], monkeypatch, tmp_path,
                  capsys)


def _check_output(command, expected, monkeypatch, tmp_path, capsys):
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == expected["exit"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]
