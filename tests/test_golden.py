"""Every command recorded in divbench/golden.json keeps its output exactly.

Each command runs in-process through `cli.main`, in an empty working
directory with no DIVINT_* variables, and must give the recorded exit code
and the recorded SHA-256 of its stdout.  The global reading of `openprob`
runs in no benchmark workload, so its output is pinned here as well, and so
are the text and CSV forms of the listings, whose benchmark runs are JSON,
the ground sweep `matching --k` in all three formats, and oracle
listings in both engines' family order, with the two n = 6 sweeps cheap
enough to run here.  `VIEWS` pins a text or CSV form of every command.
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
    # JSON listings of the shapes the benchmark's 1^6 runs do not reach:
    # flat with u = 1 and u = 2, and deep
    "extremal --sig 2,1,1,1,1,1 --list --format json": {
        "exit": 0,
        "sha256": "d5d6f53333911d2f3ec97e485040de44"
                  "8570d50236b0561b2cce3668f9fc01a4",
    },
    "extremal --sig 3,2,2 --list --format json": {
        "exit": 0,
        "sha256": "3d95ca11538d117016b3ea5ba7ed1c7b"
                  "b9c02b65cab70316f03f09101c422338",
    },
    "matching --sig 2,2,1,1,1,1 --format json": {
        "exit": 0,
        "sha256": "790f8069ebe1e7633c5b0216bc6ed417"
                  "b0067c8c2a5b0cba0752ab87a9276a3b",
    },
    "matching --sig 3,2,2 --format json": {
        "exit": 0,
        "sha256": "aab17dc8b4c6e0356d4263335d1e8999"
                  "bdeac40a21ca445c232ccc80ec86bf02",
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
    "verify --max-n 6 --max-exp 2 --format json": {
        "exit": 0,
        "sha256": "e8eadb191a4fd541e8260c794e47a8e5"
                  "873de9fe54ffe6b8d16e6f384b5f7448",
    },
}


# Text and CSV forms not pinned above: normalization notices, the
# single-number commands, census summaries, pairings, every kind of openprob
# cell and a sweep, and verify.
VIEWS = {
    "bound --sig 1,2,3": {
        "exit": 0,
        "sha256": "fa873a34aba82844025b91682ab82046"
                  "a794f3bf07a9584349fdb1bd77324689",
    },
    "bound --sig 1,2,3 --format csv": {
        "exit": 0,
        "sha256": "e2977386179423c51275fae711813eda"
                  "97153db9f1b998f11e005e8833680eab",
    },
    "bound --n 420": {
        "exit": 0,
        "sha256": "a1fb50e6c86fae1679ef3351296fd671"
                  "3411a08cf8dd1790a4fd05fae8688164",
    },
    "bound --n 420 --format csv": {
        "exit": 0,
        "sha256": "823cfdc61d484b7b634b6137949b7cf6"
                  "94cf5efa62a79618907f1c4c1a22af54",
    },
    "count --sig 1,2,3": {
        "exit": 0,
        "sha256": "8856b47ddebb97d63e7ea8fcd4d28a27"
                  "59c8378a7f7cf6dfda982ea4407eec13",
    },
    "count --sig 1,2,3 --format csv": {
        "exit": 0,
        "sha256": "608a6b35e99c3d2da2b661825bc3364b"
                  "60b9b173155b689eedd45d80fae28b62",
    },
    "count --n 420": {
        "exit": 0,
        "sha256": "7de1555df0c2700329e815b93b32c571"
                  "c3ea54dc967b89e81ab73b9972b72d1d",
    },
    "count --n 420 --format csv": {
        "exit": 0,
        "sha256": "a7becc21e6fd5598a275569aed193d87"
                  "b29a37def17306b06a8a1de921b2b8cc",
    },
    "extremal --sig 1,2,2": {
        "exit": 0,
        "sha256": "da9e4de1dd9c8be4d5adb54290521c39"
                  "dbab37c6e623fb60dd569b17c3e74d3f",
    },
    "extremal --sig 1,2,2 --format csv": {
        "exit": 0,
        "sha256": "83ad66d2b1feab0800fa747b0c67dd66"
                  "91f8856a36d46de94e35d72b449949e1",
    },
    "antichains --k 4 --list": {
        "exit": 0,
        "sha256": "e37bfe3fdf201289478986fe60f6238f"
                  "4b9ea1f109264cdd2fe0e867f629e0cd",
    },
    "antichains --k 4 --list --format csv": {
        "exit": 0,
        "sha256": "39d1a39afd79003e5de6df930c844e6f"
                  "1243d4a61ad1aeb6ad2fb6983d630f95",
    },
    "oracle --sig 2,1,1": {
        "exit": 0,
        "sha256": "cd65a8a431fd0362bf09220cf6b392a5"
                  "21033eb1b51711b66a65d6edfb84a4ff",
    },
    "oracle --sig 2,1,1 --format csv": {
        "exit": 0,
        "sha256": "61f677e86d118e74e68900e23546341f"
                  "504018449267cfaa7c0d91978d2b78a8",
    },
    "oracle --sig 2,1,1 --method direct-clique": {
        "exit": 0,
        "sha256": "d8544434a6d367d4be8ece7e4c6decb8"
                  "ac393915782e7df7f2a9d1b67d0724c2",
    },
    "oracle --sig 2,1,1 --method direct-clique --format csv": {
        "exit": 0,
        "sha256": "754b08cbc005ee0a7cbad6c03096744a"
                  "aa0eab24e0fd76a5e23b994e6f905e7b",
    },
    "oracle --sig 1,1,2 --list": {
        "exit": 0,
        "sha256": "9c996748424860f67fa2d68535922dce"
                  "b5d97a16f4160318404394baec3ce757",
    },
    "matching --sig 1,1,1,1": {
        "exit": 0,
        "sha256": "5e8e9c31dd30642a0643af9e71032658"
                  "23ebd242b4da1ac5a9f082d368d89cac",
    },
    "matching --sig 1,1,1,1 --list": {
        "exit": 0,
        "sha256": "5a985f065f6bb59061e16bd37059d5cd"
                  "48d122d278045f8039a8d65034a919d0",
    },
    "matching --sig 1,2 --list": {
        "exit": 0,
        "sha256": "6247c42d52b7a3e89f19375dd72aba04"
                  "5e1d52a9573993f8d1e107a970923be2",
    },
    "openprob --mode omega --sig 2,1,1 --t 2": {
        "exit": 0,
        "sha256": "6d8bb40615a307bee6527e549e2c3828"
                  "5bff2c42769cbd089ff23270d3a03057",
    },
    "openprob --mode omega --sig 2,1,1 --t 2 --format csv": {
        "exit": 0,
        "sha256": "4750bb3e1d14b1ba511f9eacbf7eef48"
                  "2c59d576ad91957f8a45caaceb09c806",
    },
    "openprob --mode omega --sig 1,1 --t 3": {
        "exit": 0,
        "sha256": "38d8767663138f24846d27ce063c291c"
                  "9566f090a47bcc8349a486ba1641acc3",
    },
    "openprob --mode omega --sig 1,1 --t 3 --format csv": {
        "exit": 0,
        "sha256": "687876f2bb15d7d2dfb22a9ef2d2e719"
                  "ce918166ebf05c258f55738e6ce047f2",
    },
    "openprob --mode omega --sig 1,1,1 --t 1 --allow-t1": {
        "exit": 0,
        "sha256": "f7a3716cc8decf15f738ddbc27d12f2f"
                  "8c6b6a737abf9519d9c4f27d48bf4927",
    },
    "openprob --mode omega --sig 1,1,1 --t 1 --allow-t1 --format csv": {
        "exit": 0,
        "sha256": "95cd5eb5d17208b5ebd395f239d6ed5a"
                  "38eba1abb1b701c4f4ab77a657670d82",
    },
    "openprob --mode omega --sig 1,1,2,1 --t 2 --list": {
        "exit": 0,
        "sha256": "901ba68790b5370a92b6e9541e00d6fa"
                  "63ef5104547c9c306f05ac5130c73fea",
    },
    "openprob --mode omega --sig 1,1,2,1 --t 2 --list --format csv": {
        "exit": 0,
        "sha256": "81bde8c8bed52a5fec260ed27cd4a979"
                  "262609c7f9da6122d538c2bee3b1939a",
    },
    "openprob --mode omega --sig 1,1,1,1 --t 2 --list": {
        "exit": 0,
        "sha256": "11643ec252fa45de842ab09cee056fe1"
                  "6a2146f0841387285557a88f4699eaf5",
    },
    "openprob --mode omega --sig 1,1,1,1 --t 2 --list --format csv": {
        "exit": 0,
        "sha256": "af680a013460f6512cdf5bb1b47e8301"
                  "7972ed95757cf04a94ef6e6e8805838e",
    },
    "openprob --mode bigomega --max-n 2 --max-exp 2 --t 2,3": {
        "exit": 0,
        "sha256": "dbd59d17c9b29f49608a9a00aefc5ae0"
                  "9a29727f41f43fe607cc66971ec728fa",
    },
    "openprob --mode bigomega --max-n 2 --max-exp 2 --t 2,3 --format csv": {
        "exit": 0,
        "sha256": "c4577a7dc65f37b891fb2d55f271d03e"
                  "c0f3c462648aed9f07247efaa06eaf43",
    },
    "verify --max-n 2 --max-exp 2": {
        "exit": 0,
        "sha256": "cbdd81e6b40ceb7375371f329a35a1e9"
                  "6111733d9cd294edaee94a3a4a548b9d",
    },
    "verify --max-n 2 --max-exp 2 --format csv": {
        "exit": 0,
        "sha256": "d8a1f560795dfcc03e42d43eb0057f92"
                  "f61ac3a7864f15b4ed46ef87d5652b12",
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


@pytest.mark.parametrize("command", sorted(VIEWS))
def test_view_output(command, monkeypatch, tmp_path, capsys):
    _check_output(command, VIEWS[command], monkeypatch, tmp_path, capsys)


def _check_output(command, expected, monkeypatch, tmp_path, capsys):
    for key in list(os.environ):
        if key.startswith("DIVINT_"):
            monkeypatch.delenv(key)
    monkeypatch.chdir(tmp_path)
    code = cli.main(command.split())
    out = capsys.readouterr().out.encode()
    assert code == expected["exit"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]
