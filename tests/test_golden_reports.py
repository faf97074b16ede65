"""Golden reports: every subcommand's output, byte for byte.

Each case runs one command line through ``cli.main`` with ``--out`` and
compares the exit code (0 for all of them) and the sha256 of the written
report with a stored value.  JSON reports are hashed without their
``runtime_ms`` line, the only field that varies between runs; CSV reports
are hashed whole.  A change to any verdict, number, key or formatting
shows up here.
"""

import hashlib
import os
import re
import stat

import pytest

from prime34.cli import main

_RUNTIME_LINE = re.compile(rb'^  "runtime_ms": [^\n]*\n', re.MULTILINE)

# command line -> sha256 of its report, less the runtime_ms line
GOLDEN = {
    "verify-direct --nmax 1000":
        "82b06b502c807b43525a0bcd4d10cddf7c9c6e19c50e37638c3c093daf824178",
    "verify-direct --nmax 1000 --witnesses":
        "e34be9841f6146a2bc14e1cb6326d832e1fbaca091d1c9e565b5b92dd262df80",
    "verify-direct --nmax 20000 --witnesses --format csv":
        "9d6aa7018c68850286e8786b4df6fd04a6083de97f9ee8bc5cdfa164e0b80b62",
    "verify-corollary --nmax 1000 --witnesses":
        "08fd4b718a04a87121ae3a94cd6b4f3b212f8618325a30e1d5430b8c09bf9e2e",
    "verify-corollary --nmax 20000 --format csv":
        "e049406453c2ed92f8ba23acdba640eab6718c9004b0101cc7d2fb29a03e4e44",
    "lower-bound --n 222":
        "f8639af18a8461bf4654c12cc7b48a0ef046df6f408a724cc7489d9365f77b62",
    "lower-bound --n 100000":
        "34a55dc43ac159dec7d5709b5f6eb820203583bf0b733e54e097f7cc3b5f03ee",
    "verify-analytic --samples 162755,325510,651020":
        "6e22cb3d53ca59e1427a7aeb46464bc632b0bf3dfff939050e500781c9061772",
    "verify-analytic":
        "a610b229c0984779549312c7f7d74bfa1a2f1f4e1dae8e3f6af975d4eecae84d",
    "decompose --n 1":
        "c10b0e68d769583f654325ace8d38a3826c335a55e8f5f05ab142f964b42fd5f",
    "decompose --n 4":
        "1aae8316197b060cb9df32b9e64073958d49d9ec9bfd2d25e06efe2db445f522",
    "decompose --n 5":
        "a6a5e5c53ecb96637e16b5bc987d1df48ebf24519742f1b062777b43f9f8abe3",
    "decompose --n 15":
        "25e6a0f72a346cc4483002e2f2e9581ce5923cd94abcfe67791b02f0efa2c60c",
    "decompose --n 16":
        "1ac8303e363c2c4ff059355b55a226415b12f4b005c9ee9e76d9ed0affddb83e",
    "decompose --n 52":
        "49e9c216c7f779075d44d1e2a455b09793bd8f7b61671fbf73a6c91708a94181",
    "decompose --n 53":
        "1a33c9e5e66d5d41c6d19bb328653e568546dc8808bc8b5545900d5abfed20c4",
    "decompose --n 221":
        "4c889dfa6811eae5c7c1fd6232b642570b42add20470dfe0396c37765f0f649a",
    "decompose --n 222":
        "d788999d7f847cd9481306f49589ee2b53e6c7b0705e11529bfc074581cf3adb",
    "decompose --n 5000":
        "a6efdc5e62f5935e5ccbfa51ff29a7051e3eafea9de55d8fb52e8e263b863c37",
    "decompose --n 5001":
        "03499f61210a31de43aa3642c9efabc2748e8655795b17d0a86df6e8be582ae2",
    "observations --nmin 1 --nmax 400":
        "05c430af2d54df737b807a68b61ce961a9fe049641f345eb44774122d9840891",
    "observations --nmin 1 --nmax 400 --format csv":
        "258f4b7b755a50dddb19aef2bfa9b79583a8a1848af1ca276000caccbbf1b9b7",
    "observations --nmin 4990 --nmax 5000":
        "06cc56a8d9e7816875efbc36092b4cfa5f4eb0ee9ae32278f3246f23b103af2a",
    "observations --nmin 4990 --nmax 5000 --format csv":
        "752ed88f139f989d024b2baa570021f303cfc63f46f9f572a4e7e2f8bf3abef6",
}


def report_digest(command: str, path) -> tuple:
    """Exit code and sha256 of the report written by ``prime34 command``."""
    code = main([*command.split(), "--out", str(path)])
    text = path.read_bytes()
    if b'"runtime_ms"' in text:
        text, removed = _RUNTIME_LINE.subn(b"", text)
        assert removed == 1
    return code, hashlib.sha256(text).hexdigest()


@pytest.mark.parametrize("command", GOLDEN)
def test_report_matches_golden(command, tmp_path):
    assert report_digest(command, tmp_path / "report") == (0, GOLDEN[command])


_CSV = "verify-direct --nmax 20000 --witnesses --format csv"


@pytest.mark.parametrize(
    "old_size, max_write",
    [(1 << 20, None), (16, None), (1 << 20, 4096)],
    ids=["longer", "shorter", "longer-in-4096-byte-writes"],
)
@pytest.mark.parametrize("command", ["lower-bound --n 222", _CSV])
def test_report_over_an_existing_file_matches_golden(
    command, old_size, max_write, tmp_path, monkeypatch
):
    # the report overwrites the file in place and cuts it to its length;
    # with max_write, os.write takes at most that many bytes per call
    if max_write:
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:max_write]))
    path = tmp_path / "report"
    path.write_bytes(b"\xff" * old_size)
    path.chmod(0o600)
    inode = path.stat().st_ino
    assert report_digest(command, path) == (0, GOLDEN[command])
    after = path.stat()
    assert after.st_ino == inode and stat.S_IMODE(after.st_mode) == 0o600
    assert (after.st_size < old_size) == (old_size == 1 << 20)
