"""Golden CLI digests: the same bytes and exit codes on a fixed command list.

``golden_cli.json`` maps each command line to sha256(stdout),
sha256(stderr) and the exit code of ``cli.main``.  A change that must keep
the program's output unchanged is checked by this test unchanged.  After a
deliberate output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from pcfcert.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

J = " --format json"
COMMANDS = [
    # README examples
    "gleason --d 2 --n 3",
    "misiurewicz --d 3 --m 2 --n 1" + J,
    "factor --d 2 --gleason-n 2 --k 3 --verify" + J,
    "stability-cert --d 2 --misiurewicz 2,1 --alpha 4 --kmax 12",
    "f-irred-cert --d 2 --gleason-n 2 --k 2 --i 1",
    "disc-check --d 3 --gleason-n 2 --x0 3 --k 2",
    "ideal-audit --d 3 --misiurewicz 2,1 --i 1",
    "nonabelian-cert --d 2 --gleason-n 3 --case periodic-2 --alpha 0",
    # acceptance criterion 9
    "gleason --d 2 --n 3" + J,
    "factor --d 2 --gleason-n 2 --k 3 --verify --seed 1" + J,
    "stability-cert --d 2 --misiurewicz 2,1 --alpha 4 --kmax 12 --seed 1" + J,
    "nonabelian-cert --d 2 --gleason-n 3 --case periodic-2 --alpha 0 --seed 1" + J,
    "ideal-audit --d 3 --misiurewicz 2,1 --i 1 --seed 1" + J,
    # factorizations and their certificates
    "factor --d 2 --gleason-n 2 --k 5 --verify" + J,
    "factor --d 2 --gleason-n 3 --k 5 --verify" + J,
    "factor --d 2 --gleason-n 4 --k 5 --verify" + J,
    "factor --d 3 --gleason-n 2 --k 3 --verify" + J,
    "factor --d 2 --gleason-n 3 --k 8 --verify" + J,
    "factor --d 2 --gleason-n 3 --k 11 --verify --budget 5000" + J,
    "factor --d 3 --gleason-n 2 --k 2",
    "verify-factor --d 2 --gleason-n 3 --k 4" + J,
    "f-irred-cert --d 2 --gleason-n 2 --k 5" + J,
    "f-irred-cert --d 2 --gleason-n 3 --k 5" + J,
    "f-irred-cert --d 2 --gleason-n 4 --k 5" + J,
    "f-irred-cert --d 3 --gleason-n 2 --k 3" + J,
    "f-irred-cert --d 2 --gleason-n 3 --k 8" + J,
    "f-irred-cert --d 2 --gleason-n 3 --k 10" + J,
    "f-irred-cert --d 2 --gleason-n 3 --k 5 --i 2" + J,
    # the mod-prime fallback over F_{3^3}: the primary route needs f^4
    "f-irred-cert --d 2 --gleason-n 3 --k 2 --i 1 --budget 8",
    "f-irred-cert --d 2 --gleason-n 3 --k 2 --i 1 --budget 8" + J,
    # parameter polynomials and orbits
    "misiurewicz --d 2 --m 3 --n 1" + J,
    "misiurewicz --d 3 --m 2 --n 2" + J,
    "misiurewicz --d 5 --m 2 --n 1" + J,
    "misiurewicz --d 2 --m 3 --n 1",
    "gleason --d 2 --n 4" + J,
    "orbit --d 2 --i 4",
    "orbit --d 3 --i 3" + J,
    "exact-type --d 2 --gleason-n 3",
    "exact-type --d 3 --misiurewicz 2,1" + J,
    "exact-type --d 2 --misiurewicz 2,2" + J,
    # discriminant recursion at k = 4
    "disc-check --d 2 --gleason-n 2 --x0 3 --k 4" + J,
    "disc-check --d 2 --misiurewicz 2,1 --x0 2*c-1 --k 4" + J,
    "disc-check --d 3 --gleason-n 2 --x0 c+4 --k 4" + J,
    "disc-check --d 3 --gleason-n 2 --x0 1/2 --k 2",
    "disc-check --d 3 --misiurewicz 2,1 --x0 3 --k 4" + J,
    "disc-check --d 2 --gleason-n 4 --x0 2*c+3 --k 4" + J,
    # ideal-power audits
    "ideal-audit --d 2 --misiurewicz 2,1 --i 1" + J,
    "ideal-audit --d 2 --misiurewicz 2,2 --i 2" + J,
    "ideal-audit --d 3 --misiurewicz 2,1 --i 1" + J,
    # the six non-abelian case drivers
    "nonabelian-cert --d 2 --gleason-n 3 --case periodic-1 --alpha 6" + J,
    "nonabelian-cert --d 2 --gleason-n 3 --case periodic-2 --alpha 0" + J,
    "nonabelian-cert --d 3 --gleason-n 2 --case periodic-3 --alpha 6" + J,
    "nonabelian-cert --d 3 --gleason-n 2 --case periodic-4 --alpha 0" + J,
    "nonabelian-cert --d 2 --misiurewicz 2,3 --case preperiodic-1 --alpha 4" + J,
    "nonabelian-cert --d 3 --misiurewicz 2,1 --case preperiodic-2 --alpha c^2" + J,
    # stability certificates
    "stability-cert --d 2 --misiurewicz 2,2 --alpha 4 --kmax 8" + J,
    "stability-cert --d 3 --gleason-n 2 --alpha 6 --kmax 3" + J,
    "stability-cert --d 2 --gleason-n 3 --alpha -2 --kmax 4",
    "stability-cert --d 2 --misiurewicz 2,1 --alpha 4/3 --kmax 3",
    # N = 1 at a backend-B prime: the exact Eisenstein fallback
    "stability-cert --d 2 --misiurewicz 3,1 --alpha 4 --kmax 1" + J,
    # error inputs
    "misiurewicz --d 4 --m 2 --n 1",
    "gleason --d 1 --n 2",
    "gleason --d 0 --n 2",
    "f-irred-cert --d 2 --gleason-n 2 --k 1 --i 5",
    "stability-cert --d 2 --gleason-n 2 --alpha 1/0 --kmax 3",
    "stability-cert --d 2 --gleason-n 2 --alpha 1 --kmax 4",
    "stability-cert --d 2 --gleason-n 2 --alpha 2 --kmax 0",
    "exact-type --d 2 --gleason-n 2 --misiurewicz 2,1",
    "exact-type --d 2 --gleason-n 2 --precision 0",
    "factor --d 2 --misiurewicz 2,1 --k 3 --verify",
    "nonabelian-cert --d 2 --gleason-n 3 --case periodic-3 --alpha 6",
    "stability-cert --d 2 --gleason-n 2 --alpha=-- --kmax 3",
    "exact-type --d 2 --misiurewicz=--",
]


def run(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(shlex.split(command))
    return {
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def test_command_list_matches_golden_file():
    assert list(json.loads(GOLDEN.read_text())) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_same_bytes(command):
    assert run(command) == json.loads(GOLDEN.read_text())[command]


def test_same_bytes_with_warm_caches():
    # the second run reuses every field, iterate and prime of the first
    golden = json.loads(GOLDEN.read_text())
    for _ in range(2):
        assert [run(c) for c in COMMANDS] == [golden[c] for c in COMMANDS]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: run(c) for c in COMMANDS}, indent=1) + "\n")
    sys.exit(0)
