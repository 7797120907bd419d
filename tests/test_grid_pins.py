"""Byte pins of three grid commands, which solve each grid as one batch.

The digests are the SHA-256 of standard output as the one-walk solver
printed it, before the grids moved to ``solve_batch``; every row of a
batch must reproduce it bit for bit.  The z2z3 sweep has 5,151 rows, 102
of them tagged ``NonGeneratingSetError``; the Z/64 * Z/64 sweep solves
126-letter walks; the sup search solves 999 walks on Z/4 * Z/4.

As in ``test_large_alphabet.py``, the commands run in a child interpreter
with BLAS pinned to one thread, since multi-threaded LAPACK may round a
large Newton solve differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED = {
    "sweep --family z2z3 --resolution 0.01":
        "38cae930d031b0464746fd07e75ca4069b06e1210b2d3221b574c5b90c4a1555",
    "sweep --family quality-zkzk-minimal --k 64 --resolution 0.02":
        "7848ae40139f3db3849ea2292025cf0eb68abd0a8a60aa2cb575dddb1db4b03b",
    "quality --family zkzk-simple --k 4 --gens minimal --sup --resolution 1e-3":
        "035e583d78b3b5aa7701e6c68724c0bab401d38ab6ea992a108723830f2af498",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_grid_output_is_pinned(command):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run([sys.executable, "-m", "freewalk", *command.split()], env=env,
                         capture_output=True, check=True).stdout
    assert hashlib.sha256(out).hexdigest() == PINNED[command]
