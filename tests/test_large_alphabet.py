"""Solves of 60-130-letter products, pinned bit for bit.

The sweep CSV pins cover products of at most 12 letters.  These pin the
sizes that the large families reach: Z/64 * Z/64, the Hecke group
Z/2 * Z/61, uniform Z/60 * Z/60 and a seeded full-support law on 120
letters, plus a small product with the non-abelian factor S3.  Each row
holds gamma, h, v and Q at full precision, the iteration count, the
SHA-256 of the bytes of q, and the traffic residual.

Multi-threaded LAPACK may round the Newton solve of a 120-letter system
differently with a different number of threads, so the walks are solved in
a child interpreter with BLAS pinned to one thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import hashlib, json
import numpy as np
from freewalk.groups import FreeProduct, free_product_of_cyclics, make_cyclic, make_finite_group
from freewalk.metrics import metrics_report
from freewalk.traffic import StepDistribution, solve_walk
from freewalk.walkspec import hecke_simple, uniform_per_factor, zkzk_simple
from oracles import S3_TABLE

def dirichlet(product, seed):
    rng = np.random.default_rng(seed)
    return product, StepDistribution(product, rng.dirichlet(np.ones(product.nletters)))

walks = {
    "zkzk_simple(64)": zkzk_simple(64),
    "hecke_simple(61)": hecke_simple(61),
    "uniform Z60*Z60": uniform_per_factor([60, 60], [0.5, 0.5]),
    "dirichlet Z41*Z40*Z42": dirichlet(free_product_of_cyclics(41, 40, 42), 7),
    "dirichlet S3*Z2*Z4": dirichlet(
        FreeProduct([make_finite_group(S3_TABLE), make_cyclic(2), make_cyclic(4)]), 5),
}
for name, (product, mu) in walks.items():
    report = solve_walk(product, mu)
    m = metrics_report(product, mu, report)
    print(json.dumps([name, product.nletters, m.gamma, m.entropy, m.volume, m.quality,
                      report.iterations, hashlib.sha256(report.q.values.tobytes()).hexdigest(),
                      report.traffic_residual]))
"""

# name, letters, gamma, h, v, Q, iterations, sha256(q bytes), traffic residual
PINNED = [
    ["zkzk_simple(64)", 126, 0.33333333333333326, 0.5493061443340537, 4.143134726391533,
     0.3977467646671045, 6, "d8722fd2170ddb22ac6cb8673199f39150854069e76cc963da5b84921b61593f",
     1.3877787807814457e-17],
    ["hecke_simple(61)", 61, 0.22222222222222213, 0.23104905985500834, 2.047172281111051,
     0.5078814220673483, 7, "126a04bb616e33a07c7f904ad86c0c3aadab61b9a39b23056895275c4110a92b",
     5.551115123125783e-17],
    ["uniform Z60*Z60", 118, 0.49152542372881447, 2.0042133198858663, 4.077537443905719,
     1.0000000000000004, 5, "830f2a0e1f781c5c7def8fcf6270626c3d2fcb1df72ae9cff0e1226a63bd6323",
     5.204170427930421e-18],
    ["dirichlet Z41*Z40*Z42", 120, 0.6538476978246095, 2.7525529171394063, 4.381887720058054,
     0.9607222143781464, 5, "80ae1137e103bf148f89a9b46aa41f727fa84301efd09a91b7f9858885745084",
     6.938893903907228e-18],
    ["dirichlet S3*Z2*Z4", 9, 0.2981178141004552, 0.46625069135999353, 1.6768574855928973,
     0.9326858900695604, 6, "c9eb43fbb035b60bc7d990bb2c2820a1c2e497ff2a699c16bc5a0473988b1f04",
     5.551115123125783e-17],
]


def test_large_alphabet_results_are_pinned():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert [json.loads(line) for line in out.splitlines()] == PINNED
