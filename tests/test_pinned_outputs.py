"""Digests of the outputs that must stay byte for byte.

Each digest was recorded with Cayley graphs loaded from a cache directory.
Every test here runs without one, so it also checks that the memory-only
cache gives the bytes the disk tier gives. A refactor that is meant to keep
outputs keeps these digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cayleyprop
from cayleyprop import BLAS_THREAD_VARS
from cayleyprop.cayley import CayleyCache
from cayleyprop.cli import main
from cayleyprop.graphcore import emit_edge_list, gen_graph

# SHA-256 of emit_edge_list(Cay(SL(2, Z_n))) for n = 2..30, concatenated.
EDGE_LISTS_SHA256 = "0edb61345d74698f03058b1dbd61e1cbca394618279c784c7db9014793253b3a"

# SHA-256 of the CSV `python -m cayleyprop sweep --v-min 6 --v-max 360`
# writes; perfbench/references.json holds the same digest.
SWEEP_CSV_SHA256 = "8c62d904613f95f887443a40e7b45c2fabf7d789c5b6245447c2af6f5e074141"

# SHA-256 over the sorted file names and bytes of every file `rewire
# --layers 3` writes into its output directory for REWIRE_GRAPHS.
REWIRE_EXPORT_SHA256 = {
    "CGP": "49eb1b1be6fdd480a0429a58b1150ff6d7c7993bfc60f50ce13af8d0ce816452",
    "EGP": "5b58d1457e319d317dceadb1eb767c44965dabc2e405efb7ccc37c0bbb9e2811",
    "CGPLast": "1e120acfb70295441d981eaf389ca561273c0232d70861d63775bd5c43f20bbd",
    "CGPEvery": "813192a0b33167cab5a5ca486326c95022dfc60b8a2627c2b272457987e594dc",
}

# (n, m, seed) of BA graphs that land on moduli 2, 3 and 4, one of them an
# exact fit of Cay(SL(2, Z_3)).
REWIRE_GRAPHS = [(5, 1, 0), (12, 2, 1), (20, 2, 2), (24, 3, 3), (30, 1, 4)]


def edge_lists_digest() -> str:
    cache = CayleyCache()
    digest = hashlib.sha256()
    for n in range(2, 31):
        digest.update(emit_edge_list(cache.graph(n)).encode())
    return digest.hexdigest()


def sweep_csv(tmp_path: Path) -> bytes:
    """The full sweep CSV from the module entry, which pins BLAS to one
    thread itself when the caller leaves the thread variables unset."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(Path(cayleyprop.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "sweep.csv"
    subprocess.run(
        [sys.executable, "-m", "cayleyprop", "sweep", "--v-min", "6", "--v-max", "360",
         "--out", str(out), "--manifest", str(tmp_path / "sweep.manifest.json")],
        env=env,
        check=True,
        capture_output=True,
        timeout=300,
    )
    return out.read_bytes()


def rewire_digest(tmp_path: Path, scheme: str) -> str:
    graphs = []
    for i, (n, m, seed) in enumerate(REWIRE_GRAPHS):
        name = f"ba{i}"
        (tmp_path / f"{name}.edgelist").write_text(emit_edge_list(gen_graph("BA", n, seed, m=m)))
        graphs.append({"name": name, "graph": f"{name}.edgelist"})
    dataset = tmp_path / "dataset.json"
    dataset.write_text(json.dumps({"graphs": graphs}))
    out_dir = tmp_path / scheme
    code = main(
        ["rewire", str(dataset), "--scheme", scheme, "--layers", "3",
         "--out-dir", str(out_dir), "--manifest", str(tmp_path / f"{scheme}.manifest.json")]
    )
    assert code == 0
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_cayley_edge_lists():
    assert edge_lists_digest() == EDGE_LISTS_SHA256


def test_sweep_csv(tmp_path):
    assert hashlib.sha256(sweep_csv(tmp_path)).hexdigest() == SWEEP_CSV_SHA256


@pytest.mark.parametrize("scheme", sorted(REWIRE_EXPORT_SHA256))
def test_rewire_exports(tmp_path, scheme):
    assert rewire_digest(tmp_path, scheme) == REWIRE_EXPORT_SHA256[scheme]
