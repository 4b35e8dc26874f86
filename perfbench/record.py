"""Record the reference outputs the benchmark checks against.

Run once, from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

It writes ``perfbench/references.json``. The sweep reference comes from one
``expansion_sweep(6, 360)`` call, the path the ``sweep`` command takes, so
the benchmark's one-call-per-row loop is checked against it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (first: it pins the BLAS thread count before numpy loads)

from cayleyprop import cayley, nn, spectral  # noqa: E402
import workloads  # noqa: E402
from workloads import SIZES, TRAIN_SEED_POOL, sha256  # noqa: E402

def record_sweep(cache_dir: Path) -> dict:
    cfg = SIZES["full"]["sweep"]
    rows = spectral.expansion_sweep(cfg["v_min"], cfg["v_max"], cayley.CayleyCache(cache_dir))
    csv = spectral.sweep_to_csv(rows)
    return {
        "v_min": cfg["v_min"],
        "v_max": cfg["v_max"],
        "csv_sha256": sha256(csv.encode()),
        "rows": {
            str(r.v): sha256(line.encode())[:16]
            for r, line in zip(rows, csv.splitlines()[1:])
        },
    }


def record_train(size: str, cache_dir: Path) -> dict:
    cfg = SIZES[size]["train"]
    cache = cayley.CayleyCache(cache_dir)
    refs = {}
    for seed in range(TRAIN_SEED_POOL):
        dataset = nn.gen_sum_task("BA", cfg["train_size"], seed, test_size=cfg["test_size"])
        config = nn.TrainConfig(
            epochs=cfg["epochs"],
            seed=seed,
            num_layers=2,
            layer_kind="gin",
            scheme="CGP",
            train_sizes=(cfg["train_size"],),
        )
        (row,) = nn.train(nn.scheme_plan_builder("CGP", 2, cache=cache), dataset, config)
        refs[str(seed)] = [row.train_error, row.test_error]
        print(f"train {size} seed={seed} {refs[str(seed)]}", file=sys.stderr)
    return refs


def main() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        refs = {
            "recorded_at": run.git_sha(),
            "sweep": record_sweep(Path(tmp) / "sweep"),
            "train": {size: record_train(size, Path(tmp) / "train") for size in SIZES},
        }
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
