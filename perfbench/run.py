"""cayleyprop benchmark: one workload per process, every metric with its unit.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0

Run it from the repository root; it imports the library from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics of an untraced run;
with ``--trace 1`` it reports per-layer metrics from a traced run. The
second-to-last line of standard output holds the machine and run facts, the
last line the result. A failed output check exits with code 1, a missing
library or a BLAS that does not run on one thread with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# One BLAS thread, set before numpy loads. Two OpenBLAS threads on a
# shared 2-vCPU machine wait on each other whenever the second vCPU is
# busy: with one competing process the sweep ran 2.5x slower on two
# threads and 1.2x slower on one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cayleyprop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cayleyprop" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import spans
    import workloads

    facts = machine_facts(np)
    if facts["blas_threads"] is not None and facts["blas_threads"] != BLAS_THREADS:
        print(
            f"error: BLAS uses {facts['blas_threads']} threads, not {BLAS_THREADS}",
            file=sys.stderr,
        )
        return 2
    facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)

    workload = workloads.make_workload(args.workload)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            metrics, tally, run_facts = workloads.measure_traced(workload, args.seed, workdir)
            units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        else:
            metrics, tally, run_facts = workloads.measure(
                workload, args.seed, args.seconds, workdir
            )
            units = workloads.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    facts.update(run_facts)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
