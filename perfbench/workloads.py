"""The benchmark workloads and the loop that measures them.

Each workload has a set-up (inputs and cache state, timed as ``setup_s``),
a pass (the timed phase, a list of ops each timed on its own) and a check
that compares every op's output with ``references.json``. Library calls go
through module attributes (``spectral.expansion_sweep``, not a name imported
at load time) so that a traced run sees them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cayleyprop import cayley, modgroup, nn, spectral

import spans

REFERENCES = Path(__file__).resolve().parent / "references.json"
# Set-ups per run, for a median: at least two, and more until they add up
# to SETUP_MIN_S, so that cheap set-ups still give a steady median.
SETUP_MIN_S = 5.0
SETUP_MAX_REPEATS = 200

# The train workload takes its dataset seed from this many recorded seeds,
# so every run has a reference to be checked against.
TRAIN_SEED_POOL = 32
# Train and test error may move this much (absolute) from the reference:
# a reordered float sum legitimately flips a sample whose logit is near 0.
TRAIN_ERROR_TOL = 0.025

_SEED_TAG_SWEEP = 0x53575050

# Full sizes are the benchmark; tiny sizes serve the smoke tests.
SIZES = {
    "full": {
        "train": {"train_size": 1000, "test_size": 200, "epochs": 2},
        "sweep": {"v_min": 6, "v_max": 360, "moduli": range(2, 9)},
    },
    "tiny": {
        "train": {"train_size": 40, "test_size": 20, "epochs": 2},
        "sweep": {"v_min": 6, "v_max": 40, "moduli": range(2, 5)},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Host speed. A shared 2-vCPU VM was measured running up to twice as slow
# for minutes at a time, which would swamp any change to the library (see
# README.md, "Host scaling"). So every timing
# is taken between two runs of a fixed piece of reference work that calls
# no library code, and scaled to a host on which that work takes
# REFERENCE_WORK_S: a timing of t seconds with the reference work at r
# seconds is reported as t * REFERENCE_WORK_S / r. The reference work mixes
# interpreter work and a LAPACK call, as the workloads do.
REFERENCE_WORK_S = 1e-3
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((100, 100))
_REFERENCE_MATRIX += _REFERENCE_MATRIX.T


def _reference_work() -> float:
    t0 = time.perf_counter()
    pairs = {i: (i, i + 1) for i in range(4000)}
    sum(a for a, _ in pairs.values())
    np.linalg.eigvalsh(_REFERENCE_MATRIX)
    return time.perf_counter() - t0


def _host_timed(fn):
    """Run fn; return its host-scaled seconds, its wall seconds and its result."""
    before = _reference_work()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = _reference_work()
    return wall * 2 * REFERENCE_WORK_S / (before + after), wall, out


def _timed(fn):
    """Run one op; an op that raises is a failed op, and the run goes on."""

    def op():
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            print(f"op failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return exc

    seconds, _, out = _host_timed(op)
    return seconds, out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Train:
    """One sum-task learning run under CGP with two GIN layers; one op."""

    def __init__(self, size: str, refs: dict):
        self.cfg = SIZES[size]["train"]
        self.refs = refs["train"][size]

    def setup(self, seed: int, workdir: Path):
        data_seed = seed % TRAIN_SEED_POOL
        dataset = nn.gen_sum_task(
            "BA", self.cfg["train_size"], data_seed, test_size=self.cfg["test_size"]
        )
        cache = cayley.CayleyCache(workdir / "cache")
        cache.graph(cayley.smallest_modulus(dataset.train[0].graph.node_count))
        return data_seed, dataset, cache

    def run_pass(self, state, workdir: Path):
        data_seed, dataset, cache = state
        config = nn.TrainConfig(
            epochs=self.cfg["epochs"],
            seed=data_seed,
            num_layers=2,
            layer_kind="gin",
            scheme="CGP",
            train_sizes=(self.cfg["train_size"],),
        )
        builder = nn.scheme_plan_builder("CGP", 2, cache=cache)
        seconds, rows = _timed(lambda: nn.train(builder, dataset, config))
        return [seconds], [rows]

    def check(self, state, outputs, workdir: Path):
        data_seed = state[0]
        rows = outputs[0]
        if isinstance(rows, Exception) or len(rows) != 1 or rows[0].failed:
            return [False], True, {}
        ref_train, ref_test = self.refs[str(data_seed)]
        row = rows[0]
        ok = (
            abs(row.train_error - ref_train) <= TRAIN_ERROR_TOL
            and abs(row.test_error - ref_test) <= TRAIN_ERROR_TOL
        )
        facts = {
            "data_seed": data_seed,
            "train_error": row.train_error,
            "test_error": row.test_error,
        }
        return [ok], True, facts


class Sweep:
    """The truncation sweep, one ``expansion_sweep(v, v)`` call per op.

    The set-up fills a cache directory with moduli 2..8. Each pass opens a
    fresh ``CayleyCache`` on it, as every ``cayleyprop sweep`` process after
    the first on a machine does, so the pass loads the groups from disk.
    """

    def __init__(self, size: str, refs: dict):
        self.cfg = SIZES[size]["sweep"]
        self.refs = refs["sweep"]

    def setup(self, seed: int, workdir: Path):
        cache = cayley.CayleyCache(workdir / "cache")
        for n in self.cfg["moduli"]:
            cache.graph(n)
        vs = np.arange(self.cfg["v_min"], self.cfg["v_max"] + 1)
        order = np.random.default_rng([seed, _SEED_TAG_SWEEP]).permutation(vs)
        return cache.directory, [int(v) for v in order]

    def run_pass(self, state, workdir: Path):
        cache_dir, order = state
        cache = cayley.CayleyCache(cache_dir)
        latencies, rows = [], {}
        for v in order:
            seconds, out = _timed(lambda: spectral.expansion_sweep(v, v, cache))
            latencies.append(seconds)
            rows[v] = out
        return latencies, rows

    def check(self, state, outputs, workdir: Path):
        ok = []
        for v in state[1]:
            out = outputs[v]
            good = not isinstance(out, Exception) and len(out) == 1
            if good:
                line = spectral.sweep_to_csv(out).splitlines()[1]
                good = sha256(line.encode())[:16] == self.refs["rows"][str(v)]
            ok.append(good)
        run_ok = True
        full = (self.cfg["v_min"], self.cfg["v_max"]) == (self.refs["v_min"], self.refs["v_max"])
        if full and all(ok):
            rows = [outputs[v][0] for v in sorted(outputs)]
            run_ok = sha256(spectral.sweep_to_csv(rows).encode()) == self.refs["csv_sha256"]
        return ok, run_ok, {}


def make_workload(name: str, size: str = "full"):
    refs = json.loads(REFERENCES.read_text())
    if name == "train":
        return Train(size, refs)
    if name == "sweep":
        return Sweep(size, refs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("train", "sweep")
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    run_ok: bool = True

    def add(self, workload, state, outputs, workdir: Path) -> dict:
        ok, run_ok, facts = workload.check(state, outputs, workdir)
        self.attempted += len(ok)
        self.failed += ok.count(False)
        self.run_ok = self.run_ok and run_ok
        return facts

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.run_ok


def _settle() -> None:
    """Collect, then exempt everything alive (the set-up's inputs) from
    later collections, so that the collector's passes over objects no pass
    allocated stay out of the timed passes."""
    gc.collect()
    gc.freeze()


def _one_pass(workload, state, workdir: Path, tally: Tally):
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()
    t0 = time.perf_counter()
    latencies, outputs = workload.run_pass(state, workdir)
    seconds = time.perf_counter() - t0
    facts = tally.add(workload, state, outputs, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return seconds, latencies, facts


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def measure(workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, Tally, dict]:
    """Untraced run: repeated set-ups, then passes for ``seconds``.

    A further pass starts only while the wall time of the passes so far
    plus the last pass stays within ``seconds``; the first pass always
    runs. Every metric but ``peak_rss_mb`` is host-scaled (see
    ``_host_timed``); ``run_s`` sums a pass's scaled op times. The facts
    keep the wall-clock medians of set-up and pass, the latter with the
    reference work it ran between ops.
    """
    setup_dir = workdir / "setup"
    setups, setups_wall, state = [], [], None
    while len(setups) < 2 or (
        sum(setups_wall) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        state = None
        shutil.rmtree(setup_dir, ignore_errors=True)
        scaled, wall, state = _host_timed(lambda: workload.setup(seed, setup_dir))
        setups.append(scaled)
        setups_wall.append(wall)
    _settle()
    tally, pass_wall, pass_s, latencies = Tally(), [], [], []
    try:
        while True:
            took, lat, facts = _one_pass(workload, state, workdir / "pass", tally)
            pass_wall.append(took)
            pass_s.append(sum(lat))
            latencies.extend(lat)
            if sum(pass_wall) + took > seconds:
                break
    finally:
        gc.unfreeze()
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(pass_s),
        "op_p50_ms": _percentile_ms(latencies, 50),
        "op_p90_ms": _percentile_ms(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    facts.update(
        passes=len(pass_s),
        ops=len(latencies),
        setups=len(setups),
        setup_wall_s=statistics.median(setups_wall),
        run_wall_s=statistics.median(pass_wall),
    )
    return metrics, tally, facts


def _products(n: int) -> int:
    return modgroup.sl2_order(n) * len(modgroup.generators(n))


def measure_traced(workload, seed: int, workdir: Path) -> tuple[dict, Tally, dict]:
    """Traced run: one traced set-up and pass, then one untraced pass.

    The untraced pass runs after every wrapper is restored; the difference
    between the two passes is the tracing overhead.
    """
    tally = Tally()
    tracer = spans.Tracer()
    try:
        with tracer:
            state = workload.setup(seed, workdir / "setup")
            _settle()
            t0 = time.perf_counter()
            _, outputs = workload.run_pass(state, workdir / "pass")
            traced_s = time.perf_counter() - t0
        facts = tally.add(workload, state, outputs, workdir / "pass")
        _settle()  # keeps the recorded spans out of the untraced pass's collections
        untraced_s, _, _ = _one_pass(workload, state, workdir / "pass", tally)
    finally:
        gc.unfreeze()
    metrics = spans.layer_metrics(tracer.spans, _products)
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    facts.update(traced_run_s=traced_s, untraced_run_s=untraced_s)
    return metrics, tally, facts
