"""Command-line surface: build, analyze, sweep, rewire, train, bench.

Exit codes: 0 success, 1 usage error, 2 input error, 3 runtime failure.
Every run emits a JSON manifest describing the resolved configuration, so
outputs can be reproduced byte for byte (timings aside).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .cayley import CayleyCache, smallest_modulus, write_atomic
from .graphcore import (
    EdgeListParseError,
    emit_edge_list,
    gen_graph,
    induced_prefix_subgraph,
    parse_edge_list,
)
from .nn import (
    SUM_TASK_STRUCTURES,
    TrainConfig,
    curve_to_csv,
    gen_sum_task,
    scheme_plan_builder,
    train,
)
from .propagation import SCHEMES, build_plan, export_plan
from .spectral import analyze, expansion_sweep, sweep_to_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

BENCH_MAX_NODES = 50_000
BENCH_DEFAULT_SIZES = (100, 300, 1000, 3000, 10000)


class UsageError(ValueError):
    pass


class InputError(ValueError):
    pass


def _emit_manifest(args, outputs: list[str], seeds=(), extra=None):
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest") and not k.startswith("_")
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "config": {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()},
        "seeds": seeds,
        "outputs": outputs,
        "wall_seconds": time.perf_counter() - args._started,
        "blas": _blas_facts(),
    }
    if extra:
        manifest.update(extra)
    path = args.manifest
    if path is None:
        path = f"{outputs[0]}.manifest.json" if outputs else "cayleyprop-manifest.json"
    write_atomic(Path(path), json.dumps(manifest, indent=2) + "\n")
    return manifest


def _blas_facts() -> dict:
    """The BLAS numpy was built with and the thread-count variables as this
    process sees them (None when unset): a run made on more than one BLAS
    thread may print other last digits."""
    config = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = config.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "thread_variables": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _int_list(text: str, minimum: int) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")
    if not values or any(v < minimum for v in values):
        raise UsageError(
            f"expected a non-empty list of integers >= {minimum}, got {text!r}"
        )
    return values


def _int_from(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_cayley(args) -> int:
    n = args.n if args.n is not None else smallest_modulus(args.nodes)
    cache = CayleyCache(args.cache_dir)
    g = cache.graph(n)
    outputs = [str(cache.path_for(n))]
    if args.out:
        write_atomic(Path(args.out), emit_edge_list(g))
        outputs.append(args.out)
    print(
        f"modulus={n} nodes={g.node_count} edges={g.edge_count} "
        f"degree={max(g.degrees(), default=0)} cache={cache.path_for(n)}"
    )
    _emit_manifest(args, outputs)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.truncate is not None and args.cayley is None:
        raise UsageError("--truncate requires --cayley")
    if args.cayley is not None:
        full = CayleyCache(args.cache_dir).graph(args.cayley)
        if args.truncate is None:
            g = full
        else:
            if not 1 <= args.truncate <= full.node_count:
                raise UsageError(
                    f"--truncate must be in 1..{full.node_count} for modulus "
                    f"{args.cayley}"
                )
            g = induced_prefix_subgraph(full, args.truncate)
        source = f"cayley:{args.cayley}" + (
            f":truncate={args.truncate}" if args.truncate is not None else ""
        )
    else:
        path = Path(args.graph)
        if not path.is_file():
            raise InputError(f"no such graph file: {path}")
        g = parse_edge_list(path.read_text(), allow_self_loops=args.allow_self_loops)
        if g.node_count == 0:
            raise InputError(f"graph file {path} has no nodes")
        source = str(path)
    report = analyze(g).to_json_dict()
    report["source"] = source
    outputs = []
    if args.out:
        write_atomic(Path(args.out), json.dumps(report, indent=2) + "\n")
        outputs.append(args.out)
        _emit_manifest(args, outputs)
    else:
        report["manifest"] = _emit_manifest(args, [])
        print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    # an empty range (v-max < v-min) legitimately yields a header-only CSV
    rows = expansion_sweep(args.v_min, args.v_max, cache=CayleyCache(args.cache_dir))
    write_atomic(Path(args.out), sweep_to_csv(rows))
    outputs = [args.out]
    if args.plot:
        _plot_sweep(rows, args.plot)
        outputs.append(args.plot)
    print(f"wrote {len(rows)} rows to {args.out}")
    _emit_manifest(args, outputs)
    return EXIT_OK


def cmd_rewire(args) -> int:
    manifest_path = Path(args.dataset)
    if not manifest_path.is_file():
        raise InputError(f"no such manifest: {manifest_path}")
    try:
        dataset = json.loads(manifest_path.read_text())
        entries = dataset["graphs"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"bad dataset manifest {manifest_path}: {exc}")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError(
            f"bad dataset manifest {manifest_path}: graphs must be a list of objects"
        )
    cache = CayleyCache(args.cache_dir)
    out_dir = Path(args.out_dir)
    results, failures = [], []
    for i, entry in enumerate(entries):
        name = entry.get("name", f"graph{i}")
        try:
            # The name becomes three file names inside out_dir.
            plain = isinstance(name, str) and name not in ("", ".", "..")
            if not plain or Path(name).name != name:
                raise ValueError(f"name {name!r} is not a single plain file name")
            if not isinstance(entry["graph"], str):
                raise ValueError(f"graph {entry['graph']!r} is not a path string")
            graph_file = manifest_path.parent / entry["graph"]
            g = parse_edge_list(graph_file.read_text())
            plan = build_plan(g, args.scheme, args.layers, cache=cache)
            manifest = export_plan(plan, out_dir, name)
            results.append(
                {
                    "name": name,
                    "original_count": plan.original_count,
                    "extended_count": plan.extended_count,
                    "virtual_nodes": plan.virtual_count,
                }
            )
        except (OSError, KeyError, ValueError) as exc:
            failures.append({"name": name, "error": str(exc)})
    summary = {
        "scheme": args.scheme,
        "layers": args.layers,
        "graphs": results,
        "failures": failures,
    }
    write_atomic(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    total_virtual = sum(r["virtual_nodes"] for r in results)
    print(
        f"exported {len(results)}/{len(entries)} graphs to {out_dir} "
        f"({total_virtual} virtual nodes total, {len(failures)} failed)"
    )
    for failure in failures:
        print(f"  failed {failure['name']}: {failure['error']}", file=sys.stderr)
    _emit_manifest(args, [str(out_dir / "summary.json")])
    return EXIT_INPUT if failures else EXIT_OK


def cmd_train(args) -> int:
    structures = [s.strip() for s in args.structures.split(",") if s.strip()]
    if not structures:
        raise UsageError(f"expected a non-empty structure list, got {args.structures!r}")
    for s in structures:
        if s not in SUM_TASK_STRUCTURES:
            raise UsageError(
                f"unknown structure {s!r}; expected one of {SUM_TASK_STRUCTURES}"
            )
    seeds = _int_list(args.seeds, 0)
    train_sizes = _int_list(args.train_sizes, 1)
    try:
        base_config = TrainConfig(
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            batch_size=args.batch_size,
            hidden_dim=args.hidden,
            num_layers=args.layers,
            layer_kind=args.layer_kind,
            scheme=args.scheme,
            train_sizes=tuple(train_sizes),
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    cache = CayleyCache(args.cache_dir)
    builder = scheme_plan_builder(args.scheme, args.layers, cache=cache)
    all_rows, failed = [], []
    for structure in structures:
        for seed in seeds:
            dataset = gen_sum_task(
                structure, max(train_sizes), seed, test_size=args.test_size
            )
            config = dataclasses.replace(base_config, seed=seed)
            for row in train(builder, dataset, config):
                if row.failed:
                    failed.append(
                        {"structure": structure, "seed": seed, "train_size": row.train_size}
                    )
                else:
                    all_rows.append(row)
    write_atomic(Path(args.out), curve_to_csv(all_rows))
    agg_path = Path(args.out).with_suffix(".agg.csv")
    write_atomic(agg_path, _aggregate_curve_csv(all_rows))
    outputs = [args.out, str(agg_path)]
    if args.plot:
        _plot_curves(all_rows, args.plot)
        outputs.append(args.plot)
    print(
        f"wrote {len(all_rows)} rows to {args.out} "
        f"({len(failed)} failed runs), aggregate in {agg_path}"
    )
    for f in failed:
        print(
            f"  failed {f['structure']} seed {f['seed']} "
            f"train size {f['train_size']}",
            file=sys.stderr,
        )
    _emit_manifest(args, outputs, seeds, extra={"failed_runs": failed})
    return EXIT_RUNTIME if failed else EXIT_OK


def _aggregate_curve_csv(rows) -> str:
    groups: dict[tuple[str, int], list] = {}
    for r in rows:
        groups.setdefault((r.structure, r.train_size), []).append(r)
    lines = [
        "structure,train_size,seeds,mean_train_error,std_train_error,"
        "mean_test_error,std_test_error"
    ]
    for (structure, size), grp in sorted(groups.items()):
        tr = np.array([g.train_error for g in grp])
        te = np.array([g.test_error for g in grp])
        lines.append(
            f"{structure},{size},{len(grp)},{tr.mean():.6f},{tr.std():.6f},"
            f"{te.mean():.6f},{te.std():.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    sizes = _int_list(args.sizes, 1) if args.sizes else list(BENCH_DEFAULT_SIZES)
    sizes = [n for n in sizes if n <= args.n_max]
    if args.n_max > BENCH_MAX_NODES:
        raise UsageError(f"--n-max is capped at {BENCH_MAX_NODES}")
    if not sizes:
        raise UsageError("no benchmark sizes at or below --n-max")
    lines = ["n,seconds"]
    with (
        tempfile.TemporaryDirectory(prefix="cayleyprop-bench-")
        if args.cold
        else contextlib.nullcontext(args.cache_dir)
    ) as cache_dir:
        cache = CayleyCache(cache_dir)
        for n in sizes:
            p = 5.0 * np.log(n) / n if n > 1 else 0.0
            g = gen_graph("ER", n, args.seed, p=min(p, 1.0))
            t0 = time.perf_counter()
            plan = build_plan(g, "CGP", args.layers, cache=cache)
            elapsed = time.perf_counter() - t0
            lines.append(f"{n},{elapsed:.6f}")
            print(
                f"n={n} |V(Cay)|={plan.extended_count} virtual={plan.virtual_count} "
                f"seconds={elapsed:.4f}"
            )
    write_atomic(Path(args.out), "\n".join(lines) + "\n")
    _emit_manifest(args, [args.out], [args.seed])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Optional SVG plots
# ---------------------------------------------------------------------------


def _matplotlib():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        return plt
    except ImportError:
        raise InputError("matplotlib is required for --plot (install cayleyprop[plot])")


def _plot_sweep(rows, path: str) -> None:
    plt = _matplotlib()
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4))
    vs = [r.v for r in rows]
    ax1.plot(vs, [r.cheeger_lower for r in rows], lw=1)
    ax2.plot(vs, [r.diameter if r.diameter is not None else np.nan for r in rows], lw=1)
    for ax, label in ((ax1, "cheeger lower bound"), (ax2, "diameter")):
        for r in rows:
            if r.is_complete:
                ax.axvline(r.v, color="red", ls=":", lw=0.8)
        ax.set_xlabel("nodes")
        ax.set_ylabel(label)
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


def _plot_curves(rows, path: str) -> None:
    plt = _matplotlib()
    fig, ax = plt.subplots(figsize=(6, 4))
    groups: dict[str, dict[int, list[float]]] = {}
    for r in rows:
        groups.setdefault(r.structure, {}).setdefault(r.train_size, []).append(
            r.test_error
        )
    for structure, by_size in sorted(groups.items()):
        sizes = sorted(by_size)
        ax.plot(sizes, [float(np.mean(by_size[s])) for s in sizes], marker="o", label=structure)
    ax.set_xscale("log")
    ax.set_xlabel("training samples")
    ax.set_ylabel("mean test error")
    ax.legend()
    fig.tight_layout()
    fig.savefig(path)
    plt.close(fig)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cayleyprop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cache-dir", default=None, help="Cayley graph cache directory")
        p.add_argument("--manifest", default=None, help="run-manifest output path")

    p = sub.add_parser("build-cayley", help="construct and cache a Cayley graph")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--n", type=_int_from(2), help="modulus")
    target.add_argument("--nodes", type=_int_from(1), help="target node count")
    p.add_argument("--out", default=None, help="also write the edge list here")
    common(p)
    p.set_defaults(func=cmd_build_cayley)

    p = sub.add_parser("analyze", help="spectral report for a graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("graph", nargs="?", help="edge-list file")
    source.add_argument("--cayley", type=_int_from(2), help="analyze Cay(SL(2,Z_n))")
    p.add_argument("--truncate", type=int, default=None, help="BFS truncation size")
    p.add_argument("--allow-self-loops", action="store_true")
    p.add_argument("--out", default=None, help="write the JSON report here")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="truncation sweep CSV")
    p.add_argument("--v-min", type=_int_from(2), required=True)
    p.add_argument("--v-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None, help="optional SVG chart")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rewire", help="export propagation templates for a dataset")
    p.add_argument("dataset", help="dataset manifest JSON")
    p.add_argument("--scheme", choices=SCHEMES, default="CGP")
    p.add_argument("--layers", type=_int_from(1), default=2)
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_rewire)

    p = sub.add_parser("train", help="sum-task learning curves")
    p.add_argument("--structures", default="Empty,Cayley24,Star,BA")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--train-sizes", default="20,40,60,100,200,300,400,500,1000,2000,4000")
    p.add_argument("--test-size", type=_int_from(1), default=200)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--layer-kind", choices=("gin", "gcn"), default="gin")
    p.add_argument("--scheme", choices=SCHEMES, default="Base")
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time CGP template construction on ER graphs")
    p.add_argument("--sizes", default=None, help="comma-separated node counts")
    p.add_argument("--n-max", type=int, default=10000)
    p.add_argument("--layers", type=_int_from(1), default=2)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--cold", action="store_true", help="use a fresh empty cache")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error; the CLI contract reserves
        # 2 for input errors and uses 1 for usage problems.
        return EXIT_USAGE if exc.code == 2 else exc.code
    args._started = time.perf_counter()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeListParseError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
