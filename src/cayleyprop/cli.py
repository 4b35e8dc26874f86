"""Command-line surface: build, analyze, sweep, rewire, train, bench.

Exit codes: 0 success, 1 usage error, 2 input error, 3 runtime failure.
Each option is checked once, before the command does any work: by its
argparse type, or at the top of the command when the check spans options;
--plot loads matplotlib first. Cayley graphs are built in memory, once per
modulus per run; only sweep --cache-dir also keeps them as files. Every run
emits a JSON manifest describing the resolved configuration, so outputs can
be reproduced byte for byte (timings aside).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .cayley import CayleyCache, build_cayley, group_order, smallest_modulus, write_atomic
from .graphcore import (
    EdgeListParseError,
    _check_dense,
    emit_edge_list,
    gen_graph,
    induced_prefix_subgraph,
    parse_edge_list,
)
from .nn import (
    LAYER_KINDS,
    SUM_TASK_STRUCTURES,
    SUM_TASK_TEST_SIZE,
    TrainConfig,
    curve_to_csv,
    gen_sum_task,
    scheme_plan_builder,
    train,
)
from .propagation import CAYLEY_SCHEMES, SCHEMES, _check_layers, build_plan, export_plan
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
    """The BLAS numpy was built with, the kernel set it picked at run time
    and the thread-count variables as this process sees them (None when
    unset): a run made on more than one BLAS thread, or on other kernels,
    may print other last digits."""
    config = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = config.get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "core": _blas_core(),
        "thread_variables": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _blas_core() -> str | None:
    """The kernel set (such as "SkylakeX") that the OpenBLAS mapped into this
    process picked at run time, which may differ from its build
    configuration; None when no OpenBLAS is mapped or it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_corename64_",
            "openblas_get_corename64_",
            "openblas_get_corename",
        ):
            if hasattr(handle, symbol):
                corename = getattr(handle, symbol)
                corename.restype = ctypes.c_char_p
                core = corename()
                return core.decode() if core is not None else None
    return None


def _int_from(minimum: int, maximum: int | None = None):
    """argparse type: an integer in minimum..maximum (no upper bound if None)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _structure(text: str) -> str:
    """argparse type: a sum-task structure name."""
    if text not in SUM_TASK_STRUCTURES:
        raise argparse.ArgumentTypeError(
            f"unknown structure {text!r}; expected one of {SUM_TASK_STRUCTURES}"
        )
    return text


def _list_of(item):
    """argparse type: a non-empty comma-separated list of distinct entries,
    each parsed by item, another argparse type."""

    def parse(text: str) -> list:
        values = [item(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"expected a non-empty list, got {text!r}")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"expected distinct items, got {text!r}")
        return values

    parse.__name__ = f"{item.__name__} list"  # "invalid int list value"
    return parse


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build_cayley(args) -> int:
    n = args.n if args.n is not None else smallest_modulus(args.nodes)
    g = build_cayley(n).graph
    write_atomic(Path(args.out), emit_edge_list(g))
    print(
        f"modulus={n} nodes={g.node_count} edges={g.edge_count} "
        f"degree={max(g.degrees(), default=0)}"
    )
    _emit_manifest(args, [args.out])
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.truncate is not None and args.cayley is None:
        raise UsageError("--truncate requires --cayley")
    if args.allow_self_loops and args.cayley is not None:
        raise UsageError("--allow-self-loops applies to a graph file, not to --cayley")
    if args.cayley is not None:
        order = group_order(args.cayley)
        if args.truncate is not None and not 1 <= args.truncate <= order:
            raise UsageError(f"--truncate must be in 1..{order} for modulus {args.cayley}")
        _check_dense(order if args.truncate is None else args.truncate, "a dense matrix")
        g = build_cayley(args.cayley).graph
        source = f"cayley:{args.cayley}"
        if args.truncate is not None:
            g = induced_prefix_subgraph(g, args.truncate)
            source += f":truncate={args.truncate}"
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
    if args.out:
        write_atomic(Path(args.out), json.dumps(report, indent=2) + "\n")
        _emit_manifest(args, [args.out])
    else:
        report["manifest"] = _emit_manifest(args, [])
        print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    plt = _matplotlib() if args.plot else None
    # an empty range (v-max < v-min) legitimately yields a header-only CSV
    rows = expansion_sweep(args.v_min, args.v_max, cache=CayleyCache(args.cache_dir))
    write_atomic(Path(args.out), sweep_to_csv(rows))
    outputs = [args.out]
    if plt:
        _plot_sweep(plt, rows, args.plot)
        outputs.append(args.plot)
    print(f"wrote {len(rows)} rows to {args.out}")
    _emit_manifest(args, outputs)
    return EXIT_OK


def cmd_rewire(args) -> int:
    _check_layers(args.layers)
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
    cache = CayleyCache()
    out_dir = Path(args.out_dir)
    results, failures = [], []
    # The run writes summary.json and, by default, summary.json.manifest.json.
    taken = {"summary", "summary.json.manifest"}
    for i, entry in enumerate(entries):
        name = entry.get("name", f"graph{i}")
        try:
            # The name becomes three file names inside out_dir.
            plain = isinstance(name, str) and name not in ("", ".", "..")
            if not plain or Path(name).name != name:
                raise ValueError(f"name {name!r} is not a single plain file name")
            if name in taken:
                raise ValueError(f"name {name!r} is taken by an earlier entry or the run")
            taken.add(name)
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
    try:
        base_config = TrainConfig(
            learning_rate=args.learning_rate,
            epochs=args.epochs,
            batch_size=args.batch_size,
            hidden_dim=args.hidden,
            num_layers=args.layers,
            layer_kind=args.layer_kind,
            scheme=args.scheme,
            train_sizes=tuple(args.train_sizes),
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    plt = _matplotlib() if args.plot else None
    builder = scheme_plan_builder(base_config.scheme, base_config.num_layers)
    all_rows, failed = [], []
    for structure in args.structures:
        for seed in args.seeds:
            dataset = gen_sum_task(
                structure, max(base_config.train_sizes), seed, test_size=args.test_size
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
    if plt:
        _plot_curves(plt, all_rows, args.plot)
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
    _emit_manifest(args, outputs, args.seeds, extra={"failed_runs": failed})
    return EXIT_RUNTIME if failed else EXIT_OK


def _curve_groups(rows) -> dict[tuple[str, int], list]:
    """The rows of each (structure, train size), in sorted key order."""
    groups: dict[tuple[str, int], list] = {}
    for r in rows:
        groups.setdefault((r.structure, r.train_size), []).append(r)
    return dict(sorted(groups.items()))


def _aggregate_curve_csv(rows) -> str:
    lines = [
        "structure,train_size,seeds,mean_train_error,std_train_error,"
        "mean_test_error,std_test_error"
    ]
    for (structure, size), grp in _curve_groups(rows).items():
        tr = np.array([g.train_error for g in grp])
        te = np.array([g.test_error for g in grp])
        lines.append(
            f"{structure},{size},{len(grp)},{tr.mean():.6f},{tr.std():.6f},"
            f"{te.mean():.6f},{te.std():.6f}"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    lines = ["n,seconds"]
    cache = CayleyCache()
    for n in args.sizes:
        p = 5.0 * np.log(n) / n if n > 1 else 0.0
        g = gen_graph(n, args.seed, p=min(p, 1.0))
        t0 = time.perf_counter()
        plan = build_plan(g, "CGP", 2, cache=cache)
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


def _plot_sweep(plt, rows, path: str) -> None:
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


def _plot_curves(plt, rows, path: str) -> None:
    fig, ax = plt.subplots(figsize=(6, 4))
    groups = _curve_groups(rows)
    for structure in sorted({s for s, _ in groups}):
        sizes = [n for s, n in groups if s == structure]
        errors = [float(np.mean([r.test_error for r in groups[structure, n]])) for n in sizes]
        ax.plot(sizes, errors, marker="o", label=structure)
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
        p.add_argument("--manifest", default=None, help="run-manifest output path")

    p = sub.add_parser("build-cayley", help="write a Cayley graph's edge list")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--n", type=_int_from(2), help="modulus")
    target.add_argument("--nodes", type=_int_from(1), help="target node count")
    p.add_argument("--out", required=True, help="write the edge list here")
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
    # Kept for perfbench/test_perfbench.py::test_per_row_sweep_matches_the_cli.
    p.add_argument("--cache-dir", default=None, help="keep Cayley graph files here")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rewire", help="export propagation templates for a dataset")
    p.add_argument("dataset", help="dataset manifest JSON")
    # export_plan writes templates for the Cayley schemes alone.
    p.add_argument("--scheme", choices=sorted(CAYLEY_SCHEMES, key=SCHEMES.index), default="CGP")
    p.add_argument("--layers", type=_int_from(1), default=2)
    p.add_argument("--out-dir", required=True)
    common(p)
    p.set_defaults(func=cmd_rewire)

    p = sub.add_parser("train", help="sum-task learning curves")
    # argparse parses a string default as if it were given.
    p.add_argument("--structures", type=_list_of(_structure), default="Empty,Cayley24,Star,BA")
    p.add_argument("--seeds", type=_list_of(_int_from(0)), default="0,1,2,3,4")
    p.add_argument(
        "--train-sizes",
        type=_list_of(_int_from(1)),
        default=",".join(map(str, TrainConfig.train_sizes)),
    )
    p.add_argument("--test-size", type=_int_from(1), default=SUM_TASK_TEST_SIZE)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--hidden", type=int, default=TrainConfig.hidden_dim)
    p.add_argument("--layers", type=int, default=TrainConfig.num_layers)
    p.add_argument("--layer-kind", choices=LAYER_KINDS, default=TrainConfig.layer_kind)
    p.add_argument("--scheme", choices=SCHEMES, default=TrainConfig.scheme)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="time CGP template construction on ER graphs")
    p.add_argument(
        "--sizes", type=_list_of(_int_from(1, BENCH_MAX_NODES)), default=BENCH_DEFAULT_SIZES
    )
    p.add_argument("--seed", type=_int_from(0), default=0)
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
