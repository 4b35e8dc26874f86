import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import cayleyprop
from cayleyprop import cayley, cli, spectral
from cayleyprop.cayley import CayleyCache, build_cayley
from cayleyprop.cli import build_parser, main
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    UGraph,
    emit_edge_list,
    gen_graph,
    parse_edge_list,
)
from cayleyprop.propagation import MAX_LAYERS


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_missing_args(self, capsys, tmp_path):
        code, _, err = run(["build-cayley", "--out", str(tmp_path / "c.edgelist")], capsys)
        assert code == 1
        assert "one of the arguments --n --nodes is required" in err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_both_args(self, capsys, tmp_path):
        code, _, err = run(
            ["build-cayley", "--n", "3", "--nodes", "5", "--out", str(tmp_path / "c.edgelist")],
            capsys,
        )
        assert code == 1
        assert "not allowed with argument" in err
        assert list(tmp_path.iterdir()) == []

    def test_usage_error_nodes_zero(self, capsys, tmp_path):
        code, _, err = run(
            ["build-cayley", "--nodes", "0", "--out", str(tmp_path / "c.edgelist")], capsys
        )
        assert code == 1
        assert "usage" in err.lower()
        assert "argument --nodes: must be >= 1, got 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_input_error_missing_file(self, capsys, tmp_path):
        code, _, err = run(["analyze", str(tmp_path / "nope.edgelist")], capsys)
        assert code == 2

    def test_input_error_parse_failure_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("3\n0 1\n1 x\n")
        code, _, err = run(
            ["analyze", str(bad), "--manifest", str(tmp_path / "m.json")], capsys
        )
        assert code == 2
        assert "line 3" in err

    def test_unknown_command_usage(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 1

    TRAIN = ["train", "--structures", "Empty", "--seeds", "0", "--train-sizes", "20",
             "--test-size", "5", "--epochs", "1", "--hidden", "4", "--out", "out.csv"]
    BENCH = ["bench", "--sizes", "10", "--out", "out.csv"]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (TRAIN + ["--test-size", "0"], 1),
            (TRAIN + ["--train-sizes", "0"], 1),
            (TRAIN + ["--epochs", "0"], 1),
            (TRAIN + ["--batch-size", "0"], 1),
            (TRAIN + ["--hidden", "0"], 1),
            (TRAIN + ["--learning-rate", "0"], 1),
            (TRAIN + ["--learning-rate", "nan"], 1),
            (TRAIN + ["--learning-rate", "inf"], 1),
            (TRAIN + ["--seeds=-1"], 1),
            (TRAIN + ["--seeds", "0,x"], 1),
            (TRAIN + ["--structures", ","], 1),
            (BENCH + ["--sizes", "0,10"], 1),
            (BENCH + ["--seed=-1"], 1),
            (BENCH + ["--sizes", "50001"], 1),
            (["analyze", "empty.edgelist", "--truncate", "3"], 1),
            (["analyze", "--cayley", "2", "--truncate", "7"], 1),
            (["analyze", "empty.edgelist"], 2),
            (["rewire", "dataset.json", "--out-dir", "rewired"], 2),
            (["rewire", "missing.json", "--out-dir", "rewired"], 2),
            (["rewire", "torn.json", "--out-dir", "rewired"], 2),
        ],
        ids=["test-size", "train-sizes", "epochs", "batch-size", "hidden",
             "learning-rate", "learning-rate-nan", "learning-rate-inf", "seeds",
             "seeds-not-integers", "structures-empty", "bench-sizes", "bench-seed",
             "bench-size-over-the-cap", "truncate-without-cayley",
             "truncate-past-group-order", "empty-graph", "graphs-not-a-list",
             "missing-manifest", "unparsable-manifest"],
    )
    def test_bad_values_exit_with_documented_code(
        self, argv, expected, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.edgelist").write_text("0\n")
        (tmp_path / "dataset.json").write_text(json.dumps({"graphs": {"a": "x"}}))
        (tmp_path / "torn.json").write_text('{"graphs": [')
        code, _, err = run(argv, capsys)
        assert code == expected, err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (TRAIN + ["--seeds", "0,x"], "--seeds"),
            (TRAIN + ["--seeds", "0,-1"], "--seeds"),
            (TRAIN + ["--train-sizes", "20,0"], "--train-sizes"),
            (TRAIN + ["--structures", "Empty,Mesh"], "--structures"),
            (TRAIN + ["--structures", ","], "--structures"),
            (BENCH + ["--sizes", "0,10"], "--sizes"),
            (BENCH + ["--sizes", "10,x"], "--sizes"),
            (TRAIN + ["--seeds", "0,0"], "--seeds"),
            (TRAIN + ["--train-sizes", "20,20"], "--train-sizes"),
            (TRAIN + ["--structures", "Empty,Empty"], "--structures"),
            (BENCH + ["--sizes", "10,10"], "--sizes"),
            *(
                (["rewire", "dataset.json", "--scheme", scheme, "--out-dir", "out"],
                 "--scheme")
                for scheme in ("Base", "MasterNode", "FALast")
            ),
        ],
        ids=["seeds-not-integers", "seeds-negative", "train-sizes-zero",
             "structures-unknown", "structures-empty", "bench-sizes-zero",
             "bench-sizes-not-integers", "seeds-repeated", "train-sizes-repeated",
             "structures-repeated", "bench-sizes-repeated", "rewire-scheme-Base",
             "rewire-scheme-MasterNode", "rewire-scheme-FALast"],
    )
    def test_a_bad_list_item_is_refused_by_the_parser(
        self, argv, option, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 1
        assert f"error: argument {option}: " in err
        if argv[0] == "rewire":
            # argparse names the refused scheme, then the four it takes.
            refused, allowed = err.split("invalid choice: ")[1].split("choose from")
            assert argv[3] in refused
            assert re.findall(r"\w+", allowed) == ["EGP", "CGP", "CGPLast", "CGPEvery"]
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, work",
        [
            (["sweep", "--v-min", "6", "--v-max", "7", "--out", "s.csv",
              "--plot", "s.svg"], "expansion_sweep"),
            (TRAIN + ["--plot", "c.svg"], "train"),
        ],
        ids=["sweep", "train"],
    )
    def test_plot_without_matplotlib_fails_before_any_work(
        self, argv, work, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "matplotlib", None)

        def no_work(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(cli, work, no_work)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert "cayleyprop[plot]" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_plot_without_matplotlib_is_input_error(self, capsys, tmp_path, monkeypatch):
        # a None entry in sys.modules makes `import matplotlib` raise
        # ImportError, whether or not matplotlib is installed
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            ["sweep", "--v-min", "6", "--v-max", "7", "--out", "s.csv",
             "--plot", "s.svg", "--cache-dir", str(tmp_path / "cache")],
            capsys,
        )
        assert code == 2
        assert "cayleyprop[plot]" in err

    def test_dense_matrix_over_the_cap_is_runtime_error(self, capsys, tmp_path):
        # An edgeless graph: the cap is hit before anything is allocated.
        path = tmp_path / "wide.edgelist"
        path.write_text(f"{DENSE_NODE_CAP + 1}\n")
        code, _, err = run(
            ["analyze", str(path), "--manifest", str(tmp_path / "m.json")], capsys
        )
        assert code == 3
        assert str(DENSE_NODE_CAP + 1) in err and str(DENSE_NODE_CAP) in err


UNRECOGNIZED = "unrecognized arguments: --cache-dir=d"


class TestBuildCayley:
    def test_by_modulus(self, capsys, tmp_path):
        out_file = tmp_path / "c3.edgelist"
        code, out, _ = run(
            [
                "build-cayley",
                "--n",
                "3",
                "--out",
                str(out_file),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert out == "modulus=3 nodes=24 edges=48 degree=4\n"
        g = parse_edge_list(out_file.read_text())
        assert g.node_count == 24
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["command"] == "build-cayley"
        assert manifest["outputs"] == [str(out_file)]

    def test_by_target_nodes(self, capsys, tmp_path):
        code, out, _ = run(
            [
                "build-cayley",
                "--nodes",
                "24",
                "--out",
                str(tmp_path / "c3.edgelist"),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert out == "modulus=3 nodes=24 edges=48 degree=4\n"

    def test_without_a_cache_dir_writes_only_the_edge_list(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["build-cayley", "--nodes", "24", "--out", "c3.edgelist"], capsys)
        assert code == 0
        assert out == "modulus=3 nodes=24 edges=48 degree=4\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c3.edgelist", "c3.edgelist.manifest.json"
        ]
        assert (tmp_path / "c3.edgelist").read_text() == emit_edge_list(build_cayley(3).graph)
        manifest = json.loads((tmp_path / "c3.edgelist.manifest.json").read_text())
        assert manifest["outputs"] == ["c3.edgelist"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build-cayley", "--n", "3"], "required: --out"),
            (["build-cayley", "--n", "3", "--out", "c.edgelist"], UNRECOGNIZED),
            (["analyze", "--cayley", "3"], UNRECOGNIZED),
            (["rewire", "dataset.json", "--out-dir", "rewired"], UNRECOGNIZED),
            (TestExitCodes.TRAIN, UNRECOGNIZED),
            (TestExitCodes.BENCH, UNRECOGNIZED),
        ],
        ids=["without-out", "with-out", "analyze", "rewire", "train", "bench"],
    )
    def test_cache_dir_is_not_an_option(self, argv, message, capsys, tmp_path, monkeypatch):
        # Only sweep takes --cache-dir; every other command builds its Cayley
        # graphs in memory and writes only its outputs. Given as one token, so
        # that analyze cannot take "d" for its graph file.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(argv + ["--cache-dir=d"], capsys)
        assert code == 1
        assert message in err
        assert out == "" and list(tmp_path.iterdir()) == []


def forbid_group_builds(monkeypatch):
    """Make building a Cayley group fail, whether the CLI calls build_cayley
    itself or through a CayleyCache."""

    def no_group(*args):
        raise AssertionError("built the group")

    monkeypatch.setattr(cli, "build_cayley", no_group)
    monkeypatch.setattr(cayley, "build_cayley", no_group)


class TestAnalyze:
    def test_cayley_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(
            [
                "analyze",
                "--cayley",
                "3",
                "--out",
                str(out_file),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(out_file.read_text())
        assert report["diameter"] == 4
        assert report["spectral_gap"] == pytest.approx(0.316987298, abs=1e-6)

    def test_truncated_gap_below_complete(self, capsys, tmp_path):
        for args, name in (
            (["analyze", "--cayley", "3"], "full"),
            (["analyze", "--cayley", "3", "--truncate", "12"], "cut"),
        ):
            run(
                args + ["--out", str(tmp_path / f"{name}.json"), "--manifest", str(tmp_path / "m.json")],
                capsys,
            )
        full = json.loads((tmp_path / "full.json").read_text())
        cut = json.loads((tmp_path / "cut.json").read_text())
        assert cut["spectral_gap"] < full["spectral_gap"]

    def test_graph_file_stdout(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "p3.edgelist"
        path.write_text("3\n0 1\n1 2\n")
        code, out, _ = run(["analyze", str(path)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["diameter"] == 2
        assert report["manifest"]["command"] == "analyze"

    def test_disconnected_still_exit_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "two.edgelist"
        path.write_text("4\n0 1\n2 3\n")
        code, out, _ = run(["analyze", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["diameter"] == "disconnected"

    def test_truncate_is_checked_before_the_group_is_built(
        self, capsys, tmp_path, monkeypatch
    ):
        forbid_group_builds(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["analyze", "--cayley", "2", "--truncate", "7"], capsys)
        assert code == 1
        assert err == "usage error: --truncate must be in 1..6 for modulus 2\n"
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, nodes",
        [
            (["--cayley", "23"], 12144),
            (["--cayley", "23", "--truncate", str(DENSE_NODE_CAP + 1)], DENSE_NODE_CAP + 1),
        ],
        ids=["whole-group", "truncated"],
    )
    def test_dense_cap_is_checked_before_the_group_is_built(
        self, argv, nodes, capsys, tmp_path, monkeypatch
    ):
        forbid_group_builds(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(["analyze"] + argv, capsys)
        assert code == 3
        assert err == (
            f"error: ValueError: a dense matrix on {nodes} nodes exceeds the cap of "
            f"{DENSE_NODE_CAP} nodes\n"
        )
        assert out == "" and list(tmp_path.iterdir()) == []


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestSweep:
    def test_module_entry_pins_blas_to_one_thread(self, tmp_path):
        # On two OpenBLAS threads row 239 prints cheeger_lower as
        # 0.0367868893129, on one as 0.036786889313. `python -m cayleyprop`
        # must write the one-thread CSV whether or not the caller pinned BLAS,
        # and its manifest must say so.
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        src = str(Path(cayleyprop.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        csvs = []
        for name, pinned in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
            out = tmp_path / f"{name}.csv"
            subprocess.run(
                [
                    sys.executable, "-m", "cayleyprop", "sweep",
                    "--v-min", "236", "--v-max", "240", "--out", str(out),
                    "--cache-dir", str(tmp_path / f"cache-{name}"),
                ],
                env={**env, **pinned},
                check=True,
                capture_output=True,
                timeout=120,
            )
            csvs.append(out.read_bytes())
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            blas = manifest["blas"]
            assert blas["thread_variables"] == dict.fromkeys(BLAS_THREAD_VARS, "1")
            assert blas["name"] and blas["version"]
            # The kernel set OpenBLAS picked at run time, when it can be asked.
            assert "core" in blas and isinstance(blas["core"], (str, type(None)))
        assert csvs[0].count(b"\n") == 6  # header and v = 236..240
        assert csvs[0] == csvs[1]

    def test_csv_written(self, capsys, cache_dir, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            [
                "sweep",
                "--v-min",
                "23",
                "--v-max",
                "26",
                "--out",
                str(out_file),
                "--cache-dir",
                cache_dir,
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("v,modulus,is_complete")
        assert lines[2].split(",")[2] == "true"  # v = 24 row

    def test_empty_range_header_only(self, capsys, cache_dir, tmp_path):
        out_file = tmp_path / "empty.csv"
        code, _, _ = run(
            [
                "sweep",
                "--v-min",
                "30",
                "--v-max",
                "20",
                "--out",
                str(out_file),
                "--cache-dir",
                cache_dir,
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert out_file.read_text().strip() == (
            "v,modulus,is_complete,spectral_gap,cheeger_lower,cheeger_upper,"
            "diameter,r_tot"
        )

    def test_v_max_over_the_dense_cap_writes_nothing(
        self, capsys, cache_dir, tmp_path, monkeypatch
    ):
        def no_row(g):
            raise AssertionError(f"analyzed a row of {g.node_count} nodes")

        monkeypatch.setattr(spectral, "analyze", no_row)
        out_file = tmp_path / "sweep.csv"
        t0 = time.perf_counter()
        code, _, err = run(
            ["sweep", "--v-min", "6", "--v-max", str(DENSE_NODE_CAP + 1),
             "--out", str(out_file), "--cache-dir", cache_dir,
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert str(DENSE_NODE_CAP + 1) in err and str(DENSE_NODE_CAP) in err
        assert not out_file.exists()

    def test_identical_bytes_across_runs(self, capsys, cache_dir, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            run(
                [
                    "sweep",
                    "--v-min",
                    "10",
                    "--v-max",
                    "14",
                    "--out",
                    str(tmp_path / name),
                    "--cache-dir",
                    cache_dir,
                    "--manifest",
                    str(tmp_path / "m.json"),
                ],
                capsys,
            )
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]


class TestRewire:
    def _write_dataset(self, tmp_path, sizes):
        graphs = []
        for i, n in enumerate(sizes):
            g = gen_graph("ER", n, 50 + i, p=0.3)
            (tmp_path / f"g{i}.edgelist").write_text(emit_edge_list(g))
            graphs.append({"name": f"g{i}", "graph": f"g{i}.edgelist"})
        manifest = tmp_path / "dataset.json"
        manifest.write_text(json.dumps({"graphs": graphs}))
        return manifest

    def test_cgp_export(self, capsys, tmp_path):
        manifest = self._write_dataset(tmp_path, [20, 24])
        out_dir = tmp_path / "out"
        code, out, _ = run(
            [
                "rewire",
                str(manifest),
                "--scheme",
                "CGP",
                "--out-dir",
                str(out_dir),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        by_name = {g["name"]: g for g in summary["graphs"]}
        assert by_name["g0"]["virtual_nodes"] == 4
        assert by_name["g1"]["virtual_nodes"] == 0
        assert (out_dir / "g0.cayley.edgelist").is_file()
        g0 = json.loads((out_dir / "g0.json").read_text())
        assert g0["extended_count"] == 24

    def test_egp_never_pads(self, capsys, tmp_path):
        manifest = self._write_dataset(tmp_path, [20, 10])
        out_dir = tmp_path / "out"
        code, _, _ = run(
            [
                "rewire",
                str(manifest),
                "--scheme",
                "EGP",
                "--out-dir",
                str(out_dir),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert all(g["virtual_nodes"] == 0 for g in summary["graphs"])
        assert all(
            g["extended_count"] == g["original_count"] for g in summary["graphs"]
        )

    def test_partial_failure_nonzero_exit(self, capsys, tmp_path):
        manifest = self._write_dataset(tmp_path, [10])
        data = json.loads(manifest.read_text())
        data["graphs"].append({"name": "ghost", "graph": "missing.edgelist"})
        manifest.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, _, err = run(
            [
                "rewire",
                str(manifest),
                "--scheme",
                "CGP",
                "--out-dir",
                str(out_dir),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["failures"]) == 1
        assert len(summary["graphs"]) == 1  # the good graph still exported

    def _rewire_with_extra_entries(self, capsys, tmp_path, extra):
        work = tmp_path / "work"
        work.mkdir()
        manifest = self._write_dataset(work, [10])
        data = json.loads(manifest.read_text())
        data["graphs"].extend(extra)
        manifest.write_text(json.dumps(data))
        out_dir = work / "out"
        code, _, _ = run(
            ["rewire", str(manifest), "--scheme", "CGP", "--out-dir", str(out_dir),
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        return code, json.loads((out_dir / "summary.json").read_text()), out_dir

    @pytest.mark.parametrize(
        "name", ["../escaped", "out/../../escaped", "sub/escaped", "ABSOLUTE", "",
                 ".", "..", 5, None]
    )
    def test_name_must_be_a_plain_file_name(self, capsys, tmp_path, name):
        if name == "ABSOLUTE":
            name = str(tmp_path / "escaped")
        code, summary, out_dir = self._rewire_with_extra_entries(
            capsys, tmp_path, [{"name": name, "graph": "g0.edgelist"}]
        )
        assert code == 2
        assert [f["name"] for f in summary["failures"]] == [name]
        assert "plain file name" in summary["failures"][0]["error"]
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert (out_dir / "g0.cayley.edgelist").is_file()
        assert not list(tmp_path.rglob("*escaped*"))

    @pytest.mark.parametrize("graph", [5, None, ["g0.edgelist"]])
    def test_non_string_graph_is_a_recorded_failure(
        self, capsys, tmp_path, graph
    ):
        code, summary, out_dir = self._rewire_with_extra_entries(
            capsys, tmp_path, [{"name": "bad", "graph": graph}]
        )
        assert code == 2
        assert [f["name"] for f in summary["failures"]] == ["bad"]
        assert "not a path string" in summary["failures"][0]["error"]
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert (out_dir / "g0.json").is_file()
        assert not (out_dir / "bad.json").exists()

    def test_repeated_name_is_a_recorded_failure(self, capsys, tmp_path):
        manifest = self._write_dataset(tmp_path, [10, 12])
        data = json.loads(manifest.read_text())
        data["graphs"][1]["name"] = "g0"
        manifest.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["rewire", str(manifest), "--out-dir", str(out_dir),
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 2
        assert "exported 1/2" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert [f["name"] for f in summary["failures"]] == ["g0"]
        assert "taken" in summary["failures"][0]["error"]
        # The first entry's files are kept, not overwritten by the second's.
        assert json.loads((out_dir / "g0.json").read_text())["original_count"] == 10
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "g0.cayley.edgelist", "g0.input_extended.edgelist", "g0.json", "summary.json"
        ]

    def test_layers_past_the_cap_exit_3_before_any_work(self, tmp_path):
        # In a child of a child, so the grandchild's peak RSS is the CLI's
        # alone; 10**9 layer kinds would be an 8 GB tuple.
        manifest = self._write_dataset(tmp_path, [10])
        out_dir = tmp_path / "out"
        argv = [sys.executable, "-m", "cayleyprop", "rewire", str(manifest),
                "--layers", str(10**9), "--out-dir", str(out_dir)]
        probe = (
            "import json, resource, subprocess, sys\n"
            f"r = subprocess.run({argv!r}, capture_output=True, text=True, timeout=60)\n"
            "rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(json.dumps([r.returncode, r.stderr, rss]))\n"
        )
        env = dict(os.environ)
        src = str(Path(cayleyprop.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        elapsed = time.perf_counter() - t0
        code, err, rss_kib = json.loads(done.stdout)
        assert code == 3
        assert f"{10**9} layers exceed the cap of {MAX_LAYERS} layers" in err
        assert not out_dir.exists()
        assert rss_kib < 200 * 1024
        assert elapsed < 10

    @pytest.mark.parametrize("name", ["summary", "summary.json.manifest"])
    def test_summary_names_are_reserved(self, capsys, tmp_path, name):
        manifest = self._write_dataset(tmp_path, [10])
        data = json.loads(manifest.read_text())
        data["graphs"].append({"name": name, "graph": "g0.edgelist"})
        manifest.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        # No --manifest: the run's manifest goes to out/summary.json.manifest.json.
        code, _, _ = run(
            ["rewire", str(manifest), "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert [f["name"] for f in summary["failures"]] == [name]
        run_manifest = json.loads((out_dir / "summary.json.manifest.json").read_text())
        assert run_manifest["command"] == "rewire"
        assert not (out_dir / f"{name}.cayley.edgelist").exists()


class TestTrainCommand:
    def test_smoke_run_within_budget(self, capsys, tmp_path):
        import time

        out_file = tmp_path / "curves.csv"
        start = time.perf_counter()
        code, out, _ = run(
            [
                "train",
                "--structures",
                "Empty",
                "--seeds",
                "0",
                "--train-sizes",
                "20,40",
                "--test-size",
                "20",
                "--epochs",
                "5",
                "--hidden",
                "32",
                "--out",
                str(out_file),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert time.perf_counter() - start < 60.0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "structure,train_size,seed,train_error,test_error"
        assert len(lines) == 3
        agg = (tmp_path / "curves.agg.csv").read_text().strip().split("\n")
        assert agg[0].startswith("structure,train_size,seeds,")
        assert len(agg) == 3
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["seeds"] == [0]
        assert manifest["failed_runs"] == []

    def test_reproducible_bytes(self, capsys, tmp_path):
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            run(
                [
                    "train",
                    "--structures",
                    "GNP",
                    "--seeds",
                    "3",
                    "--train-sizes",
                    "20",
                    "--test-size",
                    "10",
                    "--epochs",
                    "3",
                    "--hidden",
                    "8",
                    "--out",
                    str(tmp_path / name),
                    "--manifest",
                    str(tmp_path / "m.json"),
                ],
                capsys,
            )
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_run_is_listed_as_failed(self, capsys, tmp_path):
        # One Adam step at this rate leaves finite parameters whose logits
        # overflow; the run must not be reported as a curve row, and a
        # command with a failed run exits 3 after writing its outputs.
        out_file = tmp_path / "c.csv"
        code, out, err = run(
            ["train", "--structures", "Empty", "--seeds", "0", "--train-sizes", "20",
             "--test-size", "5", "--epochs", "1", "--learning-rate", "1e300",
             "--out", str(out_file),
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 3
        assert "1 failed runs" in out
        assert "failed Empty seed 0 train size 20" in err
        assert out_file.read_text() == "structure,train_size,seed,train_error,test_error\n"
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["failed_runs"] == [
            {"structure": "Empty", "seed": 0, "train_size": 20}
        ]

    def test_bad_structure_usage_error(self, capsys, tmp_path):
        code, _, _ = run(
            [
                "train",
                "--structures",
                "Mesh",
                "--out",
                str(tmp_path / "x.csv"),
            ],
            capsys,
        )
        assert code == 1


@pytest.fixture()
def pyplot_axes(monkeypatch):
    """Recording stand-ins for matplotlib and matplotlib.pyplot; returns the
    list of every axes that plt.subplots makes. Each axes keeps its calls as
    (method, args, kwargs), and savefig writes a placeholder file."""
    made = []

    class Axes:
        def __init__(self):
            self.calls = []

        def __getattr__(self, name):
            return lambda *args, **kwargs: self.calls.append((name, args, kwargs))

        def called(self, name):
            return [(args, kwargs) for n, args, kwargs in self.calls if n == name]

    class Figure:
        def tight_layout(self):
            pass

        def savefig(self, path):
            Path(path).write_text("<svg/>\n")

    def subplots(nrows=1, ncols=1, **kwargs):
        axes = [Axes() for _ in range(nrows * ncols)]
        made.extend(axes)
        return Figure(), axes[0] if len(axes) == 1 else tuple(axes)

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = subplots
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return made


class TestPlot:
    def test_sweep_plot_marks_each_complete_size(self, capsys, tmp_path, pyplot_axes):
        out, plot, manifest = (str(tmp_path / f) for f in ("s.csv", "s.svg", "m.json"))
        code, _, _ = run(
            ["sweep", "--v-min", "20", "--v-max", "50", "--out", out,
             "--plot", plot, "--manifest", manifest],
            capsys,
        )
        assert code == 0
        assert Path(plot).read_text() == "<svg/>\n"
        assert json.loads(Path(manifest).read_text())["outputs"] == [out, plot]
        # One curve per axes over every row, and a line at 24 and 48 nodes.
        assert len(pyplot_axes) == 2
        for ax in pyplot_axes:
            ((args, _),) = ax.called("plot")
            assert args[0] == list(range(20, 51))
            assert [args[0] for args, _ in ax.called("axvline")] == [24, 48]

    def test_train_plot_draws_the_aggregate_test_error(
        self, capsys, tmp_path, pyplot_axes
    ):
        out, plot = str(tmp_path / "c.csv"), str(tmp_path / "c.svg")
        code, _, _ = run(
            ["train", "--structures", "Star,Empty", "--seeds", "0,1",
             "--train-sizes", "8,4", "--test-size", "4", "--epochs", "1",
             "--hidden", "4", "--out", out, "--plot", plot,
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 0
        assert Path(plot).read_text() == "<svg/>\n"
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["outputs"] == [out, str(tmp_path / "c.agg.csv"), plot]
        agg = (tmp_path / "c.agg.csv").read_text().splitlines()
        column = agg[0].split(",").index("mean_test_error")
        want = {}
        for line in agg[1:]:
            fields = line.split(",")
            sizes, errors = want.setdefault(fields[0], ([], []))
            sizes.append(int(fields[1]))
            errors.append(fields[column])
        (ax,) = pyplot_axes
        drawn = {
            kwargs["label"]: (sizes, [f"{e:.6f}" for e in errors])
            for (sizes, errors), kwargs in ax.called("plot")
        }
        assert len(ax.called("plot")) == 2
        assert drawn == want


class TestBench:
    def test_csv_and_cache_reuse(self, capsys, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, out, _ = run(
            ["bench", "--sizes", "50,120", "--out", str(out_file),
             "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "n,seconds"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) >= 0.0

    def test_a_size_over_the_cap_refuses_the_whole_list(self, capsys, tmp_path, monkeypatch):
        # The parser refuses the list before any size runs, so no CSV and no
        # manifest are written for the sizes under the cap either.
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            ["bench", "--sizes", f"50,{cli.BENCH_MAX_NODES + 1}", "--out", "b.csv"], capsys
        )
        assert code == 1
        assert (
            f"error: argument --sizes: must be <= {cli.BENCH_MAX_NODES}, "
            f"got {cli.BENCH_MAX_NODES + 1}"
        ) in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_ceiling_guard(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            ["bench", "--sizes", str(cli.BENCH_MAX_NODES + 1), "--out", "b.csv"], capsys
        )
        assert code == 1
        assert "error: argument --sizes: " in err
        assert list(tmp_path.iterdir()) == []
        args = build_parser().parse_args(
            ["bench", "--sizes", str(cli.BENCH_MAX_NODES), "--out", "b.csv"]
        )
        assert args.sizes == [cli.BENCH_MAX_NODES]


def double_edge_swap(g):
    """g with edges (a, b), (c, d) swapped for (a, d), (c, b): every degree
    is kept, so the result is as regular as g."""
    edges = set(g.edges)
    for (a, b), (c, d) in zip(g.edges, g.edges[1:]):
        swapped = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
        if len({a, b, c, d}) == 4 and not swapped & edges:
            return UGraph(g.node_count, (edges - {(a, b), (c, d)}) | swapped)
    raise AssertionError("no swappable pair of edges")


class TestWithoutCacheDir:
    """Without --cache-dir no command reads or writes a Cayley graph file."""

    def run_every_command(self, capsys, monkeypatch, work):
        """Run each command, none with --cache-dir, in work; return the
        bytes of every output file but the timed ones."""
        work.mkdir()
        g = gen_graph("BA", 20, 7, m=2)
        (work / "g.edgelist").write_text(emit_edge_list(g))
        (work / "dataset.json").write_text(
            json.dumps({"graphs": [{"name": "g", "graph": "g.edgelist"}]})
        )
        commands = [
            ["build-cayley", "--n", "3", "--out", "c3.edgelist"],
            ["analyze", "--cayley", "3", "--out", "report.json"],
            ["sweep", "--v-min", "6", "--v-max", "30", "--out", "sweep.csv"],
            ["rewire", "dataset.json", "--out-dir", "rewired"],
            ["train", "--structures", "BA", "--seeds", "0", "--train-sizes", "8",
             "--test-size", "4", "--epochs", "1", "--hidden", "4", "--scheme", "CGP",
             "--out", "curves.csv"],
            ["bench", "--sizes", "20", "--out", "bench.csv"],
        ]
        monkeypatch.chdir(work)
        for argv in commands:
            code, _, err = run(argv, capsys)
            assert code == 0, (argv, err)
        return {
            str(p.relative_to(work)): p.read_bytes()
            for p in sorted(work.rglob("*"))
            if p.is_file() and "manifest" not in p.name and p.name != "bench.csv"
        }

    def test_home_stays_empty(self, capsys, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        monkeypatch.setenv("HOME", str(home))
        outputs = self.run_every_command(capsys, monkeypatch, tmp_path / "work")
        assert list(home.iterdir()) == []
        assert not list(tmp_path.rglob("cayley-n*"))
        assert outputs["c3.edgelist"] == emit_edge_list(build_cayley(3).graph).encode()

    def test_a_tampered_file_at_the_old_default_path_changes_nothing(
        self, capsys, tmp_path, monkeypatch
    ):
        true = build_cayley(3).graph
        tampered = double_edge_swap(true)
        old_default = tmp_path / "home" / ".cache" / "cayleyprop"
        old_default.mkdir(parents=True)
        (old_default / "cayley-n3-v24.edgelist").write_text(emit_edge_list(tampered))
        # A named directory still loads the swap: it is regular, and the disk
        # tier checks no more than that.
        assert CayleyCache(old_default).graph(3) == tampered != true
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        with_file = self.run_every_command(capsys, monkeypatch, tmp_path / "with-file")
        monkeypatch.setenv("HOME", str(tmp_path / "empty-home"))
        clean = self.run_every_command(capsys, monkeypatch, tmp_path / "clean")
        assert with_file == clean
        assert "rewired/g.cayley.edgelist" in clean


def readme_cli_examples() -> list[list[str]]:
    """The arguments of every `cayleyprop ...` line in the README's CLI code
    block, with backslash continuations joined and comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "cayleyprop", line
            examples.append(argv[1:])
    return examples


def test_every_readme_cli_example_parses(capsys):
    examples = readme_cli_examples()
    assert {argv[0] for argv in examples} == {
        "build-cayley", "analyze", "sweep", "rewire", "train", "bench"
    }
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(
                f"README example `cayleyprop {shlex.join(argv)}` does not parse:\n"
                f"{capsys.readouterr().err}"
            )


def test_every_option_is_pinned():
    # A new option doubles the configurations to test; it should show here.
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        command: [a.option_strings[0] if a.option_strings else a.dest
                  for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for command, parser in subparsers.choices.items()
    }
    assert options == {
        "build-cayley": ["--n", "--nodes", "--out", "--manifest"],
        "analyze": ["graph", "--cayley", "--truncate", "--allow-self-loops", "--out",
                    "--manifest"],
        "sweep": ["--v-min", "--v-max", "--out", "--plot", "--cache-dir", "--manifest"],
        "rewire": ["dataset", "--scheme", "--layers", "--out-dir", "--manifest"],
        "train": ["--structures", "--seeds", "--train-sizes", "--test-size", "--epochs",
                  "--batch-size", "--learning-rate", "--hidden", "--layers", "--layer-kind",
                  "--scheme", "--out", "--plot", "--manifest"],
        "bench": ["--sizes", "--seed", "--out", "--manifest"],
    }
    assert sum(map(len, options.values())) == 39
