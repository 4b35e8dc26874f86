import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import cayleyprop
from cayleyprop import spectral
from cayleyprop.cli import main
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    emit_edge_list,
    gen_graph,
    parse_edge_list,
)


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_missing_args(self, capsys, cache_dir):
        code, _, err = run(["build-cayley", "--cache-dir", cache_dir], capsys)
        assert code == 1

    def test_usage_error_both_args(self, capsys, cache_dir):
        code, _, _ = run(
            ["build-cayley", "--n", "3", "--nodes", "5", "--cache-dir", cache_dir],
            capsys,
        )
        assert code == 1

    def test_usage_error_nodes_zero(self, capsys, cache_dir):
        code, _, err = run(
            ["build-cayley", "--nodes", "0", "--cache-dir", cache_dir], capsys
        )
        assert code == 1
        assert "usage" in err.lower()

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
            (TRAIN + ["--structures", ","], 1),
            (BENCH + ["--sizes", "0,10"], 1),
            (BENCH + ["--seed=-1"], 1),
            (["analyze", "empty.edgelist"], 2),
            (["rewire", "dataset.json", "--out-dir", "rewired"], 2),
        ],
        ids=["test-size", "train-sizes", "epochs", "batch-size", "hidden",
             "learning-rate", "learning-rate-nan", "learning-rate-inf", "seeds",
             "structures-empty", "bench-sizes", "bench-seed", "empty-graph",
             "graphs-not-a-list"],
    )
    def test_bad_values_exit_with_documented_code(
        self, argv, expected, capsys, cache_dir, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.edgelist").write_text("0\n")
        (tmp_path / "dataset.json").write_text(json.dumps({"graphs": {"a": "x"}}))
        code, _, err = run(argv + ["--cache-dir", cache_dir], capsys)
        assert code == expected, err

    def test_dense_matrix_over_the_cap_is_runtime_error(self, capsys, tmp_path):
        # An edgeless graph: the cap is hit before anything is allocated.
        path = tmp_path / "wide.edgelist"
        path.write_text(f"{DENSE_NODE_CAP + 1}\n")
        code, _, err = run(
            ["analyze", str(path), "--manifest", str(tmp_path / "m.json")], capsys
        )
        assert code == 3
        assert str(DENSE_NODE_CAP + 1) in err and str(DENSE_NODE_CAP) in err


class TestBuildCayley:
    def test_by_modulus(self, capsys, cache_dir, tmp_path):
        out_file = tmp_path / "c3.edgelist"
        code, out, _ = run(
            [
                "build-cayley",
                "--n",
                "3",
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
        assert "nodes=24" in out and "edges=48" in out and "degree=4" in out
        g = parse_edge_list(out_file.read_text())
        assert g.node_count == 24
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["command"] == "build-cayley"

    def test_irregular_cache_file_is_runtime_error(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "cayley-n5-v120.edgelist").write_text("120\n0 1\n")
        code, _, err = run(
            [
                "build-cayley",
                "--n",
                "5",
                "--cache-dir",
                str(cache),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 3
        assert "corrupt cache file" in err

    def test_by_target_nodes(self, capsys, cache_dir, tmp_path):
        code, out, _ = run(
            [
                "build-cayley",
                "--nodes",
                "24",
                "--cache-dir",
                cache_dir,
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert "modulus=3" in out


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

    def test_cgp_export(self, capsys, cache_dir, tmp_path):
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
                "--cache-dir",
                cache_dir,
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

    def test_egp_never_pads(self, capsys, cache_dir, tmp_path):
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
                "--cache-dir",
                cache_dir,
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

    def test_partial_failure_nonzero_exit(self, capsys, cache_dir, tmp_path):
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
                "--cache-dir",
                cache_dir,
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 2
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["failures"]) == 1
        assert len(summary["graphs"]) == 1  # the good graph still exported

    def _rewire_with_extra_entries(self, capsys, cache_dir, tmp_path, extra):
        work = tmp_path / "work"
        work.mkdir()
        manifest = self._write_dataset(work, [10])
        data = json.loads(manifest.read_text())
        data["graphs"].extend(extra)
        manifest.write_text(json.dumps(data))
        out_dir = work / "out"
        code, _, _ = run(
            ["rewire", str(manifest), "--scheme", "CGP", "--out-dir", str(out_dir),
             "--cache-dir", cache_dir, "--manifest", str(tmp_path / "m.json")],
            capsys,
        )
        return code, json.loads((out_dir / "summary.json").read_text()), out_dir

    @pytest.mark.parametrize(
        "name", ["../escaped", "out/../../escaped", "sub/escaped", "ABSOLUTE", "",
                 ".", "..", 5, None]
    )
    def test_name_must_be_a_plain_file_name(self, capsys, cache_dir, tmp_path, name):
        if name == "ABSOLUTE":
            name = str(tmp_path / "escaped")
        code, summary, out_dir = self._rewire_with_extra_entries(
            capsys, cache_dir, tmp_path, [{"name": name, "graph": "g0.edgelist"}]
        )
        assert code == 2
        assert [f["name"] for f in summary["failures"]] == [name]
        assert "plain file name" in summary["failures"][0]["error"]
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert (out_dir / "g0.cayley.edgelist").is_file()
        assert not list(tmp_path.rglob("*escaped*"))

    @pytest.mark.parametrize("graph", [5, None, ["g0.edgelist"]])
    def test_non_string_graph_is_a_recorded_failure(
        self, capsys, cache_dir, tmp_path, graph
    ):
        code, summary, out_dir = self._rewire_with_extra_entries(
            capsys, cache_dir, tmp_path, [{"name": "bad", "graph": graph}]
        )
        assert code == 2
        assert [f["name"] for f in summary["failures"]] == ["bad"]
        assert "not a path string" in summary["failures"][0]["error"]
        assert [g["name"] for g in summary["graphs"]] == ["g0"]
        assert (out_dir / "g0.json").is_file()
        assert not (out_dir / "bad.json").exists()


class TestTrainCommand:
    def test_smoke_run_within_budget(self, capsys, cache_dir, tmp_path):
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
                "--cache-dir",
                cache_dir,
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

    def test_reproducible_bytes(self, capsys, cache_dir, tmp_path):
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
                    "--cache-dir",
                    cache_dir,
                    "--manifest",
                    str(tmp_path / "m.json"),
                ],
                capsys,
            )
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_run_is_listed_as_failed(self, capsys, cache_dir, tmp_path):
        # One Adam step at this rate leaves finite parameters whose logits
        # overflow; the run must not be reported as a curve row, and a
        # command with a failed run exits 3 after writing its outputs.
        out_file = tmp_path / "c.csv"
        code, out, err = run(
            ["train", "--structures", "Empty", "--seeds", "0", "--train-sizes", "20",
             "--test-size", "5", "--epochs", "1", "--learning-rate", "1e300",
             "--out", str(out_file), "--cache-dir", cache_dir,
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

    def test_bad_structure_usage_error(self, capsys, cache_dir, tmp_path):
        code, _, _ = run(
            [
                "train",
                "--structures",
                "Mesh",
                "--out",
                str(tmp_path / "x.csv"),
                "--cache-dir",
                cache_dir,
            ],
            capsys,
        )
        assert code == 1


class TestBench:
    def test_csv_and_cache_reuse(self, capsys, cache_dir, tmp_path):
        out_file = tmp_path / "bench.csv"
        code, out, _ = run(
            [
                "bench",
                "--sizes",
                "50,120",
                "--n-max",
                "200",
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
        assert lines[0] == "n,seconds"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) >= 0.0

    def test_n_max_filters(self, capsys, cache_dir, tmp_path):
        code, _, _ = run(
            [
                "bench",
                "--sizes",
                "50,5000",
                "--n-max",
                "100",
                "--out",
                str(tmp_path / "b.csv"),
                "--cache-dir",
                cache_dir,
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert len((tmp_path / "b.csv").read_text().strip().split("\n")) == 2

    def test_cold_cache_directory_removed(self, capsys, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        code, _, _ = run(
            [
                "bench",
                "--sizes",
                "50",
                "--cold",
                "--out",
                str(tmp_path / "b.csv"),
                "--manifest",
                str(tmp_path / "m.json"),
            ],
            capsys,
        )
        assert code == 0
        assert list(scratch.glob("cayleyprop-bench-*")) == []

    def test_ceiling_guard(self, capsys, cache_dir, tmp_path):
        code, _, _ = run(
            [
                "bench",
                "--n-max",
                "100000",
                "--out",
                str(tmp_path / "b.csv"),
                "--cache-dir",
                cache_dir,
            ],
            capsys,
        )
        assert code == 1
