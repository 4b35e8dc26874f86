import gc
import math
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from cayleyprop import BLAS_THREAD_VARS, spectral
from cayleyprop.cayley import CayleyCache, build_cayley
from cayleyprop.graphcore import (
    DENSE_NODE_CAP,
    UGraph,
    complete_graph,
    gen_graph,
    induced_prefix_subgraph,
    star_graph,
)
from cayleyprop.spectral import (
    EIG_TOL,
    analyze,
    diameter_bfs,
    dirichlet_energy,
    eig_sym,
    expansion_sweep,
    laplacian,
    sweep_to_csv,
)
from oracles import (
    analyze_serial,
    cheeger_constant_bruteforce,
    diameter_per_source,
    disjoint_union,
    effective_resistance_pair,
    is_connected,
)

TRIANGLE = UGraph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = UGraph(3, [(0, 1), (1, 2)])
EDGE = UGraph(2, [(0, 1)])

# Complete Cay(SL(2, Z_3)) is 4-regular, so its combinatorial spectrum is
# 4x the normalized one; the second-smallest eigenvalue is 3 - sqrt(3).
CAYLEY3_NORMALIZED_GAP = (3.0 - math.sqrt(3.0)) / 4.0


def random_connected(n, seed, p=0.4):
    for s in range(seed, seed + 100):
        g = gen_graph(n, s, p=p)
        if is_connected(g):
            return g
    raise AssertionError("no connected sample found")


class TestLaplacian:
    def test_single_edge_normalized(self):
        np.testing.assert_allclose(
            laplacian(EDGE, "normalized"), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_triangle_combinatorial_spectrum(self):
        np.testing.assert_allclose(
            eig_sym(laplacian(TRIANGLE, "combinatorial")), [0.0, 3.0, 3.0], atol=1e-12
        )

    def test_regular_graph_identity(self):
        g = build_cayley(3).graph
        expected = np.eye(24) - g.adjacency_matrix() / 4.0
        np.testing.assert_allclose(laplacian(g, "normalized"), expected, atol=1e-12)

    def test_isolated_rows_zeroed(self):
        g = UGraph(3, [(0, 1)])
        lap = laplacian(g, "normalized")
        assert lap[2, 2] == 0.0
        assert np.all(lap[2] == 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            laplacian(EDGE, "rw")


class TestEigSym:
    def test_identity(self):
        np.testing.assert_allclose(eig_sym(np.eye(3)), [1.0, 1.0, 1.0])

    def test_diagonal(self):
        np.testing.assert_allclose(eig_sym(np.diag([3.0, 0.0, 3.0])), [0.0, 3.0, 3.0])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape"):
            eig_sym(np.zeros(shape))

    @pytest.mark.parametrize(
        "m",
        [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]],
         [[-math.inf, 0.0], [0.0, 0.0]]],
        ids=["nan", "inf", "-inf"],
    )
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(ValueError, match="NaN or infinite"):
            eig_sym(np.array(m))

    def test_nan_residual_is_rejected(self, monkeypatch):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        w, q = np.linalg.eigh(m)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (w * math.nan, q))
        with pytest.raises(RuntimeError, match="residual"):
            eig_sym(m)

    def test_cayley3_gap(self):
        lam = eig_sym(laplacian(build_cayley(3).graph, "normalized"))
        assert lam[1] == pytest.approx(CAYLEY3_NORMALIZED_GAP, abs=1e-10)


class TestAnalyze:
    def test_cayley3_report(self):
        rep = analyze(build_cayley(3).graph)
        assert rep.diameter == 4
        assert rep.spectral_gap == pytest.approx(CAYLEY3_NORMALIZED_GAP, abs=1e-10)
        assert rep.cheeger_lower == pytest.approx(rep.spectral_gap / 2)
        assert rep.cheeger_upper == pytest.approx(math.sqrt(2 * rep.spectral_gap))
        assert rep.connected

    def test_path_diameter(self):
        assert analyze(PATH3).diameter == 2

    def test_single_edge_gap_two(self):
        assert analyze(EDGE).spectral_gap == pytest.approx(2.0)

    def test_disconnected_reporting(self):
        g = disjoint_union([TRIANGLE, TRIANGLE])
        rep = analyze(g)
        assert rep.diameter is None
        assert not rep.connected
        assert rep.spectral_gap == 0.0
        assert rep.cheeger_lower == 0.0
        assert math.isinf(rep.r_tot)
        assert rep.to_json_dict()["diameter"] == "disconnected"

    def test_single_node(self):
        rep = analyze(UGraph(1))
        assert rep.diameter == 0
        assert rep.r_tot == 0.0

    def test_spectrum_range_and_zero_multiplicity(self):
        # isolated vertices count as their own component; their zeroed rows
        # contribute one zero eigenvalue each
        for seed in range(6):
            g = gen_graph(12, seed, p=0.25)
            lam = np.array(analyze(g).eigenvalues)
            assert lam.min() >= -1e-9
            assert lam.max() <= 2.0 + 1e-9
            assert int(np.sum(lam < 1e-8)) == _component_count(g)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            analyze(UGraph(0))

    def test_one_adjacency_per_graph(self, monkeypatch):
        built = []
        original = UGraph.adjacency_matrix

        def counted(self, *args, **kwargs):
            built.append(self.node_count)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(UGraph, "adjacency_matrix", counted)
        graphs = [build_cayley(3).graph, PATH3, disjoint_union([TRIANGLE, EDGE]), UGraph(1)]
        for g in graphs:
            analyze(g)
        assert built == [g.node_count for g in graphs]


class WorkerFault(Exception):
    pass


class CallerFault(Exception):
    pass


class TestConcurrentAnalyze:
    """analyze takes the diameter and the D - A spectrum on its worker
    thread, beside the caller's normalized solve. An error surfaces as it
    would in that serial order, and the worker's stages have ended when
    analyze returns or raises."""

    G = induced_prefix_subgraph(build_cayley(4).graph, 30)

    @staticmethod
    def slow_diameter(monkeypatch, error=None):
        """diameter_bfs after a pause, raising error if given; returns the
        list of the threads it ended on."""
        ended = []
        original = spectral.diameter_bfs

        def diameter(g):
            time.sleep(0.2)
            ended.append(threading.current_thread())
            if error is not None:
                raise error
            return original(g)

        monkeypatch.setattr(spectral, "diameter_bfs", diameter)
        return ended

    @staticmethod
    def failing_solves(monkeypatch, combinatorial=None, normalized=None):
        """eig_sym raising the given error for D - A or for the normalized
        Laplacian."""
        original = spectral.eig_sym

        def eig(m):
            is_comb = spectral._is_combinatorial_laplacian(np.asarray(m))
            error = combinatorial if is_comb else normalized
            if error is not None:
                raise error
            return original(m)

        monkeypatch.setattr(spectral, "eig_sym", eig)

    def test_the_worker_runs_the_diameter(self, monkeypatch):
        ended = self.slow_diameter(monkeypatch)
        assert analyze(self.G) == analyze_serial(self.G)
        assert len(ended) == 1 and ended[0] is not threading.main_thread()

    def test_a_failing_diameter_is_raised(self, monkeypatch):
        ended = self.slow_diameter(monkeypatch, WorkerFault("diameter"))
        with pytest.raises(WorkerFault, match="diameter"):
            analyze(self.G)
        assert len(ended) == 1

    def test_a_failing_combinatorial_solve_is_raised(self, monkeypatch):
        self.failing_solves(monkeypatch, combinatorial=WorkerFault("D - A"))
        with pytest.raises(WorkerFault, match="D - A"):
            analyze(self.G)

    def test_a_failing_normalized_solve_waits_for_the_worker(self, monkeypatch):
        ended = self.slow_diameter(monkeypatch)
        self.failing_solves(monkeypatch, normalized=CallerFault("normalized"))
        with pytest.raises(CallerFault, match="normalized"):
            analyze(self.G)
        assert len(ended) == 1

    def test_when_both_fail_the_workers_error_is_raised(self, monkeypatch):
        ended = self.slow_diameter(monkeypatch)
        self.failing_solves(
            monkeypatch, combinatorial=WorkerFault("D - A"), normalized=CallerFault("norm")
        )
        with pytest.raises(WorkerFault, match="D - A") as raised:
            analyze(self.G)
        assert isinstance(raised.value.__context__, CallerFault)
        assert len(ended) == 1

    def test_the_worker_serves_calls_after_a_failure(self, monkeypatch):
        with monkeypatch.context() as patched:
            self.failing_solves(patched, combinatorial=WorkerFault("D - A"))
            with pytest.raises(WorkerFault):
                analyze(self.G)
        assert analyze(self.G) == analyze_serial(self.G)

    def test_callers_on_several_threads_share_one_worker(self, monkeypatch):
        # Six callers race to start the worker and then queue their jobs on
        # it, with the interpreter switching threads every 10 us.
        def workers():
            return [t for t in threading.enumerate() if t.name == "cayleyprop-analyze"]

        monkeypatch.setattr(spectral, "_jobs", None)
        before = len(workers())
        graphs = [induced_prefix_subgraph(build_cayley(4).graph, v) for v in range(20, 50, 5)]
        reports = [None] * len(graphs)

        def call(i):
            reports[i] = analyze(graphs[i])

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(graphs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reports == [analyze_serial(g) for g in graphs]
        assert len(workers()) == before + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    def test_a_forked_child_gets_a_worker_of_its_own(self):
        # Work queued on the parent's worker in a child would never run: the
        # child has no copy of the parent's thread.
        expected = analyze(self.G)  # the parent's worker thread is running
        pid = os.fork()
        if pid == 0:
            try:
                code = 0 if analyze(self.G) == expected else 1
            except BaseException:
                code = 2
            os._exit(code)
        deadline = time.monotonic() + 10.0
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's analyze did not return in 10 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    @pytest.mark.parametrize("fault", [False, True], ids=["returned", "raised"])
    def test_an_idle_worker_holds_no_graph(self, fault, monkeypatch):
        # The worker drops each job once it has answered: after analyze
        # returns or raises, neither the graph nor its Laplacian is held.
        if fault:

            def diameter(g):
                raise WorkerFault("diameter")  # fresh, so no test holds it

            monkeypatch.setattr(spectral, "diameter_bfs", diameter)
        g = induced_prefix_subgraph(build_cayley(4).graph, 30)
        alive = weakref.ref(g)
        if fault:
            with pytest.raises(WorkerFault):
                analyze(g)
        else:
            analyze(g)
        del g
        deadline = time.monotonic() + 1.0
        # The raised error's traceback and frames form a cycle, freed by gc.
        while alive() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.01)
        assert alive() is None

    @staticmethod
    def run_script(script: str) -> str:
        """Run script in a fresh interpreter on one BLAS thread; its stdout.
        It must exit 0 and print nothing to stderr."""
        src = str(Path(spectral.__file__).resolve().parents[1])
        env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        return done.stdout

    # A concurrent.futures executor takes no new work once the interpreter
    # has begun to shut down; the worker thread serves these two callers.
    def test_a_thread_that_outlives_the_main_thread_is_served(self):
        script = (
            "import threading\n"
            "from cayleyprop.spectral import expansion_sweep, sweep_to_csv\n"
            "def late():\n"
            "    threading.main_thread().join()\n"
            "    print(sweep_to_csv(expansion_sweep(6, 200)), end='')\n"
            "threading.Thread(target=late).start()\n"
        )
        assert self.run_script(script) == sweep_to_csv(expansion_sweep(6, 200))

    def test_an_atexit_handler_is_served(self):
        # The worker is started before the exit: from 3.12 on no thread may
        # start once the interpreter is finalizing.
        script = (
            "import atexit\n"
            "from cayleyprop.cayley import build_cayley\n"
            "from cayleyprop.graphcore import induced_prefix_subgraph\n"
            "from cayleyprop.spectral import analyze\n"
            "g = induced_prefix_subgraph(build_cayley(4).graph, 30)\n"
            "first = analyze(g)\n"
            "atexit.register(lambda: print(analyze(g) == first))\n"
        )
        assert self.run_script(script) == "True\n"


class TestEigenvalueOnlyLaplacianSolve:
    """eig_sym solves a combinatorial Laplacian without eigenvectors; the
    eigenvector residual form is its oracle."""

    def test_matches_the_residual_form_on_every_connected_cayley_prefix(self):
        for n in range(2, 7):
            full = build_cayley(n).graph
            for v in range(2, full.node_count + 1):
                g = induced_prefix_subgraph(full, v)
                assert is_connected(g)
                lap = laplacian(g, "combinatorial")
                norm = np.linalg.norm(lap)
                w, q = np.linalg.eigh(lap)
                assert np.linalg.norm(lap @ q - q * w) <= EIG_TOL * norm
                np.testing.assert_allclose(
                    eig_sym(lap), w, rtol=0, atol=1e-9 * norm, err_msg=f"n={n} v={v}"
                )

    # Each perturbation moves eigenvalues by 1e-6 ||L||_F and is caught by
    # the named check, the first of the three that it breaks.
    @pytest.mark.parametrize(
        "moves, check",
        [
            ({0: -1.0}, "smallest eigenvalue"),
            ({-1: 1.0}, "sum"),
            ({-1: 1.0, 1: -1.0}, "sum of squares"),
        ],
        ids=["smallest", "sum", "sum-of-squares"],
    )
    def test_perturbed_spectrum_is_rejected(self, moves, check, monkeypatch):
        g = induced_prefix_subgraph(build_cayley(5).graph, 100)
        lap = laplacian(g, "combinatorial")
        mu = eig_sym(lap)
        for i, sign in moves.items():
            mu[i] += sign * 1e-6 * np.linalg.norm(lap)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: mu)
        with pytest.raises(RuntimeError, match=f"spectrum {check} is off"):
            eig_sym(lap)
        # The normalized Laplacian keeps the eigenvector solve.
        eig_sym(laplacian(g, "normalized"))

    def test_nan_spectrum_is_rejected(self, monkeypatch):
        lap = laplacian(build_cayley(3).graph, "combinatorial")
        mu = eig_sym(lap)
        mu[-1] = math.nan
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: mu)
        with pytest.raises(RuntimeError, match="spectrum .* is off"):
            eig_sym(lap)


def _component_count(g):
    seen = set()
    count = 0
    for start in range(g.node_count):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(g.adj[u])
    return count


class TestCheeger:
    def test_sandwich_on_random_graphs(self):
        for seed in range(12):
            g = random_connected(8, 100 + seed)
            h = cheeger_constant_bruteforce(g)
            gap = analyze(g).spectral_gap
            assert gap / 2 <= h + 1e-12
            assert h <= math.sqrt(2 * gap) + 1e-12

    def test_complete_graph_value(self):
        # K4: every balanced cut crosses 4 edges, vol(S) = 6
        assert cheeger_constant_bruteforce(complete_graph(4)) == pytest.approx(2 / 3)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cheeger_constant_bruteforce(complete_graph(21))


class TestEffectiveResistance:
    def test_unit_resistor(self):
        assert effective_resistance_pair(EDGE, 0, 1) == pytest.approx(1.0)

    def test_triangle_pair(self):
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            assert effective_resistance_pair(TRIANGLE, u, v) == pytest.approx(2 / 3)

    def test_triangle_total_matches_eigen_formula(self):
        pairwise = sum(
            effective_resistance_pair(TRIANGLE, u, v)
            for u in range(3)
            for v in range(u + 1, 3)
        )
        assert pairwise == pytest.approx(2.0, abs=1e-10)
        assert analyze(TRIANGLE).r_tot == pytest.approx(2.0, abs=1e-10)

    def test_eigen_formula_vs_pairwise_oracle(self):
        for seed in range(5):
            g = random_connected(12, 300 + seed, p=0.3)
            pairwise = sum(
                effective_resistance_pair(g, u, v)
                for u in range(g.node_count)
                for v in range(u + 1, g.node_count)
            )
            assert analyze(g).r_tot == pytest.approx(pairwise, abs=1e-8)

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            effective_resistance_pair(UGraph(3, [(0, 1)]), 0, 2)

    def test_requires_distinct(self):
        with pytest.raises(ValueError):
            effective_resistance_pair(EDGE, 1, 1)


class TestDirichlet:
    def test_constant_on_regular_graph(self):
        g = build_cayley(3).graph
        x = np.ones((24, 3))
        assert dirichlet_energy(g, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_half(self):
        assert dirichlet_energy(EDGE, np.array([[0.0], [1.0]])) == pytest.approx(0.5)

    def test_empty_graph_zero(self):
        assert dirichlet_energy(UGraph(4), np.ones((4, 2))) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_energy(EDGE, np.ones((3, 1)))


class TestDiameterOracle:
    # Every prefix of moduli 2..8 covers the 355 sizes of the 6..360 sweep;
    # the oracle needs ~14 s for moduli 7 and 8.
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 6] + [pytest.param(n, marks=pytest.mark.slow) for n in (7, 8)]
    )
    def test_every_cayley_prefix(self, n):
        full = build_cayley(n).graph
        for v in range(1, full.node_count + 1):
            g = induced_prefix_subgraph(full, v)
            assert diameter_bfs(g) == diameter_per_source(g), f"v={v}"

    def test_seeded_er_graphs(self):
        found = []
        for seed in range(30):
            for n, p in ((12, 0.15), (30, 0.1), (60, 0.06), (20, 0.5), (60, 0.5)):
                g = gen_graph(n, seed, p=p)
                d = diameter_bfs(g)
                assert d == diameter_per_source(g), (n, seed)
                found.append(d is not None)
        assert any(found) and not all(found)  # both connected and disconnected

    def test_paths_and_cycles(self):
        for n in (2, 3, 10, 41):
            path = UGraph(n, [(i, i + 1) for i in range(n - 1)])
            assert diameter_bfs(path) == n - 1
        for n in (3, 4, 11, 40):
            cycle = UGraph(n, [(i, (i + 1) % n) for i in range(n)])
            assert diameter_bfs(cycle) == n // 2
        # The kernel's inner loop runs once per degree slot: a hub gives many
        # slots over few rows, a complete graph many slots over every row.
        for n in (2, 3, 9, 400):
            g = star_graph(n)
            assert diameter_bfs(g) == diameter_per_source(g) == min(n - 1, 2)
        for n in (2, 5, 30):
            g = complete_graph(n)
            assert diameter_bfs(g) == diameter_per_source(g) == 1
        for leaves, length in ((1, 1), (5, 10), (60, 40)):
            # Node 0 joined to leaves 1..leaves and to the first node of a
            # path of `length` nodes.
            hub = UGraph(
                1 + leaves + length,
                [(0, i) for i in range(1, leaves + 2)]
                + [(i, i + 1) for i in range(leaves + 1, leaves + length)],
            )
            assert diameter_bfs(hub) == diameter_per_source(hub) == length + 1

    def test_edgeless_and_degenerate_sizes(self):
        assert diameter_bfs(UGraph(0)) is None
        assert diameter_bfs(UGraph(1)) == 0
        for n in (2, 5):
            assert diameter_bfs(UGraph(n)) is None
            assert diameter_bfs(UGraph(n, self_loops=range(n))) is None
        # One isolated node first, last or in the middle of a connected rest.
        for g in (
            disjoint_union([UGraph(1), complete_graph(6)]),
            disjoint_union([star_graph(7), UGraph(1)]),
            disjoint_union([PATH3, UGraph(1), TRIANGLE]),
        ):
            assert diameter_bfs(g) is None
            assert diameter_per_source(g) is None

    def test_self_loops_are_ignored(self):
        for seed in range(5):
            g = random_connected(15, 400 + seed, p=0.2)
            looped = UGraph(g.node_count, g.edges, self_loops=range(0, 15, 2))
            assert diameter_bfs(looped) == diameter_bfs(g) == diameter_per_source(g)
        g = disjoint_union([PATH3, EDGE])
        looped = UGraph(g.node_count, g.edges, self_loops=range(g.node_count))
        assert diameter_bfs(looped) is None


class TestDiameterBound:
    def test_log_growth(self):
        # constant fitted once over n = 2..11 (max observed ratio 1.675)
        C = 1.75
        for n in range(2, 12):
            g = build_cayley(n).graph
            assert diameter_bfs(g) <= C * math.log(g.node_count)


class TestSweep:
    def test_rows_and_flags(self, tmp_path):
        rows = expansion_sweep(22, 26, cache=CayleyCache(tmp_path))
        assert [r.v for r in rows] == [22, 23, 24, 25, 26]
        flagged = {r.v for r in rows if r.is_complete}
        assert flagged == {24}
        by_v = {r.v: r for r in rows}
        assert by_v[24].modulus == 3
        assert by_v[25].modulus == 4
        assert by_v[25].spectral_gap < by_v[24].spectral_gap
        assert by_v[24].diameter == 4

    def test_csv_shape(self, tmp_path):
        rows = expansion_sweep(23, 25, cache=CayleyCache(tmp_path))
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "v,modulus,is_complete,spectral_gap,cheeger_lower,cheeger_upper,"
            "diameter,r_tot"
        )
        assert len(lines) == 4
        assert lines[2].startswith("24,3,true,")

    @pytest.mark.slow
    def test_every_truncation_in_the_sweep_range_expands_less_than_its_group(self):
        # The source paper's claim: a truncated Cayley template has a smaller
        # spectral gap than its complete group. Rows 337..360 truncate
        # modulus 8, whose complete order, 384, lies past the range, so each
        # complete gap comes from analyze on the whole group.
        cache = CayleyCache()
        rows = expansion_sweep(6, 360, cache=cache)
        complete = {
            n: analyze(cache.graph(n)).spectral_gap for n in {r.modulus for r in rows}
        }
        truncated = [r for r in rows if not r.is_complete]
        assert len(truncated) == 349
        above = [
            (r.v, r.spectral_gap, complete[r.modulus])
            for r in truncated
            if not r.spectral_gap < complete[r.modulus]
        ]
        assert above == []

    def test_v_min_guard(self):
        with pytest.raises(ValueError):
            expansion_sweep(1, 5)

    def test_v_max_over_the_dense_cap_fails_before_the_first_row(
        self, tmp_path, monkeypatch
    ):
        def no_row(g):
            raise AssertionError(f"analyzed a row of {g.node_count} nodes")

        monkeypatch.setattr(spectral, "analyze", no_row)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"{DENSE_NODE_CAP + 1}.*{DENSE_NODE_CAP}"):
            expansion_sweep(6, DENSE_NODE_CAP + 1, cache=CayleyCache(tmp_path))
        assert time.perf_counter() - t0 < 1.0
        assert not any(tmp_path.iterdir())
        # an empty range above the cap still yields no rows
        assert expansion_sweep(DENSE_NODE_CAP + 2, DENSE_NODE_CAP + 1) == []
