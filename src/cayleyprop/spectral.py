"""Bottleneck diagnostics: Laplacians, spectral gap, Cheeger bounds, diameter,
total effective resistance, Dirichlet energy, and the truncation sweep.

All spectral quantities ignore flagged self-loops: they carry no structural
information for cuts or distances, and keeping them out makes reports on
extended template graphs comparable with reports on the raw inputs.

`analyze` runs its two independent stages at once: the hop diameter and the
D - A spectrum on one long-lived worker thread, the normalized spectrum on
the calling thread.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cayley import CayleyCache, smallest_modulus
from .graphcore import UGraph, _as_int, _check_dense, induced_prefix_subgraph

EIG_TOL = 1e-10
ZERO_EIGENVALUE_CUTOFF = 1e-8

SWEEP_CSV_HEADER = (
    "v,modulus,is_complete,spectral_gap,cheeger_lower,cheeger_upper,"
    "diameter,r_tot"
)


def laplacian(g: UGraph, kind: str = "normalized") -> np.ndarray:
    """Graph Laplacian as a dense symmetric matrix.

    kind="combinatorial": L = D - A.
    kind="normalized":    L = D^{-1/2} (D - A) D^{-1/2}, with the rows and
    columns of isolated vertices zeroed.
    """
    if kind not in ("combinatorial", "normalized"):
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    lap = g.adjacency_matrix()
    deg = lap.sum(axis=1)
    np.negative(lap, out=lap)
    lap[np.diag_indices_from(lap)] = deg
    if kind == "normalized":
        return _normalized(lap, deg)
    return lap


def _normalized(lap: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """D^{-1/2} (D - A) D^{-1/2} from D - A, as a new matrix; the
    off-diagonal entries are -a * s_u * s_v, in that order of operations."""
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    norm = lap * inv_sqrt[:, None]
    norm *= inv_sqrt[None, :]
    norm[np.diag_indices_from(norm)] = np.where(deg > 0, 1.0, 0.0)
    return norm


def eig_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, checked before returning.

    Rejects inputs that are not symmetric within EIG_TOL. A combinatorial
    Laplacian D - A is solved for eigenvalues only and checked by the
    identities its spectrum obeys (_laplacian_spectrum). Any other matrix is
    decomposed with its eigenvectors and must meet the reconstruction
    residual ||MQ - Q diag(w)|| <= EIG_TOL * ||M||.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    largest = float(np.abs(m).max(initial=0.0))
    if not math.isfinite(largest):
        raise ValueError("matrix has a NaN or infinite entry")
    scale = max(1.0, largest)
    # Written as `not err <= tol` here and below, so that a NaN error fails.
    if not float(np.abs(m - m.T).max(initial=0.0)) <= EIG_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    if _is_combinatorial_laplacian(m):
        return _laplacian_spectrum(m)
    w, q = np.linalg.eigh(m)
    norm = max(float(np.linalg.norm(m)), 1.0)
    r = m @ q
    r -= q * w
    residual = float(np.linalg.norm(r))
    if not residual <= EIG_TOL * norm:
        raise RuntimeError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{EIG_TOL:.1e} * ||M||"
        )
    return w


def _is_combinatorial_laplacian(m: np.ndarray) -> bool:
    """True when m = D - A for a 0/1 adjacency matrix A with a zero
    diagonal: every row sums to 0 and every off-diagonal entry is 0 or -1."""
    if m.size == 0 or np.any(m.sum(axis=1) != 0.0):
        return False
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all((off == 0.0) | (off == -1.0)))


def _laplacian_spectrum(lap: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of L = D - A from an eigenvalue-only solve.

    Without eigenvectors there is no residual to check, so the spectrum is
    checked against what L fixes, with d = diag(L) the degrees: a smallest
    eigenvalue of 0, so none is below -tol; sum(mu) = trace(L) = sum(d); and
    sum(mu^2) = ||L||_F^2 = sum(d^2) + sum(d). The tolerances are what the
    residual check allows: it accepts a backward error E with ||E||_F <= t =
    EIG_TOL * ||L||_F, which moves each eigenvalue by at most t (Weyl) and
    the eigenvalue vector by at most t in 2-norm (Hoffman-Wielandt), so
    their sum by at most sqrt(n) t and the sum of their squares by at most
    2 ||L||_F t + t^2.
    """
    mu = np.linalg.eigvalsh(lap)
    deg = np.diag(lap)
    trace = float(np.sum(deg))
    frob_sq = float(np.sum(deg * deg)) + trace
    t = EIG_TOL * max(math.sqrt(frob_sq), 1.0)
    checks = (
        ("smallest eigenvalue", float(mu.min()), t),
        ("sum", float(np.sum(mu)) - trace, math.sqrt(len(mu)) * t),
        ("sum of squares", float(np.sum(mu * mu)) - frob_sq,
         (2.0 * math.sqrt(frob_sq) + t) * t),
    )
    for name, error, tol in checks:
        if not abs(error) <= tol:
            raise RuntimeError(
                f"Laplacian spectrum {name} is off by {error:.3e}, "
                f"more than {tol:.3e}"
            )
    return mu


@dataclass(frozen=True)
class SpectralReport:
    """Bottleneck summary of one graph.

    eigenvalues are those of the normalized Laplacian, ascending. diameter
    is None when the graph is disconnected, in which case r_tot is infinite
    and the gap and Cheeger bounds are zero.
    """

    eigenvalues: tuple[float, ...]
    spectral_gap: float
    cheeger_lower: float
    cheeger_upper: float
    diameter: int | None
    r_tot: float
    isolated_count: int

    @property
    def connected(self) -> bool:
        return self.diameter is not None

    def to_json_dict(self) -> dict:
        return {
            "node_count": len(self.eigenvalues),
            "eigenvalues": list(self.eigenvalues),
            "spectral_gap": self.spectral_gap,
            "cheeger_lower": self.cheeger_lower,
            "cheeger_upper": self.cheeger_upper,
            "diameter": self.diameter if self.connected else "disconnected",
            "r_tot": self.r_tot if math.isfinite(self.r_tot) else "inf",
            "isolated_count": self.isolated_count,
        }


def diameter_bfs(g: UGraph) -> int | None:
    """Exact hop diameter by one BFS from every node at once; None if
    disconnected. Self-loops are ignored.

    Row u of the frontier is a bit set, in np.packbits layout, of the sources
    whose search first reached u at the current level. A node is reached at
    the next level from every source that reached one of its neighbours, so
    a level ORs the rows of a node's neighbours into its own row, one degree
    slot at a time. Nodes are ranked by descending degree, so the nodes with
    a k-th neighbour are a prefix of the rows. Four n x n/8 byte arrays, no
    matrix product.
    """
    n = g.node_count
    _check_dense(n, "an all-sources BFS")
    if n == 0:
        return None
    adj = g.adj
    deg = np.fromiter(map(len, adj), dtype=np.intp, count=n)
    # An isolated node disconnects any larger graph; past this, every node
    # has a neighbour in slot 0, so that slot fills every row.
    if n > 1 and deg.min() == 0:
        return None
    indptr = np.concatenate(([0], np.cumsum(deg)))
    indices = np.fromiter(chain.from_iterable(adj), dtype=np.intp, count=indptr[-1])
    order = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    # slots[k][r]: rank of the k-th neighbour of the node of rank r.
    slots = [
        rank[indices[indptr[order[: np.count_nonzero(deg > k)]] + k]]
        for k in range(deg.max())
    ]
    r = np.arange(n)
    frontier = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    frontier[r, r >> 3] = 0x80 >> (r & 7)
    unreached = np.full_like(frontier, 0xFF)
    unreached[:, -1] = 0xFF & (0xFF << (-n % 8))  # no padding bit is sought
    unreached ^= frontier
    nxt = np.empty_like(frontier)
    gathered = np.empty_like(frontier)
    levels = 0
    # The ranks are in range by construction; mode="clip" skips the buffered
    # copy that np.take makes into ``out`` to check them.
    while unreached.any():
        np.take(frontier, slots[0], axis=0, out=nxt, mode="clip")
        for nbrs in slots[1:]:
            part = gathered[: len(nbrs)]
            np.take(frontier, nbrs, axis=0, out=part, mode="clip")
            nxt[: len(nbrs)] |= part
        np.bitwise_and(nxt, unreached, out=frontier)
        if not frontier.any():
            return None
        unreached ^= frontier
        levels += 1
    return levels


# analyze's worker: one daemon thread serving a job queue, started by the
# first analyze and kept for the life of the process, since a thread per
# call pays OpenBLAS's per-thread set-up each time. (A concurrent.futures
# executor would do, but held about 1 MiB more peak RSS over the sweep.)
# Callers on several threads share it; the lock makes one of them start it.
_jobs: queue.SimpleQueue | None = None
_jobs_lock = threading.Lock()


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        fn, args, reply = jobs.get()
        try:
            reply.put((True, fn(*args)))
        except BaseException as exc:  # raised again by the caller
            reply.put((False, exc))
        del fn, args, reply  # an idle worker holds no graph or matrix


def _submit(fn, *args) -> queue.SimpleQueue:
    """Queue fn(*args) on the worker; its outcome arrives on the returned
    queue as (True, result) or (False, exception)."""
    global _jobs
    with _jobs_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(_jobs,), name="cayleyprop-analyze", daemon=True
            ).start()
        jobs = _jobs
    reply = queue.SimpleQueue()
    jobs.put((fn, args, reply))
    return reply


def _forget_worker() -> None:
    """A fork()ed child has no copy of the parent's worker thread, so its
    first analyze starts one of its own; a fresh lock, since another thread
    may have held the parent's at the fork."""
    global _jobs, _jobs_lock
    _jobs = None
    _jobs_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _diameter_and_r_tot(g: UGraph, lap: np.ndarray) -> tuple[int | None, float]:
    """Hop diameter, then r_tot = n * sum(1 / mu) over the nonzero spectrum
    mu of lap = D - A; lap is only read."""
    n = g.node_count
    diameter = diameter_bfs(g)
    if n == 1:
        return diameter, 0.0
    if diameter is None:
        return diameter, math.inf
    comb = eig_sym(lap)
    return diameter, float(n * np.sum(1.0 / comb[1:]))


def analyze(g: UGraph) -> SpectralReport:
    """Full spectral report; degenerate cases are reported, not raised.

    One D - A serves both spectra. The worker thread takes the diameter
    first and then the spectrum of D - A, which feeds only r_tot; the
    caller meanwhile solves a normalized copy. Each stage raises as it would
    in that serial order: a failure of the worker's stages is raised ahead
    of one of the caller's, and the worker has finished before analyze
    returns or raises.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("cannot analyze an empty graph")
    lap = laplacian(g, "combinatorial")
    deg = lap.diagonal().copy()
    reply = _submit(_diameter_and_r_tot, g, lap)
    try:
        evals = eig_sym(_normalized(lap, deg))
    finally:
        done, out = reply.get()
        if not done:
            raise out
    diameter, r_tot = out
    evals = np.where(np.abs(evals) < ZERO_EIGENVALUE_CUTOFF, 0.0, evals)
    gap = float(evals[1]) if n >= 2 and diameter is not None else 0.0
    return SpectralReport(
        eigenvalues=tuple(float(v) for v in evals),
        spectral_gap=gap,
        cheeger_lower=gap / 2.0,
        cheeger_upper=math.sqrt(2.0 * gap),
        diameter=diameter,
        r_tot=r_tot,
        isolated_count=int(np.count_nonzero(deg == 0)),
    )


# No command calls this yet: it is to be reported per layer by `train --trace`.
def dirichlet_energy(g: UGraph, x: np.ndarray) -> float:
    """trace(X^T L_norm X) / |V|; zero iff X is smooth along every edge."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] != g.node_count:
        raise ValueError(
            f"feature rows {x.shape[0]} do not match node count {g.node_count}"
        )
    energy = float(np.trace(x.T @ laplacian(g, "normalized") @ x)) / g.node_count
    return max(energy, 0.0)


# ---------------------------------------------------------------------------
# Truncation sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    v: int
    modulus: int
    is_complete: bool
    spectral_gap: float
    cheeger_lower: float
    cheeger_upper: float
    diameter: int | None
    r_tot: float


def expansion_sweep(
    v_min: int, v_max: int, cache: CayleyCache | None = None
) -> list[SweepRow]:
    """One row per target size v: smallest-modulus Cayley graph truncated
    to v nodes and analyzed. Rows at the exact group orders are flagged
    complete. Without a cache, the groups are built in a memory-only one."""
    v_min = _as_int(v_min, "v_min", 2)
    v_max = _as_int(v_max, "v_max")
    # Fail before the first row, not after hours of rows below the cap.
    if v_max >= v_min:
        _check_dense(v_max, "a sweep row")
    cache = cache or CayleyCache()
    rows = []
    for v in range(v_min, v_max + 1):
        n = smallest_modulus(v)
        full = cache.graph(n)
        g = induced_prefix_subgraph(full, v)
        report = analyze(g)
        rows.append(
            SweepRow(
                v=v,
                modulus=n,
                is_complete=v == full.node_count,
                spectral_gap=report.spectral_gap,
                cheeger_lower=report.cheeger_lower,
                cheeger_upper=report.cheeger_upper,
                diameter=report.diameter,
                r_tot=report.r_tot,
            )
        )
    return rows


def sweep_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        diameter = str(r.diameter) if r.diameter is not None else "disconnected"
        r_tot = format(r.r_tot, ".12g") if math.isfinite(r.r_tot) else "inf"
        lines.append(
            f"{r.v},{r.modulus},{'true' if r.is_complete else 'false'},"
            f"{format(r.spectral_gap, '.12g')},"
            f"{format(r.cheeger_lower, '.12g')},"
            f"{format(r.cheeger_upper, '.12g')},{diameter},{r_tot}"
        )
    return "\n".join(lines) + "\n"
