"""Bottleneck diagnostics: Laplacians, spectral gap, Cheeger bounds, diameter,
effective resistance, Dirichlet energy, and the truncation sweep.

All spectral quantities ignore flagged self-loops: they carry no structural
information for cuts or distances, and keeping them out makes reports on
extended template graphs comparable with reports on the raw inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cayley import CayleyCache, smallest_modulus
from .graphcore import UGraph, induced_prefix_subgraph

EIG_TOL = 1e-10
ZERO_EIGENVALUE_CUTOFF = 1e-8
CHEEGER_BRUTEFORCE_MAX_NODES = 20

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
    a = g.adjacency_matrix()
    deg = a.sum(axis=1)
    if kind == "combinatorial":
        return np.diag(deg) - a
    if kind == "normalized":
        with np.errstate(divide="ignore"):
            inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
        lap = -a * inv_sqrt[:, None] * inv_sqrt[None, :]
        lap[np.arange(g.node_count), np.arange(g.node_count)] = np.where(
            deg > 0, 1.0, 0.0
        )
        return lap
    raise ValueError(f"unknown Laplacian kind {kind!r}")


def eig_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Rejects inputs that are not symmetric within EIG_TOL and verifies the
    reconstruction residual ||MQ - Q diag(w)|| <= EIG_TOL * ||M|| before
    returning.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > EIG_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, q = np.linalg.eigh(m)
    norm = max(float(np.linalg.norm(m)), 1.0)
    residual = float(np.linalg.norm(m @ q - q * w))
    if residual > EIG_TOL * norm:
        raise RuntimeError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{EIG_TOL:.1e} * ||M||"
        )
    return w


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
    disconnected.

    Row s of the frontier holds the nodes first reached from s at the current
    level, and one product with the adjacency matrix gives the next level.
    Neighbour counts are exact in float64, so ``> 0`` misses none. The
    product stays in float64, the eigensolver's dtype: a float32 product
    halves its time but maps BLAS's single-precision kernels, which raised
    peak RSS. Costs n^2 memory, like the Laplacians.
    """
    n = g.node_count
    if n == 0:
        return None
    a = g.adjacency_matrix()
    reached = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    levels = 0
    while not reached.all():
        new = (frontier @ a > 0) & ~reached
        if not new.any():
            return None
        reached |= new
        frontier = new.astype(np.float64)
        levels += 1
    return levels


def analyze(g: UGraph) -> SpectralReport:
    """Full spectral report; degenerate cases are reported, not raised."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot analyze an empty graph")
    evals = eig_sym(laplacian(g, "normalized"))
    evals = np.where(np.abs(evals) < ZERO_EIGENVALUE_CUTOFF, 0.0, evals)
    gap = float(evals[1]) if n >= 2 else 0.0
    diameter = diameter_bfs(g)
    connected = diameter is not None
    if not connected:
        gap = 0.0
    if n == 1:
        r_tot = 0.0
    elif connected:
        comb = eig_sym(laplacian(g, "combinatorial"))
        r_tot = float(n * np.sum(1.0 / comb[1:]))
    else:
        r_tot = math.inf
    degrees = g.degrees()
    return SpectralReport(
        eigenvalues=tuple(float(v) for v in evals),
        spectral_gap=gap,
        cheeger_lower=gap / 2.0,
        cheeger_upper=math.sqrt(2.0 * gap),
        diameter=diameter,
        r_tot=r_tot,
        isolated_count=sum(1 for d in degrees if d == 0),
    )


def effective_resistance_pair(g: UGraph, u: int, v: int) -> float:
    """Electrical resistance between u and v via the pseudoinverse of D - A.

    R(u, v) = (1_u - 1_v)^T L^+ (1_u - 1_v). Used as the per-pair oracle for
    the total-resistance eigenvalue formula.
    """
    if u == v:
        raise ValueError("effective resistance requires two distinct nodes")
    if not (0 <= u < g.node_count and 0 <= v < g.node_count):
        raise ValueError(f"nodes ({u}, {v}) out of range")
    if not g.is_connected():
        raise ValueError("effective resistance is undefined on a disconnected graph")
    pinv = np.linalg.pinv(laplacian(g, "combinatorial"))
    z = np.zeros(g.node_count)
    z[u] = 1.0
    z[v] = -1.0
    return float(z @ pinv @ z)


def cheeger_constant_bruteforce(g: UGraph) -> float:
    """Exact Cheeger constant by exhaustive subset enumeration.

    h(G) = min over cuts of |E(S, comp S)| / min(vol S, vol comp S) with
    vol measured in degrees. Exponential; guarded to small graphs.
    """
    n = g.node_count
    if n > CHEEGER_BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"exhaustive Cheeger limited to {CHEEGER_BRUTEFORCE_MAX_NODES} "
            f"nodes, got {n}"
        )
    if n < 2:
        raise ValueError("Cheeger constant needs at least two nodes")
    degrees = g.degrees()
    total_vol = sum(degrees)
    best = math.inf
    # Vertex n-1 stays outside S, which halves the enumeration without
    # losing any cut.
    for mask in range(1, 1 << (n - 1)):
        vol = 0
        for u in range(n - 1):
            if mask >> u & 1:
                vol += degrees[u]
        small = min(vol, total_vol - vol)
        if small == 0:
            continue
        boundary = 0
        for a, b in g.edges:
            in_a = a < n - 1 and mask >> a & 1
            in_b = b < n - 1 and mask >> b & 1
            if in_a != in_b:
                boundary += 1
        best = min(best, boundary / small)
    return best


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
    complete."""
    if v_min < 2:
        raise ValueError(f"v_min must be >= 2, got {v_min}")
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
