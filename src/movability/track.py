"""Numeric continuation along the configuration curve of a labeling.

Tangent prediction comes from the kernel of the pinned Jacobian, correction
is Gauss-Newton with step halving; every accepted sample is re-verified
against the constraints and scored for injectivity (minimum pairwise vertex
distance).  This is the certification lane for motions with no rational
parametrization, and the one scorer of sampled realizations: sampled_path
scores realizations obtained elsewhere (the glued paths) the same way.
Step count, step size and corrector tolerance are arguments; START_TOL and
RANK_TOL, which no caller varies, are constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Edge, edge
from .motion import Labeling

# largest constraint residual a start may have before it is polished
START_TOL = 1e-6
# singular values below RANK_TOL times the largest count as zero
RANK_TOL = 1e-8


class TrackerError(RuntimeError):
    """Start invalid, corrector divergence, or a rank jump on the path."""


@dataclass
class TrackSample:
    step: int
    coords: np.ndarray  # shape (n, 2)
    residual: float
    min_pair_distance: float
    watched_distance: float


@dataclass
class TrackedPath:
    labeling: Labeling
    fixed_edge: tuple[int, int]
    watched_pair: tuple[int, int]
    samples: list[TrackSample]

    @property
    def injectivity_margin(self) -> float:
        return min(s.min_pair_distance for s in self.samples)

    def to_csv(self) -> str:
        n = self.samples[0].coords.shape[0]
        header = ["step"]
        for v in range(n):
            header += [f"x{v}", f"y{v}"]
        header += ["residual", "min_pair_distance", "watched_distance"]
        lines = [",".join(header)]
        for s in self.samples:
            row = [str(s.step)]
            row += [f"{c:.17g}" for c in s.coords.reshape(-1)]
            row += [
                f"{s.residual:.3e}",
                f"{s.min_pair_distance:.17g}",
                f"{s.watched_distance:.17g}",
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _constraints(labeling: Labeling) -> tuple[list[Edge], np.ndarray]:
    """The labeling's edges in sorted order and their squared lengths."""
    edges = sorted(labeling)
    return edges, np.array([float(labeling[e]) for e in edges])


def _residuals(p: np.ndarray, edges, lam_sq, pins) -> np.ndarray:
    out = np.empty(len(edges) + len(pins))
    for k, (u, v) in enumerate(edges):
        d = p[u] - p[v]
        out[k] = d @ d - lam_sq[k]
    for k, (idx, axis, value) in enumerate(pins):
        out[len(edges) + k] = p[idx, axis] - value
    return out


def _jacobian(p: np.ndarray, edges, pins, n: int) -> np.ndarray:
    J = np.zeros((len(edges) + len(pins), 2 * n))
    for k, (u, v) in enumerate(edges):
        d = 2.0 * (p[u] - p[v])
        J[k, 2 * u : 2 * u + 2] = d
        J[k, 2 * v : 2 * v + 2] = -d
    for k, (idx, axis, _) in enumerate(pins):
        J[len(edges) + k, 2 * idx + axis] = 1.0
    return J


def _min_pair_distance(p: np.ndarray) -> float:
    n = p.shape[0]
    best = np.inf
    for u in range(n):
        for v in range(u + 1, n):
            best = min(best, float(np.hypot(*(p[u] - p[v]))))
    return best


def _kernel_dimension(J: np.ndarray) -> tuple[int, np.ndarray]:
    _, sigma, vt = np.linalg.svd(J)
    cutoff = RANK_TOL * (sigma[0] if sigma.size else 1.0)
    rank = int(np.sum(sigma > cutoff))
    return J.shape[1] - rank, vt[-1]


def _pins(fixed_edge: tuple[int, int]) -> list[tuple[int, int, float]]:
    """(vertex, axis, value): the fixed edge starts at the origin and lies on the x-axis."""
    u, v = fixed_edge
    return [(u, 0, 0.0), (u, 1, 0.0), (v, 1, 0.0)]


def _score(step: int, q: np.ndarray, edges, lam_sq, pins, watched_pair) -> TrackSample:
    """A realization with its largest constraint residual (pins included),
    its minimum pairwise vertex distance and its watched distance."""
    F = _residuals(q, edges, lam_sq, pins)
    return TrackSample(
        step=step,
        coords=q.copy(),
        residual=float(np.max(np.abs(F))),
        min_pair_distance=_min_pair_distance(q),
        watched_distance=float(np.hypot(*(q[watched_pair[0]] - q[watched_pair[1]]))),
    )


def labeling_residual(labeling: Labeling, q: np.ndarray) -> float:
    """Largest deviation of the realization q's squared edge lengths from the labeling."""
    edges, lam_sq = _constraints(labeling)
    return float(np.max(np.abs(_residuals(q, edges, lam_sq, []))))


def sampled_path(
    labeling: Labeling,
    samples: np.ndarray,
    fixed_edge: tuple[int, int],
    watched_pair: tuple[int, int],
) -> TrackedPath:
    """Given realizations, shape (k, n, 2) and in the frame of fixed_edge,
    scored as track_motion scores its own samples."""
    edges, lam_sq = _constraints(labeling)
    pins = _pins(fixed_edge)
    scored = [_score(k, q, edges, lam_sq, pins, watched_pair) for k, q in enumerate(samples)]
    return TrackedPath(labeling, fixed_edge, watched_pair, scored)


def normalize_start(
    start: np.ndarray, fixed: tuple[int, int]
) -> np.ndarray:
    """Translate/rotate so the fixed edge lies on the positive x-axis."""
    u, v = fixed
    p = np.asarray(start, dtype=float).copy()
    p -= p[u]
    d = p[v]
    L = float(np.hypot(*d))
    if L == 0:
        raise TrackerError("fixed edge has zero length in the start realization")
    c, s = d[0] / L, d[1] / L
    rot = np.array([[c, s], [-s, c]])
    return p @ rot.T


def track_motion(
    labeling: Labeling,
    start,
    fixed_edge: tuple[int, int],
    *,
    steps: int = 200,
    step_size: float = 0.05,
    tol: float = 1e-10,
    watched_pair: tuple[int, int] | None = None,
) -> TrackedPath:
    """Predictor-corrector path from a realization satisfying the labeling.

    Preconditions: steps is a positive integer, the step size and tol are
    finite and positive, the start is a finite array with one (x, y) row per
    vertex, it satisfies every edge constraint within START_TOL (it is then
    polished down to tol), and the rigidity matrix has rank below 2n-3 so a
    flex direction exists.  Each accepted sample has residual below tol; a
    sample whose minimum pairwise distance shrinks is visible to the caller
    through min_pair_distance (flagged, not fatal).
    """
    # an infinite step would never halve below step_size / 1024
    if not (np.isfinite(step_size) and step_size > 0):
        raise TrackerError(f"step size must be finite and positive, got {step_size}")
    if not (isinstance(steps, int) and steps > 0):
        raise TrackerError(f"steps must be a positive integer, got {steps}")
    # an infinite tol accepts every prediction uncorrected
    if not (np.isfinite(tol) and tol > 0):
        raise TrackerError(f"tol must be finite and positive, got {tol}")
    p = np.asarray(start, dtype=float)
    edges, lam_sq = _constraints(labeling)
    if edge(*fixed_edge) not in set(edges):
        raise TrackerError(f"fixed pair {fixed_edge} is not an edge of the labeling")
    if p.ndim != 2 or p.shape[1] != 2:
        raise TrackerError(f"start must have one (x, y) row per vertex, got shape {p.shape}")
    top = max(max(e) for e in edges)
    if p.shape[0] <= top:
        raise TrackerError(f"start has {p.shape[0]} rows but the labeling has vertex {top}")
    if not np.isfinite(p).all():
        raise TrackerError("start holds a non-finite coordinate")
    n = p.shape[0]
    p = normalize_start(p, fixed_edge)
    pins = _pins(fixed_edge)
    raw = np.max(np.abs(_residuals(p, edges, lam_sq, pins)))
    if raw > START_TOL:
        raise TrackerError(
            f"start realization does not satisfy the labeling: residual {raw:.2e} > {START_TOL:.0e}"
        )

    # a prediction far off the curve may overflow; correct rejects it
    @np.errstate(over="ignore", invalid="ignore")
    def correct(q: np.ndarray, max_iter: int = 30) -> np.ndarray | None:
        q = q.copy()
        for _ in range(max_iter):
            F = _residuals(q, edges, lam_sq, pins)
            if not np.isfinite(F).all():
                return None
            if np.max(np.abs(F)) < tol:
                return q
            J = _jacobian(q, edges, pins, n)
            delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
            q = q + delta.reshape(n, 2)
        F = _residuals(q, edges, lam_sq, pins)
        return q if np.max(np.abs(F)) < tol else None

    polished = correct(p)
    if polished is None:
        raise TrackerError("start realization does not satisfy the labeling within tol")
    p = polished

    if watched_pair is None:
        non_edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in set(edges)
        ]
        watched_pair = non_edges[0] if non_edges else edges[0]

    samples = [_score(0, p, edges, lam_sq, pins, watched_pair)]
    # the pins remove exactly the trivial motions, so the pinned kernel has
    # dimension 2n-3 minus the rank of the rigidity matrix
    J = _jacobian(p, edges, pins, n)
    kdim, tangent = _kernel_dimension(J)
    if kdim < 1:
        raise TrackerError(
            "rigidity matrix has full rank 2n-3 at the start: no flex direction"
        )
    if kdim > 1:
        raise TrackerError("singular start: tangent space dimension exceeds one")
    tangent = tangent / np.linalg.norm(tangent)
    h = step_size
    current = p
    for step in range(1, steps + 1):
        accepted = None
        while h >= step_size / 1024:
            prediction = current + h * tangent.reshape(n, 2)
            corrected = correct(prediction)
            if corrected is not None:
                accepted = corrected
                break
            h /= 2
        if accepted is None:
            raise TrackerError(f"corrector diverged at step {step}")
        J = _jacobian(accepted, edges, pins, n)
        kdim, new_tangent = _kernel_dimension(J)
        if kdim != 1:
            raise TrackerError(
                f"rank jump at step {step}: tangent space dimension {kdim}"
            )
        if new_tangent @ tangent.reshape(-1) < 0:
            new_tangent = -new_tangent
        tangent = new_tangent / np.linalg.norm(new_tangent)
        current = accepted
        samples.append(_score(step, current, edges, lam_sq, pins, watched_pair))
        h = min(step_size, h * 2)
    return TrackedPath(
        labeling=labeling,
        fixed_edge=fixed_edge,
        watched_pair=watched_pair,
        samples=samples,
    )
