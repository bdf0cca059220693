"""Node placement and pairwise squared-distance geometry.

Every other part of the pipeline (clustering, energy accounting, mixing
analysis) reads the squared-distance matrix, so it is computed once here
and cached on the topology object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

__all__ = ["Topology", "squared_distance_matrix", "generate_topology", "load_topology"]


def squared_distance_matrix(positions: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between 2-D points.

    Args:
        positions: array of shape (n, 2), n >= 2.

    Returns:
        Symmetric (n, n) array with zero diagonal; entry (i, j) is
        ``||x_i - x_j||^2``.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 2:
        raise ConfigurationError(
            f"positions must have shape (n, 2) with n >= 2, got {pos.shape}"
        )
    diff = pos[:, None, :] - pos[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


@dataclass(frozen=True)
class Topology:
    """Immutable node layout plus cached squared-distance matrix.

    Attributes:
        positions: (n, 2) coordinates.
        d_sq: (n, n) pairwise squared distances.
    """

    positions: np.ndarray
    d_sq: np.ndarray

    def __post_init__(self) -> None:
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ConfigurationError(
                f"positions must have shape (n, 2), got {self.positions.shape}"
            )
        n = self.positions.shape[0]
        if n < 2:
            raise ConfigurationError(f"topology needs at least 2 nodes, got {n}")
        if self.d_sq.shape != (n, n):
            raise ConfigurationError(
                f"d_sq shape {self.d_sq.shape} does not match {n} positions"
            )

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def from_positions(cls, positions) -> "Topology":
        """Build a topology from explicit coordinates, recomputing d_sq."""
        pos = np.array(positions, dtype=float)
        if not np.all(np.isfinite(pos)):
            raise ConfigurationError("positions must all be finite")
        topo = cls(positions=pos, d_sq=squared_distance_matrix(pos))
        pos.setflags(write=False)
        topo.d_sq.setflags(write=False)
        return topo


def generate_topology(n: int, side: float, seed: int) -> Topology:
    """Place n nodes i.i.d. uniformly on the square [0, side]^2.

    Deterministic for a fixed seed.
    """
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got n={n}")
    if side <= 0:
        raise ConfigurationError(f"field side must be positive, got {side}")
    rng = np.random.default_rng(seed)
    return Topology.from_positions(rng.uniform(0.0, side, size=(n, 2)))


def load_topology(path: str | Path) -> Topology:
    """Load node coordinates from a JSON file {"positions": [[x, y], ...]}."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"topology file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"topology file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "positions" not in data:
        raise ConfigurationError(f'topology file {p} must contain a "positions" key')
    return Topology.from_positions(data["positions"])
