"""Node placement and pairwise squared-distance geometry.

Every other part of the pipeline (clustering, energy accounting, mixing
analysis) reads the squared-distance matrix, so a topology computes it once
from its positions and keeps it; nothing else can set it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, is_finite_number, read_json_object

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


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class Topology:
    """Immutable node layout and the squared-distance matrix derived from it.

    Attributes:
        positions: (n, 2) finite coordinates, stored as a read-only float array.
        d_sq: (n, n) pairwise squared distances, computed from ``positions``.
    """

    positions: np.ndarray
    d_sq: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        try:
            pos = np.array(self.positions, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"positions must be an array of numbers: {exc}") from exc
        # numpy converts "0" and true as well, so each entry (as a Python scalar) must be a number.
        if not all(map(is_finite_number, np.array(self.positions, dtype=object).flat)):
            raise ConfigurationError("positions must all be finite numbers")
        d_sq = squared_distance_matrix(pos)
        for name, array in (("positions", pos), ("d_sq", d_sq)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def generate_topology(n: int, side: float, seed: int) -> Topology:
    """Place n nodes i.i.d. uniformly on the square [0, side]^2.

    Deterministic for a fixed seed.
    """
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got n={n}")
    if not side > 0:  # NaN too
        raise ConfigurationError(f"field side must be positive, got {side}")
    rng = np.random.default_rng(seed)
    return Topology(rng.uniform(0.0, side, size=(n, 2)))


def load_topology(path: str | Path) -> Topology:
    """Load node coordinates from a JSON file {"positions": [[x, y], ...]}."""
    data = read_json_object(path, "topology")
    if "positions" not in data:
        raise ConfigurationError(f'topology file {path} must contain a "positions" key')
    return Topology(data["positions"])
