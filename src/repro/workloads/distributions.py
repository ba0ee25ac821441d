"""Synthetic point distributions used by the tests and benchmarks."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_points(n: int, dimension: int = 2, low: float = -1.0,
                   high: float = 1.0, seed: Optional[int] = None) -> np.ndarray:
    """``n`` points uniform in the cube ``[low, high]^d``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _rng(seed).uniform(low, high, size=(n, dimension))


def uniform_points_ball(n: int, dimension: int = 3, radius: float = 1.0,
                        seed: Optional[int] = None) -> np.ndarray:
    """``n`` points uniform in the d-dimensional ball of the given radius."""
    generator = _rng(seed)
    directions = generator.normal(size=(n, dimension))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * generator.uniform(size=(n, 1)) ** (1.0 / dimension)
    return directions / norms * radii


def gaussian_points(n: int, dimension: int = 2,
                    seed: Optional[int] = None) -> np.ndarray:
    """``n`` points from an isotropic standard Gaussian."""
    return _rng(seed).normal(size=(n, dimension))


def clustered_points(n: int, dimension: int = 2, clusters: int = 10,
                     spread: float = 0.05,
                     seed: Optional[int] = None) -> np.ndarray:
    """``n`` points in ``clusters`` tight Gaussian blobs centred in
    ``[-1, 1]^d`` (a skewed workload)."""
    generator = _rng(seed)
    centers = generator.uniform(-1.0, 1.0, size=(clusters, dimension))
    assignments = generator.integers(0, clusters, size=n)
    offsets = generator.normal(scale=spread, size=(n, dimension))
    return centers[assignments] + offsets


def diagonal_points(n: int, noise: float = 1e-4,
                    seed: Optional[int] = None) -> np.ndarray:
    """The adversarial input of Section 1.2: points on (a jittered) diagonal
    of ``[-1, 1]^2``.

    A halfplane bounded by a slight rotation of the diagonal line forces
    quad-tree-like structures to visit Ω(n) nodes, while the paper's 2-D
    structure still answers in O(log_B n + t) I/Os.
    """
    generator = _rng(seed)
    xs = np.sort(generator.uniform(-1.0, 1.0, size=n))
    ys = xs + generator.normal(scale=noise, size=n)
    return np.column_stack([xs, ys])


def company_table(n: int, seed: Optional[int] = None) -> List[Tuple[str, float, float]]:
    """A toy ``Companies(Name, PricePerShare, EarningsPerShare)`` relation.

    Mirrors the SQL example of Section 1.1: the quickstart example queries
    this relation for companies with a price/earnings ratio below a bound.
    """
    generator = _rng(seed)
    earnings = generator.uniform(0.5, 20.0, size=n)
    multiples = generator.lognormal(mean=2.0, sigma=0.6, size=n)
    prices = earnings * multiples
    return [("company-%04d" % index, float(prices[index]), float(earnings[index]))
            for index in range(n)]
