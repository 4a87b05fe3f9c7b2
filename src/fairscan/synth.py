"""Synthetic dataset generators for audits and calibration studies."""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .geometry import Region, closed_bounds

DEFAULT_RECT = Region(0.0, 0.0, 1.0, 1.0)


def gen_uniform_split(n: int, rect: Region = DEFAULT_RECT, seed: int = 0
                      ) -> Dataset:
    """Uniform locations with a rate step across the vertical midline.

    n/2 points land uniformly in each half of rect. Exactly n/2 outcomes
    are positive overall: floor(2*(n/2)/3) of them go to uniformly chosen
    left-half points and the rest to right-half points, so the left rate is
    about 2/3 and the right about 1/3. Deterministic for a given seed.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    rng = np.random.default_rng(seed)
    half = n // 2
    xmid = (rect.xmin + rect.xmax) / 2.0
    xs_left = rng.uniform(rect.xmin, xmid, size=half)
    ys_left = rng.uniform(rect.ymin, rect.ymax, size=half)
    xs_right = rng.uniform(xmid, rect.xmax, size=half)
    ys_right = rng.uniform(rect.ymin, rect.ymax, size=half)
    positives = half  # P = n/2 by construction
    left_pos = (2 * positives) // 3
    right_pos = positives - left_pos
    out_left = np.zeros(half, dtype=np.int8)
    out_left[rng.choice(half, size=left_pos, replace=False)] = 1
    out_right = np.zeros(half, dtype=np.int8)
    out_right[rng.choice(half, size=right_pos, replace=False)] = 1
    xs = np.concatenate((xs_left, xs_right))
    ys = np.concatenate((ys_left, ys_right))
    outcomes = np.concatenate((out_left, out_right))
    return Dataset.from_arrays(xs, ys, outcomes)


def gen_fair_bernoulli(locations, rho: float, seed: int = 0) -> Dataset:
    """Independent Bernoulli(rho) outcomes at the given fixed locations.

    Fair by construction: the outcome law is identical everywhere, so any
    audit rejection on this data is a false alarm.
    """
    pts = np.asarray(locations, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError("locations must be a non-empty (n, 2) array")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    rng = np.random.default_rng(seed)
    outcomes = (rng.random(len(pts)) < rho).astype(np.int8)
    return Dataset.from_arrays(pts[:, 0], pts[:, 1], outcomes)


def gen_planted(n: int, rect: Region, plant: Region, rho_bg: float,
                rho_in: float, seed: int = 0) -> Dataset:
    """Uniform locations with an elevated (or lowered) rate inside a plant.

    Outcomes are Bernoulli(rho_in) for points falling in the plant
    rectangle and Bernoulli(rho_bg) elsewhere. With rho_in == rho_bg this
    is exactly a fair Bernoulli dataset.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not (rect.xmin <= plant.xmin and plant.xmax <= rect.xmax
            and rect.ymin <= plant.ymin and plant.ymax <= rect.ymax):
        raise ValueError("plant rectangle must lie inside the sampling rect")
    for name, r in (("rho_bg", rho_bg), ("rho_in", rho_in)):
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {r}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(rect.xmin, rect.xmax, size=n)
    ys = rng.uniform(rect.ymin, rect.ymax, size=n)
    xmin, ymin, xmax, ymax = closed_bounds(plant.bounds(), rect)
    inside = (xs >= xmin) & (xs < xmax) & (ys >= ymin) & (ys < ymax)
    rates = np.where(inside, rho_in, rho_bg)
    outcomes = (rng.random(n) < rates).astype(np.int8)
    return Dataset.from_arrays(xs, ys, outcomes)
