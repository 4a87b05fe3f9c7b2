"""Monte Carlo reference distribution and significance decisions.

The observed world is compared against counterfactual fair worlds: each
keeps every location fixed and redraws every outcome as an independent
Bernoulli(rho) trial. The max region score of each simulated world forms
the reference distribution; the real world's rank inside it gives the
global p-value, and the distribution's upper quantile gives the per-region
significance cutoff that controls the family-wise error across candidates.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .likelihood import Direction, ScanResult, llr_vector
from .index import SpatialIndex
from . import scanner


@dataclass(frozen=True)
class MaxStatDistribution:
    """Per-world maximum scores from the simulated fair worlds.

    values is sorted descending and has w - 1 entries, where w counts the
    simulated worlds plus the real one.
    """

    values: np.ndarray
    w: int
    seed: int
    direction: Direction

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "values": [float(v) for v in self.values],
            "w": self.w,
            "seed": self.seed,
            "direction": self.direction.value,
        }


@dataclass(frozen=True)
class AuditVerdict:
    tau_log: float
    p_value: float
    alpha: float
    fair: bool
    critical_llr: float


# Label values drawn per piece into a worker's reused float64 buffer, so a
# world's draw scratch stays this chunk beyond its column of the block.
_DRAW_CHUNK = 1 << 16
# Worlds scored at once; bounds llr_vector's temporaries.
_SCORE_WORLDS = 8
# Values a block reads (B times its N labels plus the member matrix's
# nonzeros) below which the blocks run on one thread. Small work is a
# series of short numpy calls that hold the interpreter lock, so a second
# thread mostly waits: on 2 CPUs, 999 worlds of 1k, 6k and 42k values took
# 116, 147 and 214 ms on one thread against 185, 238 and 250 ms on two.
# planted20k (16 x 133k values a block), split10k (32 x 1.01M) and
# clustered1m (2.0M a world) run on every CPU.
_PARALLEL_WORK = 1 << 18


def _cpu_count() -> int:
    """CPUs this process may run on; taskset bounds the worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        return os.cpu_count() or 1


def _draw_labels(rng: np.random.Generator, rho: float, chunk: np.ndarray,
                 labels: np.ndarray) -> int:
    """Fill ``labels`` with ``rng.random(len(labels)) < rho`` as 0/1.

    The doubles come in pieces of ``len(chunk)``, in the same order, so the
    labels equal those of one full draw. Returns the number of positives.
    """
    positives = 0
    for lo in range(0, len(labels), len(chunk)):
        piece = chunk[:len(labels) - lo]
        rng.random(out=piece)
        flags = np.less(piece, rho)
        labels[lo:lo + len(piece)] = flags
        positives += np.count_nonzero(flags)
    return positives


def simulate_worlds(ix: SpatialIndex, regions, rho: float, num_worlds: int,
                    seed: int, direction: Direction = Direction.TWO_SIDED
                    ) -> MaxStatDistribution:
    """Draw fair worlds at the real locations and record each one's max score.

    Every world redraws all N labels as Bernoulli(rho) and is scanned over
    exactly the same candidate regions as the real world, using its own
    positive total. Worlds are counted in blocks of up to the plan's
    ``worlds``, in its int16 or int32, and large blocks run on one thread
    per CPU the process may use; world i draws from its own stream and
    fills only entry i, and its counts are exact, so the result does not
    depend on the count width, the block size, the band cap or the number
    of threads.
    """
    if num_worlds < 1:
        raise ValueError(f"num_worlds must be >= 1, got {num_worlds}")
    if num_worlds > sys.maxsize:
        # Python's own message for a length past ssize_t, the one a
        # partitioning count that large also gets.
        raise OverflowError("Python int too large to convert to C ssize_t")
    if not 0.0 < rho < 1.0:
        raise ValueError(
            f"rho must be strictly between 0 and 1, got {rho}; a degenerate "
            "rate makes every simulated world identical"
        )
    plan = scanner.as_scanner(ix, regions)
    n_obs = ix.N
    values = np.zeros(num_worlds, dtype=np.float64)
    # Only the smallest and largest positive count among candidates of one
    # size can hold a world's max. For fixed n each one-sided score is
    # monotone in p and the two-sided score is convex in p, strictly enough
    # that integer counts differ by far more than rounding; llr_vector
    # scores each lane on its own, so the max is bit-identical to scoring
    # every candidate. Size 0 is skipped: it scores 0, and every score is
    # at least 0.
    sizes = np.tile(plan.sizes, 2)[:, None]
    block = min(plan.worlds, num_worlds)
    n_blocks = -(-num_worlds // block)

    def score_blocks(tickets, stop: threading.Event) -> None:
        chunk = np.empty(min(n_obs, _DRAW_CHUNK), dtype=np.float64)
        labels = np.empty(plan.width * block, dtype=plan.dtype)
        positives = np.empty(block, dtype=np.int64)
        extremes = np.empty((len(sizes), block), dtype=plan.dtype)
        while not stop.is_set():
            k = next(tickets)
            if k >= n_blocks:
                return
            first = k * block
            size = min(block, num_worlds - first)
            # A short last block is a contiguous (width, size) block too.
            worlds = labels[:plan.width * size].reshape(plan.width, size)
            for b in range(size):
                # spawn_key (i,) is SeedSequence(seed).spawn(...)[i], built
                # on demand: memory stays O(1) in the number of worlds.
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(first + b,)))
                positives[b] = _draw_labels(rng, rho, chunk,
                                            worlds[:n_obs, b])
            plan.extremes(worlds, extremes[:, :size])
            for w in range(0, size, _SCORE_WORLDS):
                part = slice(w, min(w + _SCORE_WORLDS, size))
                llr = llr_vector(sizes, extremes[:, part], n_obs,
                                 positives[part], direction)
                values[first:][part] = llr.max(axis=0, initial=0.0)

    workers = 1
    if block * (n_obs + plan.nnz) >= _PARALLEL_WORK:
        workers = min(_cpu_count(), n_blocks)
    _run_pool(score_blocks, workers)

    order = np.argsort(-values, kind="stable")
    return MaxStatDistribution(
        values=values[order],
        w=num_worlds + 1,
        seed=seed,
        direction=Direction(direction),
    )


def _run_pool(work, workers: int) -> None:
    """Run ``work(tickets, stop)`` on ``workers`` threads, this one included.

    Each call takes block indices from the shared ticket counter until it
    passes the last block or ``stop`` is set. The first exception of any
    worker, or an interrupt of this thread, stops the others after their
    current block and is raised here once all have returned.
    """
    tickets = itertools.count()   # next() on it is atomic under the GIL
    stop = threading.Event()
    errors: list[BaseException] = []

    def helper() -> None:
        try:
            work(tickets, stop)
        except BaseException as exc:   # re-raised in the calling thread
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(1, workers):
            t = threading.Thread(target=helper)
            t.start()
            threads.append(t)
        work(tickets, stop)
    finally:
        stop.set()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def global_p_value(tau_log, dist: MaxStatDistribution):
    """Monte Carlo p-value of a max score, or of each score of an array.

    The real world ranks among the w - 1 simulated maxima; ties count
    against the real world, so p = (1 + #{simulated >= tau}) / w. The
    smallest attainable value is 1/w. A score gives a float, an array of
    scores a float64 array of the same values.
    """
    # values descend, so -values ascend and -values <= -tau counts them.
    k = 1 + np.searchsorted(-dist.values, -np.asarray(tau_log), side="right")
    p = k / dist.w
    return float(p) if p.ndim == 0 else p


def critical_value(dist: MaxStatDistribution, alpha: float) -> float:
    """Score cutoff controlling the family-wise error at level alpha.

    Returns the floor(alpha*w)-th largest simulated max. Requires
    alpha*w >= 1; with fewer simulated worlds than 1/alpha the quantile
    does not exist.
    """
    m = math.floor(alpha * dist.w)
    if m < 1:
        raise ValueError(
            f"alpha*w = {alpha * dist.w:.3f} < 1: too few worlds to "
            f"resolve level {alpha}"
        )
    return float(dist.values[m - 1])


def significant_regions(scored: ScanResult, cutoff: float,
                        dist: MaxStatDistribution | None = None
                        ) -> ScanResult:
    """The rows of non-empty regions scoring strictly above the cutoff,
    best first.

    Ties in score keep candidate order. When the reference distribution is
    given, each row carries the p-value its own score would earn as a
    global max.
    """
    keep = np.flatnonzero((scored.n > 0) & (scored.llr > cutoff))
    keep = keep[np.argsort(-scored.llr[keep], kind="stable")]
    ev = scored.take(keep)
    if dist is None:
        return ev
    return ScanResult(ev.bounds, ev.center_ids, ev.n, ev.p, ev.llr,
                      global_p_value(ev.llr, dist))
