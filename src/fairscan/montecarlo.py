"""Monte Carlo reference distribution and significance decisions.

The observed world is compared against counterfactual fair worlds: each
keeps every location fixed and redraws every outcome as an independent
Bernoulli(rho) trial. The max region score of each simulated world forms
the reference distribution; the real world's rank inside it gives the
global p-value, and the distribution's upper quantile gives the per-region
significance cutoff that controls the family-wise error across candidates.

``simulate_worlds`` runs its worlds in blocks of three calls, each of which
can be timed alone: ``draw_block``, ``CountPlan.extremes``, ``score_block``.
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

    values is sorted descending, one entry per simulated world. w =
    len(values) + 1 counts those worlds plus the real one; it is derived,
    so nulldist.json's w cannot disagree with its values.
    """

    values: np.ndarray
    seed: int
    direction: Direction

    @property
    def w(self) -> int:
        return len(self.values) + 1

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


def draw_block(rho: float, seed: int, first: int, labels: np.ndarray,
               chunk: np.ndarray) -> np.ndarray:
    """Write world ``first + b``'s ``rng.random(N) < rho`` as 0/1 into
    column b of the (N, B) ``labels``; return the B positive totals.

    Its stream, ``SeedSequence(seed, spawn_key=(first + b,))``, is
    ``SeedSequence(seed).spawn(...)[first + b]`` built on demand, so memory
    stays O(1) in the number of worlds. The doubles come in pieces of the
    reused ``chunk``, in order, so the labels equal one full draw's.
    """
    n_obs, worlds = labels.shape
    positives = np.zeros(worlds, dtype=np.int64)
    for b in range(worlds):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(first + b,)))
        for lo in range(0, n_obs, len(chunk)):
            piece = chunk[:n_obs - lo]
            rng.random(out=piece)
            flags = np.less(piece, rho)
            labels[lo:lo + len(piece), b] = flags
            positives[b] += np.count_nonzero(flags)
    return positives


def score_block(sizes: np.ndarray, extremes: np.ndarray, n_obs: int,
                positives: np.ndarray, direction: Direction) -> np.ndarray:
    """Each world's max score from ``CountPlan.extremes``' out over the
    plan's ``sizes`` and its ``positives`` among ``n_obs`` points.

    Only each size's largest and smallest count can hold a world's max:
    for fixed n each one-sided score is monotone in p and the two-sided
    score is convex in p, strictly enough that integer counts differ by
    far more than rounding; llr_vector scores each lane on its own, so the
    max is bit-identical to scoring every candidate. Size 0 is skipped: it
    scores 0, and every max is at least 0.
    """
    sizes = np.tile(sizes, 2)[:, None]
    maxima = np.empty(extremes.shape[1], dtype=np.float64)
    for w in range(0, len(maxima), _SCORE_WORLDS):
        part = slice(w, w + _SCORE_WORLDS)
        llr = llr_vector(sizes, extremes[:, part], n_obs, positives[part],
                         direction)
        maxima[part] = llr.max(axis=0, initial=0.0)
    return maxima


def simulate_worlds(ix: SpatialIndex, regions, rho: float, num_worlds: int,
                    seed: int, direction: Direction = Direction.TWO_SIDED
                    ) -> MaxStatDistribution:
    """Draw fair worlds at the real locations and record each one's max score.

    Every world redraws all N labels as Bernoulli(rho) and is scanned over
    the real world's candidates with its own positive total. A block of up
    to the plan's ``worlds`` is one ``draw_block``, ``CountPlan.extremes``
    and ``score_block`` call; large blocks run on one thread per CPU the
    process may use. World i draws from its own stream into entry i, and
    its counts are exact, so the result does not depend on the count
    width, the block size, the band cap or the thread count. At rho 0 or 1
    every world is the data itself, so every max is 0 and none is drawn;
    rho outside [0, 1], or NaN, raises.
    """
    if num_worlds < 1:
        raise ValueError(f"num_worlds must be >= 1, got {num_worlds}")
    if num_worlds > sys.maxsize:
        # Python's own message for a length past ssize_t, the one a
        # partitioning count that large also gets.
        raise OverflowError("Python int too large to convert to C ssize_t")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be between 0 and 1, got {rho}")
    plan = scanner.as_scanner(ix, regions)
    if rho in (0.0, 1.0):
        return MaxStatDistribution(np.zeros(num_worlds), seed,
                                   Direction(direction))
    values = np.zeros(num_worlds, dtype=np.float64)
    block = min(plan.worlds, num_worlds)
    n_blocks = -(-num_worlds // block)

    def run_blocks(tickets, stop: threading.Event) -> None:
        # One worker's buffers, reused by each of its blocks.
        chunk = np.empty(min(ix.N, _DRAW_CHUNK), dtype=np.float64)
        labels = np.empty(plan.width * block, dtype=plan.dtype)
        extremes = np.empty((2 * len(plan.sizes), block), dtype=plan.dtype)
        while not stop.is_set():
            first = next(tickets) * block
            if first >= num_worlds:
                return
            size = min(block, num_worlds - first)
            # A short last block is a contiguous (width, size) block too.
            worlds = labels[:plan.width * size].reshape(plan.width, size)
            positives = draw_block(rho, seed, first, worlds[:ix.N], chunk)
            plan.extremes(worlds, extremes[:, :size])
            values[first:first + size] = score_block(
                plan.sizes, extremes[:, :size], ix.N, positives, direction)

    serial = block * (ix.N + plan.nnz) < _PARALLEL_WORK
    _run_pool(run_blocks, 1 if serial else min(_cpu_count(), n_blocks))
    order = np.argsort(-values, kind="stable")
    return MaxStatDistribution(values[order], seed, Direction(direction))


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
                        dist: MaxStatDistribution) -> ScanResult:
    """The rows of non-empty regions scoring strictly above the cutoff,
    best first, each with the p-value its own score would earn as a global
    max against the reference distribution.

    Ties in score keep candidate order.
    """
    keep = np.flatnonzero((scored.n > 0) & (scored.llr > cutoff))
    keep = keep[np.argsort(-scored.llr[keep], kind="stable")]
    ev = scored.take(keep)
    return ScanResult(ev.bounds, ev.center_ids, ev.n, ev.p, ev.llr,
                      global_p_value(ev.llr, dist))
