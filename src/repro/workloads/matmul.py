"""The tiled matrix-squaring workload (Experiment 3).

The paper uses "a fully parallelized, tiled matrix squaring algorithm that
takes advantage of the full number of CPU cores given to it" to stress
BanditWare on a hardware-sensitive application.  Two things are provided
here:

* :func:`tiled_matrix_square` -- an actually executable tiled matrix-squaring
  kernel (NumPy blocks over a thread pool), used by the examples and by tests
  that check the kernel agrees with ``A @ A``.
* :class:`MatrixMultiplicationWorkload` -- the synthetic runtime model used
  for dataset generation, calibrated to the paper's description of the 2520
  run dataset: matrix sizes from 100 to 12 500, most runs (≈ 1800 of 2520)
  with ``size < 5000`` finishing within a minute, and the largest runs
  approaching 30 minutes; ``size`` is by far the most predictive feature while
  sparsity and the random-value range barely matter; five hardware options
  with genuinely different parallel efficiency (random-guess accuracy 0.2).
"""

from __future__ import annotations

import concurrent.futures
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.hardware import HardwareCatalog, HardwareConfig
from repro.utils.rng import as_generator
from repro.workloads.base import WorkloadModel

__all__ = ["tiled_matrix_square", "MatrixMultiplicationWorkload"]


def tiled_matrix_square(
    matrix: np.ndarray,
    tile_size: int = 256,
    n_workers: int = 1,
) -> np.ndarray:
    """Compute ``matrix @ matrix`` using a blocked (tiled) decomposition.

    The output is assembled tile-by-tile; each output tile ``C[i, j]`` is the
    sum over ``k`` of ``A[i, k] @ A[k, j]``.  Tiles of the output are computed
    independently and can therefore be distributed over a thread pool, which
    is how the real application "takes advantage of the full number of CPU
    cores given to it".

    Parameters
    ----------
    matrix:
        A square 2-D array.
    tile_size:
        Edge length of the square tiles.
    n_workers:
        Number of worker threads computing output tiles concurrently.

    Returns
    -------
    numpy.ndarray
        ``matrix @ matrix``, exactly (up to floating-point associativity).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square 2-D, got shape {a.shape}")
    if tile_size <= 0:
        raise ValueError(f"tile_size must be positive, got {tile_size}")
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")

    n = a.shape[0]
    boundaries = list(range(0, n, tile_size)) + [n]
    spans = [(boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)]
    out = np.zeros_like(a)

    def compute_tile(span_i: Tuple[int, int], span_j: Tuple[int, int]) -> None:
        i0, i1 = span_i
        j0, j1 = span_j
        acc = np.zeros((i1 - i0, j1 - j0), dtype=float)
        for k0, k1 in spans:
            acc += a[i0:i1, k0:k1] @ a[k0:k1, j0:j1]
        out[i0:i1, j0:j1] = acc

    tasks = [(si, sj) for si in spans for sj in spans]
    if n_workers == 1:
        for si, sj in tasks:
            compute_tile(si, sj)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(compute_tile, si, sj) for si, sj in tasks]
            for fut in futures:
                fut.result()
    return out


class MatrixMultiplicationWorkload(WorkloadModel):
    """Synthetic runtime model for the tiled matrix-squaring application.

    Runtime follows a cubic cost in matrix size divided by the hardware's
    effective parallel throughput (Amdahl-style), plus a small size-dependent
    setup term.  Sparsity and the random-value range are included as features
    (they are part of the paper's dataset) but have almost no effect on
    runtime, matching the statement that "the other features do not
    significantly impact the runtime".

    Parameters
    ----------
    size_range:
        Minimum and maximum matrix size.
    small_size_fraction:
        Fraction of sampled runs with ``size < small_size_threshold``; the
        paper's dataset has 1800 of 2520 runs below 5000.
    small_size_threshold:
        Boundary between the "small" and "large" sampling regimes and the
        truncation threshold used by Experiment 3's subset dataset.
    flops_per_second_per_core:
        Effective per-core throughput used to convert the cubic operation
        count to seconds.  The default puts a 12 500² squaring at roughly
        20-30 minutes on the smaller configurations, as in the paper.
    parallel_fraction:
        Fraction of the kernel that parallelises across cores.
    noise_fraction:
        Runtime noise standard deviation as a fraction of the expectation.
    startup_seconds_per_cpu:
        Fixed per-core startup overhead (container creation, thread-pool and
        tile bookkeeping).  Larger allocations pay more overhead, so for small
        matrices the *smallest* configuration is genuinely fastest and the
        best hardware crosses over to the big configurations as size grows --
        the regime in which the paper observes that "most hardware
        configurations perform similarly" for sub-minute runs and
        recommendations should favour resource efficiency.
    """

    name = "matmul"

    def __init__(
        self,
        size_range: Tuple[int, int] = (100, 12500),
        small_size_fraction: float = 1800.0 / 2520.0,
        small_size_threshold: int = 5000,
        flops_per_second_per_core: float = 2.2e9,
        parallel_fraction: float = 0.92,
        noise_fraction: float = 0.06,
        startup_seconds_per_cpu: float = 1.5,
    ):
        lo, hi = int(size_range[0]), int(size_range[1])
        if not (0 < lo < hi):
            raise ValueError(f"size_range must satisfy 0 < lo < hi, got {size_range}")
        if not 0.0 <= small_size_fraction <= 1.0:
            raise ValueError("small_size_fraction must lie in [0, 1]")
        if not lo <= small_size_threshold <= hi:
            raise ValueError("small_size_threshold must lie inside size_range")
        if flops_per_second_per_core <= 0:
            raise ValueError("flops_per_second_per_core must be positive")
        if not 0.0 <= parallel_fraction <= 1.0:
            raise ValueError("parallel_fraction must lie in [0, 1]")
        if noise_fraction < 0:
            raise ValueError("noise_fraction must be non-negative")
        if startup_seconds_per_cpu < 0:
            raise ValueError("startup_seconds_per_cpu must be non-negative")
        self.size_range = (lo, hi)
        self.small_size_fraction = float(small_size_fraction)
        self.small_size_threshold = int(small_size_threshold)
        self.flops_per_second_per_core = float(flops_per_second_per_core)
        self.parallel_fraction = float(parallel_fraction)
        self.noise_fraction = float(noise_fraction)
        self.startup_seconds_per_cpu = float(startup_seconds_per_cpu)

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> List[str]:
        return ["size", "sparsity", "min_value", "max_value"]

    def sample_features(self, rng: np.random.Generator) -> Dict[str, float]:
        """Draw matrix parameters matching the paper dataset's composition."""
        lo, hi = self.size_range
        if rng.random() < self.small_size_fraction:
            size = int(rng.integers(lo, self.small_size_threshold))
        else:
            size = int(rng.integers(self.small_size_threshold, hi + 1))
        min_value = float(rng.integers(-100, 1))
        max_value = float(rng.integers(1, 101))
        return {
            "size": float(size),
            # Exactly rng.uniform(0.0, 0.9), without its argument handling.
            "sparsity": 0.0 + (0.9 - 0.0) * rng.random(),
            "min_value": min_value,
            "max_value": max_value,
        }

    def effective_throughput(self, hardware: HardwareConfig) -> float:
        """Effective FLOP/s of ``hardware`` for this kernel (Amdahl-adjusted)."""
        single = self.flops_per_second_per_core * hardware.cpu_clock_ghz / 2.5
        serial_time_share = 1.0 - self.parallel_fraction
        speedup = 1.0 / (serial_time_share + self.parallel_fraction / hardware.cpus)
        return single * speedup

    def _runtime(self, cube: Any, square: Any, sparsity: Any, hardware: HardwareConfig) -> Any:
        """Expected runtime on ``hardware``, for floats or one array entry per workflow.

        ``cube`` and ``square`` are ``size**3`` and ``size**2``, taken by the
        caller with Python's ``**`` on floats: numpy's vectorised power does
        not reproduce the C library's ``pow`` bit for bit.
        """
        # 2·n³ flops for a dense square; sparsity gives a tiny (few percent)
        # discount because zero blocks still pass through the kernel.
        flops = 2.0 * cube * (1.0 - 0.05 * sparsity)
        compute_seconds = flops / self.effective_throughput(hardware)
        # Memory/setup overhead: allocation and tile bookkeeping (~n² bytes)
        # plus a per-core startup cost, so small matrices run fastest on the
        # smallest allocation and the best hardware crosses over with size.
        setup_seconds = 0.5 + self.startup_seconds_per_cpu * hardware.cpus + 1.5e-8 * square
        return compute_seconds + setup_seconds

    def _noise(self, expected: Any) -> Any:
        return np.hypot(0.5, self.noise_fraction * expected)

    def expected_runtime(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        size = float(features["size"])
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        sparsity = float(features.get("sparsity", 0.0))
        return self._runtime(size**3, size**2, sparsity, hardware)

    def noise_scale(self, features: Dict[str, float], hardware: HardwareConfig) -> float:
        return float(self._noise(self.expected_runtime(features, hardware)))

    def runtime_table(
        self, columns: Mapping[str, np.ndarray], catalog: HardwareCatalog
    ) -> Tuple[np.ndarray, np.ndarray]:
        sizes = columns["size"].tolist()
        for size in sizes:
            if size <= 0:
                raise ValueError(f"size must be positive, got {size}")
        cube = np.array([n**3 for n in sizes])
        square = np.array([n**2 for n in sizes])
        sparsity = columns.get("sparsity", 0.0)
        expected = np.column_stack([self._runtime(cube, square, sparsity, hw) for hw in catalog])
        return expected, self._noise(expected)

    # ------------------------------------------------------------------ #
    def generate_matrix(self, features: Dict[str, float], rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Materialise the random integer matrix described by ``features``.

        Matrix generation is *not* part of the measured runtime in the paper;
        this helper exists so the examples can execute the real kernel on the
        same inputs the synthetic model describes (at small sizes).
        """
        rng = as_generator(rng)
        size = int(features["size"])
        lo = int(features.get("min_value", 0))
        hi = int(features.get("max_value", 100))
        if hi <= lo:
            hi = lo + 1
        matrix = rng.integers(lo, hi + 1, size=(size, size)).astype(float)
        sparsity = float(features.get("sparsity", 0.0))
        if sparsity > 0:
            mask = rng.random((size, size)) < sparsity
            matrix[mask] = 0.0
        return matrix
