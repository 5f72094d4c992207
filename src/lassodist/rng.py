"""Seeded Gaussian replicate chunks for the Monte-Carlo paths.

Replicates are organized in fixed-size chunks; chunk c of a run draws from a
counter-based Philox generator keyed by SeedSequence((seed, c)). The sampled
set therefore depends only on (seed, n_samples), never on scheduling, and
chunks could be consumed in any order or in parallel without changing the
result. Quadrature never loads this module: the lattice shifts of the Genz
kernel come from the standard library (see distribution._lattice_shifts).
"""

from __future__ import annotations

import numpy as np

from .model import _as_int, _check_seed

CHUNK = 4096


def normal_chunk(seed: int, chunk_index: int, shape) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chunk_index))))
    return gen.standard_normal(shape)


def gaussian_chunks(seed: int, n_samples: int, dim: int):
    """Yield (start, count, Z) blocks with Z of shape (count, dim), iid N(0,1)."""
    seed = _check_seed(seed)
    n_samples = _as_int(n_samples, 1, "n_samples must be a positive integer")
    start = 0
    chunk_index = 0
    while start < n_samples:
        count = min(CHUNK, n_samples - start)
        yield start, count, normal_chunk(seed, chunk_index, (count, dim))
        start += count
        chunk_index += 1
