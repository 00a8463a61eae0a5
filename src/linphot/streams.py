"""Deterministic derivation of independent random substreams.

Every stochastic operation draws from a generator keyed by
(master seed, stream key, chunk index).  Shots are produced on a fixed
chunk grid, and the grid defines the substreams: an ensemble is
byte-identical for a fixed (seed, stream key, sample count).  A command
draws its ensembles in one ordered stream (``calibration.iter_ensembles``),
and the gain-scaling check its rescaled sweeps in a second, on one thread
per usable core; no output depends on the core count or on which thread
draws an ensemble, because each ensemble owns its substream.
"""

from __future__ import annotations

import numpy as np

CHUNK_SIZE = 1 << 18

# stream-key tags (first element of a stream key)
ETA_SERIES = 1
DARK = 2
GAIN_SCALING = 3
RECONSTRUCTION = 4


def substream(seed: int, stream_key: tuple = ()) -> np.random.Generator:
    """Return the generator for a named stream under the master seed."""
    key = tuple(int(k) for k in stream_key)
    seq = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def chunk_sizes(n_samples: int) -> list[int]:
    """Split a sample count over the fixed chunk grid of CHUNK_SIZE shots."""
    full, rest = divmod(int(n_samples), CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rest] if rest else [])
