"""Counter-based random streams.

All randomness in the package flows from one root seed through named
sub-streams (``data``, ``gumbel``, ``init``, ``noise``, ...). A stream is a
Philox generator keyed by (root_seed, stream name, up to two counter words),
so any component can be reproduced in isolation: the gumbel draw of step 512,
block 3 does not depend on how many draws happened before it.
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 2**63  # root seeds lie in [0, SEED_LIMIT)

# FNV-1a, used to fold stream names into the Philox key deterministically.
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _fnv1a(name: str) -> int:
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = np.uint64((int(h) ^ byte) * int(_FNV_PRIME) & 0xFFFFFFFFFFFFFFFF)
    return int(h)


def stream(root_seed: int, name: str, *counters: int) -> np.random.Generator:
    """Return a fresh generator keyed by (root_seed, name, counters).

    Identical arguments always yield a generator producing the identical
    sequence; distinct names or counter words give decorrelated streams.
    At most two counter words are supported (e.g. step, block), and the root
    seed must lie in [0, SEED_LIMIT).
    """
    if len(counters) > 2:
        raise ValueError("at most two counter words (got %d)" % len(counters))
    if not 0 <= int(root_seed) < SEED_LIMIT:
        raise ValueError(f"root seed {root_seed} outside [0, 2**63)")
    key = [int(root_seed), _fnv1a(name)]
    counter = [int(c) & 0xFFFFFFFFFFFFFFFF for c in counters]
    counter += [0] * (4 - len(counter))
    bitgen = np.random.Philox(key=key, counter=counter)
    return np.random.Generator(bitgen)


def stream_seed(root_seed: int, name: str, *counters: int) -> int:
    """A u64 derived from a stream, for seeding third parties (e.g. shape ids)."""
    return int(stream(root_seed, name, *counters).integers(0, 2**63 - 1))


def worker_count() -> int:
    """min(cpu count, ROAR_THREADS), kept only for the benchmark's
    ``data.workers`` record: no roar3d code path reads it."""
    import os

    n = os.cpu_count() or 1
    env = os.environ.get("ROAR_THREADS")
    if env is not None:
        try:
            n = min(n, max(1, int(env)))
        except ValueError:
            pass
    return n
