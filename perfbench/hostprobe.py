"""A fixed unit of host work, timed between the benchmark's ops.

The speed of a shared host moves in phases: on a 2-vCPU VM, the time of one
op moved by up to 1.5x, in phases of seconds to minutes. A probe run just
before and just after an op slows down with it, so the op's time divided by
the probe's time (``op_cost``) keeps a change in roar3d and drops most of a
change in host speed. Over five minutes of ``sample`` requests, the median
op time of 30 s windows had a standard deviation of 23% of its median; the
median ``op_cost`` of the same windows (with a 32-block probe), 2.8%.

The probe does what roar3d's ops spend their time on: a chain of small
transformer blocks in numpy (layer norm, 4-head attention over 80 tokens of
width 64, MLP), with single-thread BLAS and a few dozen numpy calls per
block. Of the probes tried, it tracked the op time best; a plain
interpreter loop and a small autograd tape tracked it worse. It does not
import roar3d, so a change to roar3d cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np

TOKENS, DIM, HEADS = 80, 64, 4
BLOCKS = 30

_g = np.random.default_rng(0)
_X = _g.normal(size=(TOKENS, DIM))
_QKV = _g.normal(size=(DIM, 3 * DIM)) / 8.0
_OUT = _g.normal(size=(DIM, DIM)) / 8.0
_UP = _g.normal(size=(DIM, 2 * DIM)) / 8.0
_DOWN = _g.normal(size=(2 * DIM, DIM)) / 8.0


def _norm(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-6)


def _block(x: np.ndarray) -> np.ndarray:
    hd = DIM // HEADS
    q, k, v = (t.reshape(TOKENS, HEADS, hd).transpose(1, 0, 2)
               for t in np.split(_norm(x) @ _QKV, 3, axis=-1))
    s = q @ k.transpose(0, 2, 1) / np.sqrt(hd)
    s = np.exp(s - s.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    x = x + (s @ v).transpose(1, 0, 2).reshape(TOKENS, DIM) @ _OUT
    return x + np.maximum(_norm(x) @ _UP, 0.0) @ _DOWN


def run() -> float:
    """Seconds one probe takes (about 20-30 ms on a 2-vCPU VM)."""
    t = time.perf_counter()
    x = _X
    for _ in range(BLOCKS):
        x = 0.5 * _block(x)
    return time.perf_counter() - t
