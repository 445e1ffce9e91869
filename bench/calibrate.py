"""Fixed reference kernels that measure how fast the machine runs right now.

On a virtual machine whose host cores are shared with other tenants, speed
moves with their load: on the reference machine below the same code ran up
to ~1.8x slower for minutes at a time, and shorter bursts came and went
within seconds.  A wall time taken in such a stretch measures the
neighbours.  So ``run.py`` times a kernel before and after each of the
workload's subcommands and scales the subcommand's wall time by the
kernel's reference time over the mean of the two: a time then reads as it
would at the reference speed, whatever stretch it fell in.

The kernels owe nothing to stableflow, so a change to the program cannot
move them.  Each kind of work slows by its own factor when the host is busy
(in one slow stretch: dense GEMMs ~1.5x, small-array numpy calls ~1.8x,
pure Python ~1.4x), so a workload's kernel is made of the parts that
resemble its own work (``calibration`` of each class in workloads.py):

- dense: a 32 x 196 batch through a 196-wide linear map and tanh, as in the
  image classifiers' forward passes;
- deep: a 128 x 196 batch through 16 residual sub-steps and back, keeping
  every step's arrays, as in the non-expansive blocks' training and PGD;
- small: numpy calls on 10-element vectors, as in the reconstruction
  network and the per-sample Lyapunov callbacks;
- interp: a pure-Python loop, as in the program's own loops and text I/O.
"""

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_W = _RNG.standard_normal((196, 196)) * 0.05
_X = _RNG.standard_normal((32, 196))
_XB = _RNG.standard_normal((128, 196))


def _dense():
    x = _X
    for _ in range(400):
        x = np.tanh(x @ _W)
    return float(x[0, 0])


def _deep():
    g = None
    for _ in range(3):
        x, cache = _XB, []
        for _ in range(16):
            z = x @ _W.T
            cache.append(z)
            x = x - 0.1 * np.tanh(z) @ _W
        g = np.ones_like(x)
        for z in reversed(cache):
            g = g - 0.1 * ((1.0 - np.tanh(z) ** 2) * (g @ _W.T)) @ _W
    return float(g[0, 0])


def _small():
    v = np.ones(10)
    for _ in range(17000):
        v = np.sqrt(v * 1.0001 + 1e-6)
    return float(v[0])


def _interp():
    s = 0
    for i in range(400000):
        s += i * i % 7
    return s


# (function, reference seconds).  A part's reference time is its time on the
# reference machine (a two-vCPU virtual machine, Python 3.11.7, numpy 2.4.6,
# OpenBLAS 0.3.31 on one thread) in its faster stretches: the tenth
# percentile of 580 timings spread over seven minutes.
PARTS = {
    "dense": (_dense, 0.025),
    "deep": (_deep, 0.046),
    "small": (_small, 0.029),
    "interp": (_interp, 0.030),
}


def reference_s(parts):
    """Reference time of the kernel made of ``parts``."""
    return sum(PARTS[name][1] for name in parts)


def kernel(parts):
    """Seconds taken by one call of the kernel made of ``parts``."""
    t0 = time.perf_counter()
    for name in parts:
        PARTS[name][0]()
    return time.perf_counter() - t0
