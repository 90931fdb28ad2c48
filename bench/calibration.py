"""Host-speed calibration for the end-to-end times.

The benchmark runs on a few cores of a shared host whose speed drifts by
a third and more over minutes as other tenants come and go, so raw op
times of one unchanged program differ more between runs than any bound a
regression check could use. The harness therefore times a fixed
calibration kernel, which lives here and never changes with the program,
between blocks of about one second of ops, and rescales each block's op
times by CALIBRATION_MS / (the kernel's time around that block). A
calibrated time reads as the time the op would take on a host that runs
the kernel in exactly CALIBRATION_MS; raw times are kept beside it.

The kernel does the kinds of work qotsim spends its time on, in roughly
equal parts: interpreted integer loops (the per-photon loops and the
Gray-code walks), numpy calls on small arrays (bases, states and
statevectors), dense symmetric eigensolves and products at the sizes of
the certificates (64 and 256 rows), and first touches of freshly mapped
memory (the certificates' megabyte arrays, which the allocator maps anew
and the process then faults in page by page).
"""

from __future__ import annotations

import mmap
import statistics
import time
from typing import List, Tuple

import numpy as np

CALIBRATION_MS = 40.0  # the kernel's time on the host calibrated times refer to
WINDOW = 4  # kernel timings in the rolling median around one block


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.random((64, 64))
        self._sym = a + a.T
        b = rng.random((256, 256))
        self._big_sym = b + b.T
        self._big = rng.random((256, 256))
        self._vec = rng.random(16)
        self.run()  # first-call costs are no part of the host's speed

    def run(self) -> int:
        acc = 0
        for i in range(60_000):
            acc ^= (i * 2654435761) >> (i & 7) & 0xFFFF
        x = self._vec
        for _ in range(5_000):
            x = np.abs(np.sin(x)) + 0.1
        for _ in range(48):
            np.linalg.eigvalsh(self._sym)
        np.linalg.eigvalsh(self._big_sym)
        self._big @ self._big @ self._big
        for _ in range(6):
            with mmap.mmap(-1, 1 << 22) as fresh:
                pages = np.frombuffer(fresh, dtype=np.uint8)
                pages[::mmap.PAGESIZE] = 1
                del pages  # the map cannot close while a view holds it
        return acc

    def time(self) -> Tuple[int, int]:
        """(wall ns, CPU ns) of one kernel run."""
        c0, t0 = time.process_time_ns(), time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - t0, time.process_time_ns() - c0


def block_scales(kernel_ns: List[int], n_blocks: int) -> List[float]:
    """Per block, CALIBRATION_MS over the median kernel time around it.

    kernel_ns[b] is the kernel timing taken just before block b, and the
    last entry the one after the final block. A rolling median of WINDOW
    timings follows the host's speed from one phase to the next while a
    single timing that another process interrupted moves no block.
    """
    if len(kernel_ns) != n_blocks + 1:
        raise ValueError(f"{len(kernel_ns)} kernel timings for {n_blocks} blocks")
    lead = (WINDOW - 2) // 2
    scales = []
    for b in range(n_blocks):
        lo = min(max(0, b - lead), len(kernel_ns) - WINDOW) if len(kernel_ns) > WINDOW else 0
        scales.append(CALIBRATION_MS * 1e6 / statistics.median(kernel_ns[lo:lo + WINDOW]))
    return scales
