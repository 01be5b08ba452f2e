"""Reference kernel: the yardstick that end-to-end times are expressed in.

On a shared host the speed of this process changes from second to second
and from run to run, by up to a factor of two, with other tenants' load:
process CPU time grows with wall time, so the loss is in speed per
instruction, not in time off the CPU.  The benchmark therefore times a
fixed kernel right before and right after each experiment and reports the
experiment's wall time as a multiple of the kernel's time ("ref").

The kernel shares no code with hetverify, so a change to the program moves
the ratio in full.  It mixes the kinds of work the experiments do: small
complex matrix products, Kronecker products and traces, multinomial and
integer sampling, counting, einsum, axis permutation and a short Python loop.
"""
from __future__ import annotations

import time

import numpy as np

ROUNDS = 60


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.a, self.b = a, a.conj().T.copy()
        p = np.abs(a[0, :16]) ** 2
        self.p = p / p.sum()
        self.tensor = a.reshape((2,) * 10)
        self.time_ms()  # numpy's lazy set-up stays out of the first reading

    def time_ms(self) -> float:
        """Wall time of one pass of the kernel, in ms."""
        a, b, p, tensor = self.a, self.b, self.p, self.tensor
        axes = (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)
        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(ROUNDS):
            a @ b
            np.trace(np.kron(a[:4, :4], b[:4, :4])).real
            rng.multinomial(1024, p)
            np.bincount(rng.integers(0, 16, 256), minlength=16)
            np.einsum("ij,jk->ik", a[:8, :8], b[:8, :8])
            np.transpose(tensor, axes).reshape(32, 32)
            total = 0
            for i in range(100):
                total += i
        return (time.perf_counter() - start) * 1e3
