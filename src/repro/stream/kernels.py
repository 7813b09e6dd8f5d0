"""The four STREAM kernels as in-place NumPy operations.

Each kernel takes the three arrays (or slices of them — the parallel
runner hands each worker a contiguous slice, the OpenMP-chunking
analogue) and mutates its target in place via ``out=``, so no hidden
temporary arrays distort the traffic:

=======  ==================  ==========================
kernel   operation           STREAM source line
=======  ==================  ==========================
copy     c[j] = a[j]         ``c[j] = a[j];``
scale    b[j] = s * c[j]     ``b[j] = scalar*c[j];``
add      c[j] = a[j] + b[j]  ``c[j] = a[j]+b[j];``
triad    a[j] = b[j] + s*c[j]  ``a[j] = b[j]+scalar*c[j];``
=======  ==================  ==========================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import BenchmarkError

KernelFn = Callable[[np.ndarray, np.ndarray, np.ndarray, float], None]


def copy(a: np.ndarray, b: np.ndarray, c: np.ndarray,
         scalar: float) -> None:
    """``c = a``"""
    np.copyto(c, a)


def scale(a: np.ndarray, b: np.ndarray, c: np.ndarray,
          scalar: float) -> None:
    """``b = scalar * c``"""
    np.multiply(c, scalar, out=b)


def add(a: np.ndarray, b: np.ndarray, c: np.ndarray,
        scalar: float) -> None:
    """``c = a + b``"""
    np.add(a, b, out=c)


def triad(a: np.ndarray, b: np.ndarray, c: np.ndarray,
          scalar: float) -> None:
    """``a = b + scalar * c``"""
    np.multiply(c, scalar, out=a)
    np.add(a, b, out=a)


#: kernel name -> in-place NumPy op, keyed in ``traffic.KERNEL_ORDER``
KERNELS: dict[str, KernelFn] = {
    "copy": copy,
    "scale": scale,
    "add": add,
    "triad": triad,
}


def run_kernel(name: str, a: np.ndarray, b: np.ndarray, c: np.ndarray,
               scalar: float = 3.0) -> None:
    """Run one kernel by name over full arrays (or matching slices).

    Raises:
        BenchmarkError: unknown kernel or mismatched array shapes.
    """
    try:
        fn = KERNELS[name]
    except KeyError:
        raise BenchmarkError(
            f"unknown kernel {name!r}; expected one of {list(KERNELS)}"
        ) from None
    if not (a.shape == b.shape == c.shape):
        raise BenchmarkError(
            f"array shapes differ: {a.shape}, {b.shape}, {c.shape}"
        )
    fn(a, b, c, scalar)


def init_arrays(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """STREAM's initialization: a=1, b=2, c=0, then a *= 2."""
    a.fill(1.0)
    b.fill(2.0)
    c.fill(0.0)
    a *= 2.0
