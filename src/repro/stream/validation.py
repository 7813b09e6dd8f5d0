"""``checkSTREAMresults``, ported.

STREAM tracks what the three arrays must equal after NTIMES iterations by
evolving three scalars through the same operations, then compares the
array averages against them with a dtype-dependent epsilon.  Identical
logic here — it is the property every runner (native, parallel, pmem)
must satisfy to count as a valid STREAM execution — with two departures.
STREAM's C code fails an array when ``avgErr > epsilon``, which a NaN
error never is, so an array holding a NaN passes there; this port fails
it.  And where the C code divides by an expected value of 0 (a scalar of
0), this port compares the absolute error instead.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.stream.config import StreamConfig


def expected_values(config: StreamConfig) -> tuple[float, float, float]:
    """Evolve the scalar images of a, b, c through the benchmark."""
    aj, bj, cj = 1.0, 2.0, 0.0
    aj = 2.0 * aj                     # the post-init doubling
    for _ in range(config.ntimes):
        cj = aj                       # copy
        bj = config.scalar * cj       # scale
        cj = aj + bj                  # add
        aj = bj + config.scalar * cj  # triad
    return aj, bj, cj


def _epsilon(dtype: np.dtype) -> float:
    if dtype.itemsize == 4:
        return 1.0e-6
    return 1.0e-13


def _mean_abs_errors(arrays, expected) -> list:
    """``np.abs(arr - expect).mean()`` for each pair, bit for bit.

    The same operations in the same order, run in one scratch array of
    the dtype ``arr - expect`` has, reused while the next pair's dtype
    and shape match, so a call allocates one array instead of two per
    pair.
    """
    buf: np.ndarray | None = None
    errors = []
    for arr, expect in zip(arrays, expected):
        dtype = np.result_type(arr, expect)
        if buf is None or buf.dtype != dtype or buf.shape != arr.shape:
            buf = np.empty(arr.shape, dtype)
        np.subtract(arr, expect, out=buf)
        np.abs(buf, out=buf)
        errors.append(buf.mean())
    return errors


def check_stream_results(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                         config: StreamConfig) -> None:
    """Validate final array contents.

    An array fails when its relative error is not ``<= epsilon``, so a
    NaN anywhere in it fails too (see the module docstring).  An expected
    value of 0, which ``config.scalar == 0`` produces, has no relative
    error: such an array is held to its absolute error instead.

    Raises:
        ValidationError: any array's relative error exceeds epsilon or
            is NaN, with the same diagnostics STREAM prints
            (expected/observed averages and the error magnitude).
    """
    arrays = {"a": a, "b": b, "c": c}
    for name, arr in arrays.items():
        if arr.size != config.array_size:
            raise ValidationError(
                f"array {name} has {arr.size} elements, expected "
                f"{config.array_size}"
            )
    expected = expected_values(config)
    eps = _epsilon(config.np_dtype)
    failures: list[str] = []
    for (name, arr), expect, err in zip(
            arrays.items(), expected,
            _mean_abs_errors(arrays.values(), expected)):
        avg_err = float(err / abs(expect) if expect else err)
        if not avg_err <= eps:
            failures.append(
                f"array {name}: expected {expect:.10g}, observed avg "
                f"{float(arr.mean()):.10g}, rel err {avg_err:.3e} > {eps:g}"
            )
    if failures:
        raise ValidationError(
            "STREAM validation failed: " + "; ".join(failures)
        )
