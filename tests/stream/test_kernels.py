"""The four kernels: semantics and in-place behaviour."""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.memsim.traffic import KERNEL_ORDER, KERNEL_TRAFFIC
from repro.stream.kernels import KERNELS, init_arrays, run_kernel


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    c = rng.standard_normal(64)
    return a, b, c


class TestSemantics:
    def test_copy(self, arrays):
        a, b, c = arrays
        run_kernel("copy", a, b, c)
        assert np.array_equal(c, a)

    def test_scale(self, arrays):
        a, b, c = arrays
        expect = 3.0 * c
        run_kernel("scale", a, b, c)
        assert np.array_equal(b, expect)

    def test_add(self, arrays):
        a, b, c = arrays
        expect = a + b
        run_kernel("add", a, b, c)
        assert np.array_equal(c, expect)

    def test_triad(self, arrays):
        a, b, c = arrays
        expect = b + 3.0 * c
        run_kernel("triad", a, b, c)
        assert np.array_equal(a, expect)

    def test_custom_scalar(self, arrays):
        a, b, c = arrays
        expect = b + 0.5 * c
        run_kernel("triad", a, b, c, scalar=0.5)
        assert np.array_equal(a, expect)


class TestInPlace:
    def test_no_rebinding(self, arrays):
        a, b, c = arrays
        ids = (id(a), id(b), id(c))
        for k in KERNELS:
            run_kernel(k, a, b, c)
        assert (id(a), id(b), id(c)) == ids

    @pytest.mark.parametrize("name", KERNEL_ORDER)
    def test_writes_only_the_array_the_table_names(self, name, arrays):
        before = [arr.copy() for arr in arrays]
        KERNELS[name](*arrays, 3.0)
        changed = [n for n, arr, old in zip("abc", arrays, before)
                   if not np.array_equal(arr, old)]
        assert changed == [KERNEL_TRAFFIC[name].written]

    def test_works_on_views(self):
        base = np.zeros(300)
        a, b, c = base[:100], base[100:200], base[200:]
        a[:] = 1.0
        b[:] = 2.0
        run_kernel("add", a, b, c)
        assert np.all(base[200:] == 3.0)


class TestValidation:
    def test_unknown_kernel(self, arrays):
        with pytest.raises(BenchmarkError):
            run_kernel("sort", *arrays)

    def test_shape_mismatch(self):
        with pytest.raises(BenchmarkError):
            run_kernel("copy", np.zeros(4), np.zeros(4), np.zeros(5))


class TestInit:
    def test_stream_initialization(self):
        a, b, c = np.empty(10), np.empty(10), np.empty(10)
        init_arrays(a, b, c)
        assert np.all(a == 2.0)       # 1.0 then *= 2
        assert np.all(b == 2.0)
        assert np.all(c == 0.0)

    def test_kernel_order(self):
        assert list(KERNELS) == ["copy", "scale", "add", "triad"]
        assert tuple(KERNELS) == KERNEL_ORDER
