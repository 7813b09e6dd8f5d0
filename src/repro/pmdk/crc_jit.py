"""Compiled CRC-32 of the undo log's entries (kernel family ``"crc"``).

libpmemobj checksums every undo-log entry, snapshot included, and
:mod:`repro.pmdk.tx` does the same with zlib's CRC-32.  A transaction
that snapshots megabytes (STREAM-PMem's, Listing 2) spends much of its
time in that checksum.  This module computes the same CRC-32, bit for
bit, by folding with carry-less multiplication (PCLMULQDQ), as in Gopal
et al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
Instruction* (Intel, 2009):

* four 128-bit lanes fold 64 bytes per step, independently;
* the lanes fold into one, which then folds each further 16-byte block;
* the 128-bit remainder folds to 64 bits, and a Barrett reduction takes
  it to the 32-bit CRC.

The C folds only the whole 16-byte blocks of an input of at least 64
bytes.  :func:`zlib.crc32` finishes the last 0–15 bytes, chained through
its ``value`` argument, and takes inputs under 64 bytes whole, so the
kernel needs no table and short inputs keep zlib's cost.

The one provider is the system C compiler (see :mod:`repro.compiled`),
and the fold is compiled for x86-64 only.  The built library is used
only if the CPU reports PCLMUL and SSE4.1 (asked before the first fold,
since an illegal instruction kills the process) and only after
:func:`crc32` matches :func:`zlib.crc32` on :func:`_check_inputs`.  On
any other host, with no compiler, a failed build or a mismatch,
:func:`crc32` *is* :func:`zlib.crc32`.  The bits are the same either
way, so the choice never shows in a pool's bytes.
"""

from __future__ import annotations

import ctypes
import hashlib
import zlib

# ---------------------------------------------------------------------------
# the kernel (built by repro.compiled.cc_build)
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <sys/types.h>

#if defined(__x86_64__)
#include <smmintrin.h>
#include <wmmintrin.h>

/* CPython's buffer-protocol view (Py_buffer, in the stable ABI since
   3.11 and unchanged since 3.3), declared here because the build passes
   no include path.  Taking the buffer in C lets bytes, bytearray and
   read-only memoryviews reach the fold without a ctypes object per
   call. */
typedef struct {
    void *buf;
    void *obj;
    ssize_t len;
    ssize_t itemsize;
    int readonly;
    int ndim;
    char *format;
    ssize_t *shape;
    ssize_t *strides;
    ssize_t *suboffsets;
    void *internal;
} crc_view;

int PyObject_GetBuffer(void *obj, crc_view *view, int flags);
void PyBuffer_Release(crc_view *view);

#define CRC_TARGET __attribute__((target("pclmul,sse4.1")))

int crc_supported(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul")
        && __builtin_cpu_supports("sse4.1");
}

/* Move acc forward by the distance d whose constants k holds (x^(d+32)
   and x^(d-32) mod P, bit-reflected, as in the paper) and add the 16
   bytes found there. */
static inline CRC_TARGET __m128i fold(__m128i acc, __m128i k, __m128i next)
{
    return _mm_xor_si128(
        _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                      _mm_clmulepi64_si128(acc, k, 0x11)),
        next);
}

#define LOAD(p) _mm_loadu_si128((const __m128i *)(p))

/* zlib's crc32(value, p, n) over the first n bytes, for n >= 64 and a
   multiple of 16. */
static CRC_TARGET uint32_t fold_blocks(const unsigned char *p, size_t n,
                                       uint32_t value)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124LL);
    /* P' = 0x1db710641 and mu = 0x1f7011641 */
    const __m128i barrett = _mm_set_epi64x(0x1f7011641LL, 0x1db710641LL);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

    __m128i a = _mm_xor_si128(LOAD(p), _mm_cvtsi32_si128((int)~value));
    __m128i b = LOAD(p + 16), c = LOAD(p + 32), d = LOAD(p + 48);
    const unsigned char *end = p + n;
    for (p += 64; end - p >= 64; p += 64) {
        a = fold(a, k1k2, LOAD(p));
        b = fold(b, k1k2, LOAD(p + 16));
        c = fold(c, k1k2, LOAD(p + 32));
        d = fold(d, k1k2, LOAD(p + 48));
    }
    a = fold(fold(fold(a, k3k4, b), k3k4, c), k3k4, d);
    for (; p < end; p += 16)
        a = fold(a, k3k4, LOAD(p));

    /* fold the 128-bit remainder down to 64 bits (k4, then k5) */
    a = _mm_xor_si128(_mm_srli_si128(a, 8),
                      _mm_clmulepi64_si128(a, k3k4, 0x10));
    a = _mm_xor_si128(_mm_srli_si128(a, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(a, low32), k5,
                                           0x00));
    /* Barrett: q = (a mod x^32) * mu, crc = a + (q mod x^32) * P' */
    __m128i q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett,
                                     0x10);
    __m128i r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett,
                                     0x00);
    return ~(uint32_t)_mm_extract_epi32(_mm_xor_si128(a, r), 1);
}

/* crc_fold(obj, n, value): the CRC-32 of obj's first n bytes, chained
   from value.  Called with the GIL held; a buffer error is left set for
   ctypes to raise. */
uint32_t crc_fold(void *obj, size_t n, uint32_t value)
{
    crc_view view;
    if (PyObject_GetBuffer(obj, &view, 0) < 0)
        return 0;
    if ((size_t)view.len >= n)
        value = fold_blocks((const unsigned char *)view.buf, n, value);
    PyBuffer_Release(&view);
    return value;
}
#else
int crc_supported(void)
{
    return 0;
}
#endif
"""

#: the shortest input the kernel folds; shorter ones stay on zlib
_MIN_FOLD = 64


def _bind(lib: ctypes.CDLL):
    """``crc_fold`` of ``lib`` as a Python callable, or ``None`` when this
    CPU lacks an instruction the fold uses."""
    supported = lib.crc_supported
    supported.restype, supported.argtypes = ctypes.c_int, []
    if not supported():
        return None
    proto = ctypes.PYFUNCTYPE(ctypes.c_uint32, ctypes.py_object,
                              ctypes.c_size_t, ctypes.c_uint32)
    return proto(("crc_fold", lib))


def _crc32(fold, data, value: int) -> int:
    """:func:`zlib.crc32` with the whole 16-byte blocks of inputs of at
    least 64 bytes passed through ``fold``."""
    view = memoryview(data)
    n = view.nbytes
    if n < _MIN_FOLD:
        return zlib.crc32(view, value)
    whole = n & ~15
    value = fold(view, whole, value)
    if whole == n:
        return value
    return zlib.crc32(view.cast("B")[whole:], value)


# ---------------------------------------------------------------------------
# provider resolution + self-check against zlib
# ---------------------------------------------------------------------------

def _check_inputs() -> list[memoryview]:
    """Inputs that drive every stage of the fold: 64 bytes (no loop),
    80 (one 16-byte fold), 128 (one 64-byte step), 199 (two steps and a
    7-byte zlib tail) and 4,109 (63 steps and a 13-byte tail), plus 4,109
    bytes at an odd address.  4 KiB in all."""
    raw = memoryview(hashlib.shake_256(b"crc self-check").digest(4110))
    return [raw[:n] for n in (64, 80, 128, 199, 4109)] + [raw[1:]]


def _self_check(fold) -> bool:
    """Does ``fold`` reproduce :func:`zlib.crc32`, from seeds 0 and
    0xFFFFFFFF, on every input of :func:`_check_inputs`?"""
    return all(_crc32(fold, data, seed) == zlib.crc32(data, seed)
               for data in _check_inputs() for seed in (0, 0xFFFFFFFF))


_resolved = False
_fold = None


def _resolve() -> None:
    global _resolved, _fold
    if _resolved:
        return
    _resolved = True
    # imported here, not at the top: every pool imports this module, and
    # only the first checksum needs the build machinery
    from repro import compiled

    lib = compiled.cc_build("crc", _C_SOURCE)
    fold = _bind(lib) if lib is not None else None
    if fold is not None and _self_check(fold):
        _fold = fold


def available() -> bool:
    """Is the compiled CRC kernel usable in this process?"""
    _resolve()
    return _fold is not None


def provider() -> str | None:
    """``"cc"`` or ``None``."""
    return "cc" if available() else None


def crc32(data, value: int = 0) -> int:
    """:func:`zlib.crc32` of ``data`` (any C-contiguous buffer: bytes,
    bytearray, memoryview), chained from ``value``; the same integer,
    computed by the compiled fold whenever it is available."""
    _resolve()
    if _fold is None:
        return zlib.crc32(data, value)
    return _crc32(_fold, data, value)
