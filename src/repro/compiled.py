"""Compiled-kernel tier: detection, tier reporting, warm-up.

Two kernel families live here, each an optional C kernel next to an
always-available reference that gives the same results:

* ``"des"`` — :mod:`repro.memsim.des_jit`, the scalar DES event loop.
  The NumPy tier (the DES's vector engine, :mod:`repro.memsim.des_fast`)
  vectorizes the wide single-route regimes; the remaining floor is
  Python-loop overhead on the *narrow* hot path, so the compiled loop is
  a third tier behind the DES's ``auto/scalar/vector`` dispatch.
  Full-system CXL simulators (CXL-DMSim, CXL-ClusterSim) run compiled
  event cores for exactly this reason.
* ``"crc"`` — :mod:`repro.pmdk.crc_jit`, the undo log's CRC-32 by
  carry-less multiply folding (x86-64 with PCLMUL and SSE4.1).  It has
  no tier to dispatch: it is used whenever it is available, otherwise
  :func:`zlib.crc32`, and the bits are the same either way.

One provider, probed at first use: **cc** — each kernel as embedded C,
built with the system C compiler into a small shared library loaded via
:mod:`ctypes`.  The ``.so`` is cached under ``$REPRO_JIT_CACHE``
(default ``~/.cache/repro-jit``) keyed by a hash of the source, so
compilation is once per machine.  Each family accepts its library only
after the kernel matches its reference on a small self-check; a missing
compiler, a failed build or a mismatch leaves the family on the
reference.  Nothing in the library ever *requires* the compiled tier,
and nothing is built or loaded at import time.

The DES pins a tier per call (``des_backend=``); there is no
process-wide force.  Each dispatch decision is reported through
:func:`report_tier`: gauge ``dispatch.tier.<subsystem>`` holds the
numeric tier (0=scalar, 1=vector, 2=compiled) and :func:`selected`
returns the latest choice per subsystem for tests and reports.

Setting ``REPRO_NO_COMPILED=1`` disables provider detection outright —
the CI fallback leg uses this to prove the pure-Python paths carry the
full suite with no compiled tier at all.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

from repro import obs

#: the three executable tiers, in gauge-code order
TIERS = ("scalar", "vector", "compiled")

#: env var disabling compiled-provider detection entirely
NO_COMPILED_ENV = "REPRO_NO_COMPILED"

#: env var overriding the on-disk cache directory for cc-built kernels
JIT_CACHE_ENV = "REPRO_JIT_CACHE"

_TRUTHY = ("1", "true", "yes", "on")

# latest tier choice per subsystem (e.g. {"des": "compiled", ...})
_selected: dict[str, str] = {}


def report_tier(subsystem: str, tier: str) -> None:
    """Record which tier ``subsystem`` just dispatched to.

    Visible two ways: gauge ``dispatch.tier.<subsystem>`` (numeric tier
    code, when metrics are enabled) and :func:`selected` (always).
    """
    _selected[subsystem] = tier
    obs.gauge(f"dispatch.tier.{subsystem}", TIERS.index(tier))


def selected() -> dict[str, str]:
    """Latest dispatch decision per subsystem (copy)."""
    return dict(_selected)


# ---------------------------------------------------------------------------
# provider detection
# ---------------------------------------------------------------------------

def detection_disabled() -> bool:
    """True when ``REPRO_NO_COMPILED`` forces the pure-Python tier."""
    return os.environ.get(NO_COMPILED_ENV, "").strip().lower() in _TRUTHY


_cc = None
_cc_resolved = False


def cc_compiler() -> str | None:
    """Path of a usable C compiler, or ``None``."""
    global _cc, _cc_resolved
    if detection_disabled():
        return None
    if not _cc_resolved:
        _cc_resolved = True
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            if cand and shutil.which(cand):
                _cc = shutil.which(cand)
                break
    return _cc


def _cache_dir() -> str:
    override = os.environ.get(JIT_CACHE_ENV)
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro-jit")


def cc_build(name: str, source: str) -> ctypes.CDLL | None:
    """Build (or load from the on-disk cache) one C kernel library.

    The library filename embeds a hash of the source, so editing a
    kernel invalidates exactly its own cache entry; the build itself is
    atomic (compile to a temp file, ``os.replace`` into place), making
    concurrent first runs safe.  Returns ``None`` on any failure.
    """
    compiler = cc_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"{name}-{digest}.so")
    if not os.path.exists(lib_path):
        try:
            os.makedirs(cache, exist_ok=True)
            fd, c_path = tempfile.mkstemp(suffix=".c", prefix=f"{name}-",
                                          dir=cache)
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            tmp_so = c_path[:-2] + ".so"
            try:
                proc = subprocess.run(
                    [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_so,
                     c_path],
                    capture_output=True, timeout=120,
                )
                if proc.returncode != 0:
                    return None
                os.replace(tmp_so, lib_path)
            finally:
                for leftover in (c_path, tmp_so):
                    try:
                        os.unlink(leftover)
                    except OSError:
                        pass
        except Exception:
            return None
    try:
        return ctypes.CDLL(lib_path)
    except OSError:
        return None


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def warmup() -> dict[str, str | None]:
    """Resolve and compile every kernel family now.

    Triggers each family's lazy provider resolution (cc → pure)
    including the self-checks, so later calls never pay build latency.
    Returns ``{family: provider_or_None}``, i.e. ``{"des": ..., "crc":
    ...}``, and publishes gauge ``compiled.available`` (1 when any
    family has a compiled kernel).
    Benchmarks call this once before timing; production callers may but
    need not — first use warms implicitly.
    """
    from repro.memsim import des_jit
    from repro.pmdk import crc_jit

    providers = {"des": des_jit.provider(), "crc": crc_jit.provider()}
    obs.gauge("compiled.available",
              int(any(p is not None for p in providers.values())))
    return providers
