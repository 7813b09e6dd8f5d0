"""Compiled-kernel tier: detection, dispatch plumbing, warm-up.

The NumPy tiers vectorize the wide regimes; the remaining floor is
Python-loop overhead on the *narrow* hot paths — the scalar DES event
loop and per-message flit packing with mixed header sizes.  This module
adds an optional third ``compiled`` tier behind the same
``auto/scalar/vector`` dispatch pattern the NumPy tiers use.
Full-system CXL simulators (CXL-DMSim, CXL-ClusterSim) run compiled
event cores for exactly this reason; here the compiled tier is strictly
optional and the pure-Python / NumPy backends remain the
always-available reference.

Two providers, probed in order at first use:

* **numba** — ``@njit(cache=True)`` kernels compiled from the same
  Python source that serves as the pure fallback.  ``cache=True`` keeps
  the compiled artifacts on disk, so JIT cost is paid once per machine,
  not per benchmark run.
* **cc** — the same kernels as embedded C99, built with the system C
  compiler into a small shared library loaded via :mod:`ctypes`.  The
  ``.so`` is cached under ``$REPRO_JIT_CACHE`` (default
  ``~/.cache/repro-jit``) keyed by a hash of the source, so compilation
  is also once per machine.

A provider is accepted only after its kernels pass a **self-check**
against the pure-Python reference on small inputs; any import, compile
or mismatch failure silently degrades to the next provider and finally
to ``None`` (pure Python).  Nothing in the library ever *requires* the
compiled tier.

Backend forcing — ``REPRO_BACKEND={auto,scalar,vector,compiled}`` (env
var, read once and cached; :func:`refresh` re-reads it) or the streamer
CLI's ``--backend`` flag via :func:`set_backend`:

* ``scalar`` / ``vector`` — pin every subsystem's auto-dispatch to that
  tier (the compiled kernels are bypassed entirely);
* ``compiled`` — prefer the compiled kernels wherever they exist,
  falling back per subsystem when the provider is unavailable;
* ``auto`` (default) — each subsystem picks its own fastest tier.

Each dispatch decision is reported through :func:`report_tier`: gauge
``dispatch.tier.<subsystem>`` holds the numeric tier (0=scalar,
1=vector, 2=compiled) and :func:`selected` returns the latest choice
per subsystem for tests and reports.

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
from repro.errors import SimulationError

#: the three executable tiers, in gauge-code order
TIERS = ("scalar", "vector", "compiled")

#: valid ``REPRO_BACKEND`` / ``set_backend`` values
BACKENDS = ("auto",) + TIERS

#: env var forcing a backend for every subsystem
BACKEND_ENV = "REPRO_BACKEND"

#: env var disabling compiled-provider detection entirely
NO_COMPILED_ENV = "REPRO_NO_COMPILED"

#: env var overriding the on-disk cache directory for cc-built kernels
JIT_CACHE_ENV = "REPRO_JIT_CACHE"

_TRUTHY = ("1", "true", "yes", "on")

# cached override: None = auto (no forcing); resolved lazily from the
# env on first use, replaced by set_backend(), re-read by refresh()
_forced: str | None = None
_forced_resolved = False

# latest tier choice per subsystem (e.g. {"des": "compiled", ...})
_selected: dict[str, str] = {}


def _parse_backend(value: str, source: str) -> str | None:
    name = value.strip().lower()
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown backend {value!r} from {source}; expected one of "
            f"{BACKENDS}"
        )
    return None if name == "auto" else name


def backend_override() -> str | None:
    """The forced tier (``"scalar"``/``"vector"``/``"compiled"``) or
    ``None`` when dispatch is automatic.

    Resolution order: :func:`set_backend` value if one was set, else the
    ``REPRO_BACKEND`` env var (read once; :func:`refresh` re-reads).
    """
    global _forced, _forced_resolved
    if not _forced_resolved:
        raw = os.environ.get(BACKEND_ENV)
        _forced = _parse_backend(raw, f"${BACKEND_ENV}") if raw else None
        _forced_resolved = True
    return _forced


def set_backend(name: str | None) -> str | None:
    """Force a backend programmatically (the CLI's ``--backend`` flag).

    ``None`` or ``"auto"`` restores automatic dispatch.  Returns the
    previous effective override so callers can restore it.
    """
    global _forced, _forced_resolved
    prev = backend_override()
    _forced = _parse_backend(name, "set_backend()") if name else None
    _forced_resolved = True
    return prev


def refresh() -> None:
    """Drop the cached ``REPRO_BACKEND`` value; the next
    :func:`backend_override` re-reads the environment (test hook)."""
    global _forced_resolved
    _forced_resolved = False


def compiled_allowed() -> bool:
    """May a subsystem pick its compiled kernel right now?  False when a
    ``scalar``/``vector`` force is in effect."""
    return backend_override() in (None, "compiled")


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


_njit = None
_njit_resolved = False


def numba_njit():
    """``numba.njit(cache=True, ...)`` partial, or ``None``.

    The import is attempted once; any failure (missing package, broken
    install) marks numba unavailable for the process.
    """
    global _njit, _njit_resolved
    if detection_disabled():
        return None
    if not _njit_resolved:
        _njit_resolved = True
        try:
            import numba

            def _decorate(fn):
                return numba.njit(cache=True, nogil=True)(fn)

            _njit = _decorate
        except Exception:
            _njit = None
    return _njit


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

    Triggers each family's lazy provider resolution (numba → cc → pure)
    including the self-checks, so later calls never pay JIT latency.
    Returns ``{family: provider_or_None}`` and publishes gauge
    ``compiled.available`` (1 when any family has a compiled kernel).
    Benchmarks call this once before timing; production callers may but
    need not — first use warms implicitly.
    """
    from repro.cxl import flit_jit
    from repro.memsim import des_jit

    providers = {
        "des": des_jit.provider(),
        "flit": flit_jit.provider(),
    }
    obs.gauge("compiled.available",
              int(any(p is not None for p in providers.values())))
    return providers
