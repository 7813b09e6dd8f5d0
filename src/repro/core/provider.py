"""URI-addressed persistent-memory backends.

The paper's programmability claim — "programs designed for PMem can
seamlessly operate on CXL-enabled devices" — becomes an API: code asks for
a region by URI and never learns what backs it.

Built-in schemes:

* ``file://<path>`` (or a bare path) — DAX-file style, durable;
* ``mem://<size>`` — volatile DRAM, the paper's remote-socket PMem
  *emulation* (accepts ``16m``/``1g`` suffixes);
* ``cxl://<device>/<namespace>`` — a namespace on an enumerated CXL
  Type-3 device (requires a :class:`repro.core.runtime.CxlPmemRuntime`).

Additional schemes register via :func:`register_scheme`, so downstream
code can add e.g. replicated or tiered backends without touching callers.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.core.runtime import CxlPmemRuntime
from repro.errors import PmemError
from repro.pmdk.pmem import FileRegion, PmemRegion, VolatileRegion
from repro.pmdk.pool import PmemObjPool
from repro.units import parse_size


class RegionFactory(Protocol):
    def __call__(self, rest: str, *, size: int | None, create: bool,
                 runtime: CxlPmemRuntime | None) -> PmemRegion: ...


_SCHEMES: dict[str, RegionFactory] = {}


def register_scheme(scheme: str, factory: RegionFactory) -> None:
    """Register a custom backend scheme."""
    key = scheme.lower().rstrip(":")
    if key in _SCHEMES:
        raise PmemError(f"scheme {key!r} already registered")
    _SCHEMES[key] = factory


def _file_factory(rest: str, *, size: int | None, create: bool,
                  runtime: CxlPmemRuntime | None) -> PmemRegion:
    return FileRegion(rest, size, create)


def _mem_factory(rest: str, *, size: int | None, create: bool,
                 runtime: CxlPmemRuntime | None) -> PmemRegion:
    try:
        n = parse_size(rest) if rest else size
    except ValueError as exc:
        raise PmemError(str(exc)) from None
    if n is None:
        raise PmemError("mem:// URIs need a size (mem://64m) or size=")
    return VolatileRegion(n)


def _cxl_factory(rest: str, *, size: int | None, create: bool,
                 runtime: CxlPmemRuntime | None) -> PmemRegion:
    if runtime is None:
        raise PmemError("cxl:// URIs require a CxlPmemRuntime")
    parts = [p for p in rest.split("/") if p]
    if len(parts) != 2:
        raise PmemError(
            f"cxl URI must be cxl://<device>/<namespace>, got {rest!r}"
        )
    device_name, ns_name = parts
    if create:
        if size is None:
            raise PmemError("creating a cxl namespace requires a size")
        existing = [ns.name for ns in runtime.namespaces(device_name)]
        if ns_name in existing:
            ns = runtime.open_namespace(device_name, ns_name)
            if ns.size < size:
                raise PmemError(
                    f"namespace {ns_name} is {ns.size} bytes, need {size}"
                )
        else:
            ns = runtime.create_namespace(device_name, ns_name, size)
    else:
        ns = runtime.open_namespace(device_name, ns_name)
    return ns.region()


_SCHEMES["file"] = _file_factory
_SCHEMES["mem"] = _mem_factory
_SCHEMES["cxl"] = _cxl_factory


def open_region(uri: str, size: int | None = None, create: bool = False,
                runtime: CxlPmemRuntime | None = None) -> PmemRegion:
    """Resolve a URI to a pmem region.

    >>> r = open_region("mem://1m")
    >>> r.size == 1 << 20 and not r.persistent
    True
    """
    if "://" in uri:
        scheme, rest = uri.split("://", 1)
    else:
        scheme, rest = "file", uri
    factory = _SCHEMES.get(scheme.lower())
    if factory is None:
        raise PmemError(
            f"unknown pmem scheme {scheme!r}; known: {sorted(_SCHEMES)}"
        )
    return factory(rest, size=size, create=create, runtime=runtime)


def pool_from_uri(uri: str, layout: str = "", size: int | None = None,
                  create: bool = False,
                  runtime: CxlPmemRuntime | None = None) -> PmemObjPool:
    """Open (or create) a pmemobj pool on any backend.

    This single function is the paper's Listing-2 moment: STREAM-PMem
    calls it with a DCPMM path today and a ``cxl://`` URI tomorrow.
    """
    region = open_region(uri, size=size, create=create, runtime=runtime)
    if create:
        return PmemObjPool.create(region, layout=layout)
    return PmemObjPool.open(region, layout=layout or None)
