"""``python -m repro.pmdk`` — the pmempool-style maintenance tool.

Subcommands::

    python -m repro.pmdk info  POOLFILE          # header + heap summary
    python -m repro.pmdk check POOLFILE          # consistency check
    python -m repro.pmdk check POOLFILE --repair # check and repair
    python -m repro.pmdk create POOLFILE SIZE [--layout NAME]

``info`` and ``check`` never write; both exit 1 when the pool needs repair.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import PmemError, ReproError
from repro.pmdk.check import check_pool
from repro.pmdk.pmem import map_file
from repro.pmdk.pool import PmemObjPool
from repro.units import parse_size


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.pmdk",
        description="pmempool-style pool maintenance")
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="print pool header and heap summary")
    info.add_argument("pool")

    chk = sub.add_parser("check", help="verify pool consistency")
    chk.add_argument("pool")
    chk.add_argument("--repair", action="store_true",
                     help="repair recoverable damage in place")

    mk = sub.add_parser("create", help="create an empty pool file")
    mk.add_argument("pool")
    mk.add_argument("size", help="pool size, e.g. 16m or 1g")
    mk.add_argument("--layout", default="")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "create":
        try:
            pool = PmemObjPool.create(args.pool, layout=args.layout,
                                      size=parse_size(args.size))
        except (ReproError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"created pool {args.pool}: layout={pool.layout!r}, "
              f"{pool.free_bytes} bytes free")
        pool.close()
        return 0

    try:
        region = map_file(args.pool)
    except PmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "check":
            report = check_pool(region, repair=args.repair)
            print(report.summary())
            return 0 if report.ok else 1

        report = check_pool(region)
        hdr = report.header
        if hdr is None:
            print(f"error: not a pool: {'; '.join(report.issues)}",
                  file=sys.stderr)
            return 1
        print(f"pool:     {args.pool}")
        print(f"layout:   {hdr.layout!r}")
        print(f"uuid:     {hdr.uuid.hex()}")
        print(f"size:     {region.size} bytes")
        print(f"used:     {report.allocated_bytes} bytes")
        print(f"free:     {report.free_bytes} bytes")
        print(f"root:     {'yes' if report.root_present else 'no'}")
        for issue in report.issues:
            print(f"issue:    {issue}")
        return 0 if report.ok else 1
    finally:
        region.close()


if __name__ == "__main__":    # pragma: no cover
    sys.exit(main())
