#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every module under :mod:`repro`, collects the module docstring's
first paragraph plus the public classes/functions (with signatures and
their summary lines), and renders one markdown reference page.

Run:  python tools/gen_api_docs.py
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    paragraph: list[str] = []
    for line in doc.strip().splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def _summary_line(doc: str | None) -> str:
    return _first_paragraph(doc).split(". ")[0].rstrip(".") + "."


def _public_members(module) -> tuple[list, list]:
    classes, functions = [], []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            classes.append((name, obj))
        elif inspect.isfunction(obj):
            functions.append((name, obj))
    return classes, functions


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _class_doc(cls) -> str | None:
    # Python 3.10 gives an Enum without a docstring "An enumeration.";
    # 3.11 onwards leave it None.  Render both the same.
    if issubclass(cls, enum.Enum) and cls.__doc__ == "An enumeration.":
        return None
    return cls.__doc__


def _class_section(name: str, cls) -> list[str]:
    lines = [f"### `{name}`", "", _first_paragraph(_class_doc(cls)), ""]
    methods = []
    for mname, member in sorted(vars(cls).items()):
        if mname.startswith("_"):
            continue
        if inspect.isfunction(member):
            methods.append(f"- `{mname}{_signature(member)}` — "
                           f"{_summary_line(member.__doc__)}")
        elif isinstance(member, property):
            methods.append(f"- `{mname}` *(property)* — "
                           f"{_summary_line(member.fget.__doc__)}")
        elif isinstance(member, functools.cached_property):
            methods.append(f"- `{mname}` *(cached property)* — "
                           f"{_summary_line(member.func.__doc__)}")
        elif isinstance(member, classmethod):
            fn = member.__func__
            methods.append(f"- `{mname}{_signature(fn)}` *(classmethod)* — "
                           f"{_summary_line(fn.__doc__)}")
    if methods:
        lines += methods + [""]
    return lines


def generate() -> str:
    lines = [
        "# API reference",
        "",
        "_Generated by `tools/gen_api_docs.py`; regenerate after API "
        "changes._",
        "",
    ]
    package_path = Path(repro.__file__).parent
    modules = sorted(
        m.name for m in pkgutil.walk_packages([str(package_path)], "repro.")
        if not m.name.rsplit(".", 1)[-1].startswith("_")
    )
    for modname in modules:
        module = importlib.import_module(modname)
        classes, functions = _public_members(module)
        if not classes and not functions:
            continue
        lines += [f"## `{modname}`", "", _first_paragraph(module.__doc__),
                  ""]
        for name, cls in classes:
            lines += _class_section(name, cls)
        for name, fn in functions:
            lines += [f"### `{name}{_signature(fn)}`", "",
                      _first_paragraph(fn.__doc__), ""]
    return "\n".join(lines) + "\n"


def main() -> int:
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(generate())
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
