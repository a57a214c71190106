#!/usr/bin/env python3
"""Check docs/OBSERVABILITY.md's metric catalogue against src/, both ways.

Lists every counter("...") / histogram("...") / gauge("...") string literal
in the C++ sources under src/ and exits 1, naming each one, if the doc does
not mention it. It also exits 1 for every metric named in the first cell of
a catalogue row (a table whose header starts "| Name | Kind |") that no such
literal registers, so a deleted metric cannot keep its row. Names built at
run time (e.g. trace counter tracks formatted with snprintf) are not
literals, so they belong outside the catalogue tables.

The doc's family shorthand counts: in a run of code spans joined by " / ",
a span without a dot takes the prefix of the last dotted span before it, so
"`a.b.c` / `d` / `e`" names a.b.c, a.b.d and a.b.e.

Usage: python3 tools/check_metric_docs.py [--root REPO_ROOT]
"""

import argparse
import pathlib
import re
import sys

LITERAL = re.compile(r"\b(?:counter|histogram|gauge)\(\s*\"([^\"]+)\"")
CODE_RUN = re.compile(r"`[^`\n]+`(?:\s*/\s*`[^`\n]+`)*")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
CATALOGUE_HEADER = re.compile(r"^\|\s*Name\s*\|\s*Kind\s*\|")


def metric_literals(src: pathlib.Path) -> dict[str, str]:
    """Metric name -> first source file (relative to src/) registering it."""
    found: dict[str, str] = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
            continue
        for name in LITERAL.findall(path.read_text(encoding="utf-8")):
            found.setdefault(name, str(path.relative_to(src)))
    return found


def documented_names(doc: str) -> set[str]:
    """Every code span in `doc`, with family shorthand expanded."""
    names: set[str] = set()
    for run in CODE_RUN.finditer(doc):
        prefix = ""
        for span in CODE_SPAN.findall(run.group(0)):
            span = span.strip()
            if "." in span:
                names.add(span)
                prefix = span[: span.rindex(".") + 1]
            elif prefix:
                names.add(prefix + span)
            else:
                names.add(span)
    return names


def catalogued_names(doc: str) -> list[str]:
    """Every metric named in the first cell of a catalogue table row."""
    names: list[str] = []
    in_catalogue = False
    for line in doc.splitlines():
        if CATALOGUE_HEADER.match(line):
            in_catalogue = True
        elif not line.startswith("|"):
            in_catalogue = False
        elif in_catalogue:
            first_cell = line.split("|")[1]
            names.extend(sorted(documented_names(first_cell)))
    return names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                        type=pathlib.Path, help="repository root (default: this checkout)")
    args = parser.parse_args()

    literals = metric_literals(args.root / "src")
    doc = (args.root / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    documented = documented_names(doc)

    missing = sorted(name for name in literals if name not in documented)
    for name in missing:
        print(f"undocumented metric: {name} (src/{literals[name]})")
    if missing:
        print(f"{len(missing)} of {len(literals)} metric literals in src/ are not named "
              "in docs/OBSERVABILITY.md")

    catalogued = catalogued_names(doc)
    stale = [name for name in catalogued if name not in literals]
    for name in stale:
        print(f"catalogued metric not registered in src/: {name}")
    if stale:
        print(f"{len(stale)} of {len(catalogued)} metrics in the docs/OBSERVABILITY.md "
              "catalogue are not registered in src/")

    if missing or stale:
        return 1
    print(f"all {len(literals)} metric literals in src/ are named in docs/OBSERVABILITY.md, "
          f"and all {len(catalogued)} catalogued metrics are registered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
