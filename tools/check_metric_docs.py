#!/usr/bin/env python3
"""Check that docs/OBSERVABILITY.md names every metric registered in src/.

Lists every counter("...") / histogram("...") / gauge("...") string literal
in the C++ sources under src/ and exits 1, naming each one, if the doc does
not mention it. Names built at run time (e.g. per-slot gauges formatted with
snprintf) are not literals and are not checked.

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
        return 1
    print(f"all {len(literals)} metric literals in src/ are named in docs/OBSERVABILITY.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
