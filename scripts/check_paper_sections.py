#!/usr/bin/env python3
"""Check that README.md's section table lists exactly the sections the
paper driver runs.

The driver's sections are the quoted names in bench/paper.cc's
kSections array.  The README's are the backquoted names in the first
column of the table under the "| Section | Paper artifact |" header.
The check fails when a section is missing from the table, or when the
table lists a section the driver does not have.

Usage: scripts/check_paper_sections.py [REPO_ROOT]   (default: the
parent of this script's directory)
"""

import pathlib
import re
import sys

K_SECTIONS = re.compile(r"kSections\[\]\s*=\s*\{(.*?)\n\};", re.S)
SECTION_NAME = re.compile(r'\{\s*"([a-z0-9_]+)"')
TABLE_HEADER = "| Section | Paper artifact |"
TABLE_ROW = re.compile(r"^\| `([a-z0-9_]+)` \|")


def driver_sections(root):
    text = (root / "bench" / "paper.cc").read_text()
    block = K_SECTIONS.search(text)
    if block is None:
        sys.exit("paper sections: no kSections array in bench/paper.cc")
    return SECTION_NAME.findall(block.group(1))


def readme_sections(root):
    lines = (root / "README.md").read_text().splitlines()
    if TABLE_HEADER not in lines:
        sys.exit(f"paper sections: README.md has no '{TABLE_HEADER}' table")
    names = []
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        row = TABLE_ROW.match(line)
        if row is None:
            sys.exit(f"paper sections: README.md table row '{line}' has no "
                     "backquoted section name")
        names.append(row.group(1))
    return names


def main():
    root = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parents[1]
    )
    run = driver_sections(root)
    listed = readme_sections(root)

    errors = [
        f"{name} is a section in bench/paper.cc but README.md's table "
        "does not list it"
        for name in run
        if name not in listed
    ]
    errors += [
        f"README.md's table lists {name}, which bench/paper.cc does not run"
        for name in listed
        if name not in run
    ]
    for line in errors:
        print(f"paper sections: {line}", file=sys.stderr)
    if errors:
        return 1
    print(f"paper sections: {len(run)} sections, all listed in README.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
