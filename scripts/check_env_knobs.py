#!/usr/bin/env python3
"""Check that README.md documents exactly the HETSIM_* environment knobs
the program reads.

A knob counts as read when its name is passed as a string literal to
getenv, envFlag or envU64 in src/, bench/ or examples/.  The check fails
when a read knob is missing from README.md, or when README.md names a
HETSIM_* variable that nothing reads.

Usage: scripts/check_env_knobs.py [REPO_ROOT]   (default: the parent of
this script's directory)
"""

import pathlib
import re
import sys

READ = re.compile(r'\b(?:getenv|envFlag|envU64)\(\s*"(HETSIM_[A-Z0-9_]+)"')
NAME = re.compile(r"\bHETSIM_[A-Z0-9_]+\b")
SOURCES = ("src", "bench", "examples")
SUFFIXES = {".cc", ".hh", ".cpp", ".h"}


def read_knobs(root):
    knobs = {}
    for top in SOURCES:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            for name in READ.findall(path.read_text()):
                knobs.setdefault(name, path.relative_to(root))
    return knobs


def main():
    root = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parents[1]
    )
    read = read_knobs(root)
    documented = set(NAME.findall((root / "README.md").read_text()))

    errors = [
        f"{name} is read in {where} but README.md does not list it"
        for name, where in sorted(read.items())
        if name not in documented
    ]
    errors += [
        f"README.md lists {name}, which nothing in {', '.join(SOURCES)} reads"
        for name in sorted(documented - read.keys())
    ]
    for line in errors:
        print(f"env knobs: {line}", file=sys.stderr)
    if errors:
        return 1
    print(f"env knobs: {len(read)} read, all listed in README.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
