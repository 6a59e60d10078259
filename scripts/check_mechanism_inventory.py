#!/usr/bin/env python3
"""Check that DESIGN.md's mechanism inventory names exactly the modules
of src/.

The modules are the .cc sources of add_library(hetsim ...) in
src/CMakeLists.txt, each as its dir/stem (common/log for
common/log.cc).  The inventory is DESIGN.md's text from the
"**Mechanism inventory.**" line to the next heading; it names a module
by a backquoted `dir/stem`, or a whole directory by `dir/`.  The check
fails when a module is named neither way, or when the inventory names a
dir/stem or dir/ that does not exist under src/.

Usage: scripts/check_mechanism_inventory.py [REPO_ROOT]   (default: the
parent of this script's directory)
"""

import pathlib
import re
import sys

ADD_LIBRARY = re.compile(r"add_library\(hetsim\b(.*?)\)", re.S)
SOURCE = re.compile(r"\b([a-z0-9_]+/[a-z0-9_]+)\.cc\b")
INVENTORY_START = "**Mechanism inventory.**"
NAME = re.compile(r"`([a-z0-9_]+/[a-z0-9_]*)`")


def library_modules(root):
    text = (root / "src" / "CMakeLists.txt").read_text()
    block = ADD_LIBRARY.search(text)
    if block is None:
        sys.exit("mechanism inventory: no add_library(hetsim ...) in "
                 "src/CMakeLists.txt")
    return SOURCE.findall(block.group(1))


def inventory_names(root):
    lines = (root / "DESIGN.md").read_text().splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith(INVENTORY_START)), None)
    if start is None:
        sys.exit(f"mechanism inventory: DESIGN.md has no '{INVENTORY_START}'")
    names = []
    for line in lines[start:]:
        if line.startswith("#"):
            break
        names += NAME.findall(line)
    return names


def exists(src, name):
    directory, stem = name.split("/")
    if not stem:
        return (src / directory).is_dir()
    return any((src / directory / f"{stem}{ext}").is_file()
               for ext in (".cc", ".hh"))


def main():
    root = pathlib.Path(
        sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).parents[1]
    )
    modules = library_modules(root)
    named = set(inventory_names(root))

    errors = [
        f"{module} is built into hetsim but DESIGN.md's mechanism "
        "inventory names neither it nor its directory"
        for module in modules
        if module not in named and module.split("/")[0] + "/" not in named
    ]
    errors += [
        f"DESIGN.md's mechanism inventory names {name}, which is not "
        "under src/"
        for name in sorted(named)
        if not exists(root / "src", name)
    ]
    for line in errors:
        print(f"mechanism inventory: {line}", file=sys.stderr)
    if errors:
        return 1
    print(f"mechanism inventory: {len(modules)} modules, all named in "
          "DESIGN.md")
    return 0


if __name__ == "__main__":
    sys.exit(main())
