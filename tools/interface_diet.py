#!/usr/bin/env python3
"""Interface diet: every exported value has a user outside its module.

usage: python3 tools/interface_diet.py

Run from the root of a checkout. Lists each `val` declared in
lib/**/*.mli that no OCaml file outside its own module mentions (a
by-name scan of lib/, bin/, bench/, examples/, test/ and perfbench/,
comments excluded; the module's own .ml and .mli do not count). A name
any other file mentions counts as used, so a common name such as
`create` always passes: the scan catches names nothing else mentions.
Exits 1 if any such value is missing from ALLOWED below, or if an
ALLOWED entry is stale (it has a user again, or no longer exists), so
the list stays short and true.
"""
import os
import re
import sys

# Exported values with no caller outside their module, kept on purpose.
# Each needs a reason: an entry point the docs name, or a value the
# benchmark links.
ALLOWED = {
    # the headline dynamic-shape rewrite the module doc names; callers
    # reach it through run_all
    "Passes.simplify",
}

SCAN_DIRS = ["lib", "bin", "bench", "examples", "test", "perfbench"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.MULTILINE)


def ocaml_files(root):
    for top in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if not d.startswith("_")]
            for f in filenames:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def strip_comments(text):
    out, depth, i = [], 0, 0
    while i < len(text):
        if text.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and text.startswith("*)", i):
            depth, i = depth - 1, i + 2
        else:
            if not depth:
                out.append(text[i])
            i += 1
    return "".join(out)


def main():
    root = os.getcwd()
    sources = {}
    for path in ocaml_files(root):
        with open(path) as f:
            sources[path] = strip_comments(f.read())
    unused = set()
    exported = set()
    for path, text in sources.items():
        if not (path.endswith(".mli") and os.path.relpath(path, root).startswith("lib" + os.sep)):
            continue
        module = os.path.basename(path)[:-4].capitalize()
        own = {path, path[:-1]}
        for name in sorted(set(VAL.findall(text))):
            key = f"{module}.{name}"
            exported.add(key)
            word = re.compile(r"(?<![A-Za-z0-9_'])" + re.escape(name) + r"(?![A-Za-z0-9_'])")
            if not any(word.search(t) for p, t in sources.items() if p not in own):
                unused.add(key)
    failed = False
    for key in sorted(unused - set(ALLOWED)):
        print(f"interface diet: {key} has no user outside its module")
        failed = True
    for key in sorted(set(ALLOWED) - unused):
        why = "no longer exported" if key not in exported else "has a user now"
        print(f"interface diet: allowlisted {key} {why}; drop it from ALLOWED")
        failed = True
    if failed:
        sys.exit(1)
    print(f"interface diet: ok ({len(exported)} exported values, {len(unused)} allowlisted)")


if __name__ == "__main__":
    main()
