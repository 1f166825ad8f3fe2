#!/usr/bin/env python3
"""Interface diet: every exported value and every optional parameter has
a user outside its module.

usage: python3 tools/interface_diet.py

Run from the root of a checkout. Two by-name scans of lib/**/*.mli over
the OCaml files of lib/, bin/, bench/, examples/, test/ and perfbench/,
comments excluded; the module's own .ml and .mli never count:

- values: lists each `val` that no other file mentions. A name any other
  file mentions counts as used, so a common name such as `create` always
  passes: the scan catches names nothing else mentions.
- optional parameters: lists each `?label:` of an exported `val` that no
  .ml file outside test/ passes, as `~label` or `?label`. A setting only
  tests pass selects behaviour no caller gets, so it fails the scan too.
  Any `~label` counts, whatever function it goes to.

Exits 1 if any such value or parameter is missing from its allowlist
below, or if an allowlist entry is stale (it has a user again, or no
longer exists), so the lists stay short and true.
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

# Optional parameters only tests pass, kept on purpose. Each needs a
# reason a test cannot reach the behaviour at the default.
ALLOWED_LABELS = {
    # the LRU eviction tests need a cache smaller than the default 64
    # entries, which would take 64 distinct compiles to fill
    "Compile_cache.create ?capacity",
    # the span-drop tests need a buffer smaller than the default
    # 65,536 spans
    "Trace.create ?cap",
}

SCAN_DIRS = ["lib", "bin", "bench", "examples", "test", "perfbench"]
VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)", re.MULTILINE)
# a `val` declaration's type runs to the next signature item
VAL_DECL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.MULTILINE)
NEXT_ITEM = re.compile(r"^\s*(val|type|module|exception|external|include|open|end)\b", re.MULTILINE)
OPTIONAL = re.compile(r"\?([a-z_][A-Za-z0-9_']*)\s*:")


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


def optional_labels(text):
    """(val name, label) for each `?label:` in an exported val's type."""
    for m in VAL_DECL.finditer(text):
        end = NEXT_ITEM.search(text, m.end())
        decl = text[m.end() : end.start() if end else len(text)]
        for label in sorted(set(OPTIONAL.findall(decl))):
            yield m.group(1), label


def word(name, prefix=""):
    return re.compile(r"(?<![A-Za-z0-9_'])" + prefix + re.escape(name) + r"(?![A-Za-z0-9_'])")


def check(found, allowed, exported, what):
    failed = False
    for key in sorted(found - allowed):
        print(f"interface diet: {key} {what}")
        failed = True
    for key in sorted(allowed - found):
        why = "no longer exported" if key not in exported else "has a user now"
        print(f"interface diet: allowlisted {key} {why}; drop it from its allowlist")
        failed = True
    return failed


def main():
    root = os.getcwd()
    sources = {}
    for path in ocaml_files(root):
        with open(path) as f:
            sources[path] = strip_comments(f.read())
    in_test = {p for p in sources if os.path.relpath(p, root).startswith("test" + os.sep)}
    unused, exported = set(), set()
    untested_labels, labels = set(), set()
    for path, text in sources.items():
        if not (path.endswith(".mli") and os.path.relpath(path, root).startswith("lib" + os.sep)):
            continue
        module = os.path.basename(path)[:-4].capitalize()
        own = {path, path[:-1]}
        for name in sorted(set(VAL.findall(text))):
            key = f"{module}.{name}"
            exported.add(key)
            if not any(word(name).search(t) for p, t in sources.items() if p not in own):
                unused.add(key)
        callers = [t for p, t in sources.items() if p.endswith(".ml") and p not in own | in_test]
        for name, label in optional_labels(text):
            key = f"{module}.{name} ?{label}"
            labels.add(key)
            if not any(word(label, r"[~?]").search(t) for t in callers):
                untested_labels.add(key)
    failed = check(unused, ALLOWED, exported, "has no user outside its module")
    failed |= check(
        untested_labels, ALLOWED_LABELS, labels, "is passed by no caller outside its module and test/"
    )
    if failed:
        sys.exit(1)
    print(
        f"interface diet: ok ({len(exported)} exported values, {len(unused)} allowlisted; "
        f"{len(labels)} optional parameters, {len(untested_labels)} allowlisted)"
    )


if __name__ == "__main__":
    main()
