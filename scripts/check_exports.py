#!/usr/bin/env python3
"""Fail on an exported value no other module names, or only tests name.

Two rules hold for every `val` of a lib/*/*.mli interface:

  - Something names it. A shipped library (every lib/* but lib/testkit)
    exports a value only when a file outside test/ and lib/testkit
    names it; tests alone are not a reason to export it.
  - The test seams stay with the tests. A `val` of a module's
    `For_testing` submodule reaches the module's private state for an
    oracle, a fixture or a fuzz, and only files under test/ or
    lib/testkit may name it.

A `val` counts as named only where a source file (.ml or .mli) of lib,
bin, bench, dpcbench, examples or test, other than its own module's .ml
and .mli, names it through its module:

  - a qualified path, `M.name` (a library prefix may precede it:
    `Dpc_util.M.name`), or `M.Sub.name` for a `val` of a submodule
    `Sub` of `M`;
  - an alias of the module, `module X = M` (or `= Lib.M`, `= M.Sub`),
    and then `X.name`;
  - an open of the module, `open M`, `let open M in` or `M.( ... )`,
    and then the bare `name`; an open of `M` also makes `Sub.name` a
    path to a `val` of its submodule `Sub`;
  - the module passed whole to a stdlib functor, which reads the
    values its argument signature names (`Hashtbl.Make (M)` reads
    `M.equal` and `M.hash`).

A `val` of a `module type` is a requirement on the modules of that type:
it counts as used where any file, its own module's included, reads it
through some module, `X.name`. Comments and string literals name
nothing. A value only its own module uses belongs in the .ml alone.

    python3 scripts/check_exports.py
"""

import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCHED = ["lib", "bin", "bench", "dpcbench", "examples", "test"]
IDENT = r"[a-z_][A-Za-z0-9_']*"
MOD = r"[A-Z][A-Za-z0-9_']*"
PATH = MOD + r"(?:\s*\.\s*" + MOD + r")*"
FUNCTORS = {
    "Hashtbl.Make": ("equal", "hash"),
    "Hashtbl.MakeSeeded": ("equal", "seeded_hash"),
    "Map.Make": ("compare",),
    "Set.Make": ("compare",),
}
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'])'")
QUOTED = re.compile(r"\{([a-z_]*)\|")


def strip(text):
    """The source with comments and string literals blanked out."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            if not depth:
                out.append('""')
        elif c == "{" and QUOTED.match(text, i):
            m = QUOTED.match(text, i)
            end = text.find("|" + m.group(1) + "}", m.end())
            i = n if end < 0 else end + len(m.group(1)) + 2
            if not depth:
                out.append('""')
        elif c == "'" and not (out and re.match(r"[\w']", out[-1][-1:])) and CHAR.match(text, i):
            i = CHAR.match(text, i).end()
            if not depth:
                out.append("' '")
        else:
            if not depth:
                out.append(c)
            i += 1
    return "".join(out)


def interface(text):
    """[(submodule path, module type or None, name)] of every val."""
    vals, stack = [], []
    tokens = re.finditer(
        r"\bmodule\s+type\s+(" + MOD + r")\s*=\s*sig\b"
        r"|\bmodule\s+(" + MOD + r")\s*:\s*sig\b"
        r"|\b(sig|struct|object)\b|\bend\b"
        r"|\bval\s+(" + IDENT + r")",
        text,
    )
    for m in tokens:
        if m.group(1):
            stack.append(("type", m.group(1)))
        elif m.group(2):
            stack.append(("module", m.group(2)))
        elif m.group(3):
            stack.append(("anon", None))
        elif m.group(0) == "end":
            stack.pop()
        else:
            path = tuple(name for kind, name in stack if kind == "module")
            types = [name for kind, name in stack if kind == "type"]
            vals.append((path, types[-1] if types else None, m.group(4)))
    return vals


def split(path):
    return tuple(re.sub(r"\s+", "", path).split("."))


def scope_end(text, m):
    """Where the open that [m] matched stops: the matching parenthesis of
    a local open `M.( ... )`, the next top-level definition after a
    `let open M in`, the end of the file after an `open M`."""
    if m.group(0).endswith("("):
        depth, i = 1, m.end()
        while i < len(text) and depth:
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            i += 1
        return i
    if m.group(0).startswith("let"):
        nxt = re.compile(r"^(?:let|and|type|module|open|exception)\b", re.M).search(text, m.end())
        return nxt.start() if nxt else len(text)
    return len(text)


class Source:
    """What one file names: every `Path.name` (its path with aliases
    expanded), and the module paths it opens with the text each open
    covers."""

    def __init__(self, text):
        self.text = text
        aliases = {}
        for m in re.finditer(r"\bmodule\s+(" + MOD + r")\s*=\s*(" + PATH + r")(?!\s*\()", text):
            aliases[m.group(1)] = split(m.group(2))

        def expand(path):
            seen = 0
            while path[0] in aliases and seen < 8:
                path = aliases[path[0]] + path[1:]
                seen += 1
            return path

        self.opens = [
            (expand(split(m.group(1) or m.group(2) or m.group(3))), m.start(), scope_end(text, m))
            for m in re.finditer(
                r"\blet\s+open!?\s+(" + PATH + r")\s+in\b"
                r"|\bopen!?\s+(" + PATH + r")"
                r"|(?<![\w'.])(" + PATH + r")\s*\.\s*\(",
                text,
            )
        ]
        self.qualified = {}
        for m in re.finditer(r"(?<![\w'.])(" + PATH + r")\s*\.\s*(" + IDENT + r")", text):
            self.qualified.setdefault(m.group(2), []).append(expand(split(m.group(1))))
        for m in re.finditer(r"\b(" + PATH + r")\s*\(\s*(" + PATH + r")\s*\)", text):
            for name in FUNCTORS.get(".".join(split(m.group(1))), ()):
                self.qualified.setdefault(name, []).append(expand(split(m.group(2))))

    def names(self, target, name):
        """Whether this file reaches [name] of module path [target]."""
        for path in self.qualified.get(name, ()):
            if path[-len(target):] == target:
                return True
            # An open of an enclosing module reaches a submodule by a short path.
            for k in range(1, len(target)):
                if path == target[k:] and self.scopes(target[:k]):
                    return True
        bare = re.compile(r"(?<![\w'.])" + re.escape(name) + r"(?![\w'])")
        return any(bare.search(self.text, start, end) for start, end in self.scopes(target))

    def scopes(self, target):
        return [(start, end) for path, start, end in self.opens if path[-len(target):] == target]


def sources():
    for top in SEARCHED:
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d != "_build"]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    yield os.path.join(dirpath, f)


def is_test(path):
    """Whether [path] is test code: under test/ or lib/testkit."""
    rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
    return rel.startswith(("test/", "lib/testkit/"))


def main():
    texts, files = {}, {}
    for path in sources():
        with open(path, encoding="utf-8", errors="replace") as f:
            texts[path] = strip(f.read())
        files[path] = Source(texts[path])
    failures = []
    for mli in sorted(glob.glob(os.path.join(ROOT, "lib", "*", "*.mli"))):
        module = os.path.basename(mli)[:-4].capitalize()
        own = (mli, mli[:-1])
        for path, module_type, name in interface(texts[mli]):
            if module_type:
                users = [p for p, f in files.items() if p != mli and name in f.qualified]
            else:
                target = (module,) + path
                users = [p for p, f in files.items() if p not in own and f.names(target, name)]
            shipped = [p for p in users if not is_test(p)]
            shown = (module,) + path + ((module_type,) if module_type else ()) + (name,)
            where = "%s: val %s" % (os.path.relpath(mli, ROOT), ".".join(shown))
            if not users:
                failures.append("exported but named by no other module: " + where)
            elif "For_testing" in path:
                for p in shipped:
                    failures.append(
                        "a For_testing value named outside the tests: %s, in %s"
                        % (where, os.path.relpath(p, ROOT))
                    )
            elif not shipped and not is_test(mli):
                failures.append("exported but named only by tests: " + where)
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
