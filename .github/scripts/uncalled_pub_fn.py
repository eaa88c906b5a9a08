#!/usr/bin/env python3
"""Fail on a `pub` fn under crates/*/src that no code line calls.

A call is any code line, outside the function's own body, that names it.
Test code in the declaring file (anything under a `#[cfg(test)]`, such as
its `mod tests`) is not a caller: an API only its own unit test reaches is
dead. `#[cfg(test)]` declarations are test hooks and are not checked.

A method whose name another item declares too counts as called only where
its type is in sight: a path `Type::name`, `Self::name` or a call `.name(`
inside an impl of the type, or a call `.name(` in a file whose code names
the type. Such a method's callers are often chains (`b.task(c)….submit()`)
that this test cannot see through, so for it, test code in the declaring
file still counts.

Run from the repository root: `python3 .github/scripts/uncalled_pub_fn.py`.
"""
import glob
import re
import sys

decl = re.compile(r'^(\s*)pub(?:\(crate\))?\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)')
impl = re.compile(r'^(\s*)impl\b(?:<[^{]*?>)?\s+(?:[\w:]+(?:<[^{]*?>)?\s+for\s+)?(?:[\w:]+::)?(\w+)')
cfg_test = re.compile(r'^(\s*)#\[cfg\(test\)\]')


def code_lines(path):
    return [re.sub(r'"(?:[^"\\]|\\.)*"', '""', l) for l in open(path).read().splitlines()]


files = sorted(set(sum((glob.glob(g, recursive=True) for g in
    ["crates/**/*.rs", "benchmark/src/**/*.rs", "examples/**/*.rs", "tests/**/*.rs"]), [])))
text = {f: code_lines(f) for f in files}
whole = {f: "\n".join(ls) for f, ls in text.items()}
code = {f: "\n".join(l for l in ls if not l.lstrip().startswith("//")) for f, ls in text.items()}


def close_of(lines, i, indent):
    return next((j for j in range(i + 1, len(lines)) if lines[j] == indent + "}"), i)


# owner[f][n]: the type of the innermost impl block line n of f is in.
# test[f][n]: line n of f is compiled only under `#[cfg(test)]`.
owner, test = {}, {}
for f, lines in text.items():
    owner[f] = [None] * len(lines)
    test[f] = [False] * len(lines)
    for i, l in enumerate(lines):
        m = impl.match(l)
        if m and l.rstrip().endswith("{"):
            for n in range(i + 1, close_of(lines, i, m.group(1))):
                owner[f][n] = m.group(2)
        m = cfg_test.match(l)
        if m:
            # The item the attribute is on: skip further attributes and
            # docs, then run to its `;` or to the `}` closing its `{`.
            j = i + 1
            while j < len(lines) and lines[j].lstrip().startswith(("#[", "//")):
                j += 1
            while j < len(lines) - 1 and not lines[j].rstrip().endswith(("{", ";")):
                j += 1
            end = close_of(lines, j, m.group(1)) if lines[j].rstrip().endswith("{") else j
            for n in range(i, end + 1):
                test[f][n] = True

decls = []
for f in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True)):
    lines = text[f]
    for i, l in enumerate(lines):
        m = decl.match(l)
        if m and not test[f][i]:
            indent, name = m.groups()
            decls.append((f, i, name, owner[f][i], close_of(lines, i, indent)))

names = [d[2] for d in decls]
shared = {n for n in names if names.count(n) > 1}


def called(f, i, name, ty, close):
    word = re.compile(r'\b%s\b' % name)
    path = re.compile(r'\b%s(?:::<[^>]*>)?::%s\b' % (ty, name))
    method = re.compile(r'\.%s\s*(?:::<[^>]*>\s*)?\(' % name)
    own = re.compile(r'\bSelf::%s\b|%s' % (name, method.pattern))
    typed = re.compile(r'\b%s\b' % ty)
    unique = ty is None or name not in shared
    for g, ls in text.items():
        if not word.search(whole[g]):
            continue
        in_sight = unique or bool(typed.search(code[g]))
        for n, l in enumerate(ls):
            if l.lstrip().startswith("//") or (g == f and i <= n <= close) or not word.search(l):
                continue
            if g == f and test[g][n] and unique:
                continue
            if unique:
                return True
            if path.search(l) or (own.search(l) and owner[g][n] == ty):
                return True
            if method.search(l) and in_sight:
                return True
    return False


bad = [f"{f}:{i + 1}: pub fn {ty + '::' if ty else ''}{name} has no call site"
       for f, i, name, ty, close in decls if not called(f, i, name, ty, close)]
for b in bad:
    print(f"::error::{b}")
print(f"{len(bad)} uncalled public functions")
sys.exit(1 if bad else 0)
