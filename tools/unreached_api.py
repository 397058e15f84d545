#!/usr/bin/env python3
"""List library names that no program reaches.

Run from the repository root, with no arguments:

    python3 tools/unreached_api.py

Every class, struct and free function declared at namespace scope in
src/**/*.hh is looked up, by name, in src, bench, examples, tools and
perfbench, outside the name's own .hh/.cc pair.  A name with no such
reference that its own pair does not use either (a call from another
function's body, a member of another class) is printed, with the
number of test files that name it.  Comments are stripped and string
literals emptied before anything is matched.

Names under src/core/ and src/linesize/ print in a group of their
own: they are the paper's equations, and the paper-claims tests are
their caller.

Matching is by name, so a name that anything else in the programs
shares is never listed, and class members are not covered.  The
report informs a review and gates nothing: the scan always exits 0.
"""

import pathlib
import re
import sys

PROGRAM_DIRS = ("src", "bench", "examples", "tools", "perfbench")
PAPER_MODEL_DIRS = ("src/core/", "src/linesize/")
SUFFIXES = {".hh", ".cc", ".cpp"}

# A raw string, a comment, a string literal or a character literal.
LEXEME = re.compile(
    r'(?<!\w)R"([^(\s]*)\(.*?\)\1"'
    r"|//[^\n]*|/\*.*?\*/"
    r'|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'",
    re.S)
DIRECTIVE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)
DECLARATOR = re.compile(r"(\w+)\s*\(")
NOT_A_NAME = {"decltype", "noexcept", "sizeof", "operator", "void"}


def strip(text):
    """Blank comments and literal contents, keeping every newline."""
    def blank(match):
        lexeme = match.group(0)
        if lexeme.startswith(("//", "/*")):
            return re.sub(r"[^\n]", " ", lexeme)
        quote = '"' if lexeme.endswith('"') else "'"
        return quote + re.sub(r"[^\n]", " ", lexeme[1:-1]) + quote
    return LEXEME.sub(blank, text)


def closing(text, open_at, pair="{}"):
    """Index of the bracket that closes the one at open_at."""
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == pair[0]:
            depth += 1
        elif text[i] == pair[1]:
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def owner(head):
    """(name, kind) that a namespace-scope statement declares."""
    head = re.sub(r"\[\[.*?\]\]", " ", head)
    while re.match(r"\s*template\s*<", head):
        lt = head.index("<")
        head = head[closing(head, lt, "<>") + 1:]
    head = head.strip()
    if re.match(r"(using|typedef|static_assert|friend|enum)\b", head):
        return None, None
    cls = re.match(r"(?:class|struct)\s+(\w+)", head)
    if cls:
        return cls.group(1), "class"
    call = next((m for m in DECLARATOR.finditer(head)
                 if m.group(1) not in NOT_A_NAME), None)
    if not call or "=" in head[:call.start()]:
        return None, None
    before = head[:call.start()].rstrip()
    if before.endswith("::"):  # a member defined out of its class
        qualifier = re.search(r"(\w+)\s*(?:<[^<>]*>)?\s*::$", before)
        return (qualifier.group(1) if qualifier else None), "member"
    if not before or before.endswith("~"):
        return None, None
    return call.group(1), "function"


def entities(text, begin=0, end=None):
    """Yield (name, kind, start, stop) per namespace-scope statement."""
    end = len(text) if end is None else end
    start = i = begin
    parens = 0
    while i < end:
        c = text[i]
        if c in "()":
            parens += 1 if c == "(" else -1
        elif c == ";" and parens == 0:
            yield (*owner(text[start:i]), start, i)
            start = i + 1
        elif c == "{" and parens == 0:
            head = text[start:i]
            stop = closing(text, i)
            if re.match(r"\s*namespace\b", head):
                yield from entities(text, i + 1, stop)
            elif not head.rstrip().endswith(("=", "]")):
                yield (*owner(head), start, stop)
            else:  # an initializer: the statement ends at its ';'
                i = stop
                continue
            start = i = stop + 1
            continue
        i += 1


def used_inside(text, name):
    """Whether a macro, or a statement of this file that does not
    declare or define the name, mentions it."""
    word = re.compile(r"\b%s\b" % re.escape(name))
    if any(word.search(macro) for macro in DIRECTIVE.findall(text)):
        return True
    code = DIRECTIVE.sub("", text)
    return any(owner_name != name and word.search(code, start, stop)
               for owner_name, _, start, stop in entities(code))


def report(rows):
    if not rows:
        print("  (none)")
    for header, name, kind, tests in rows:
        print("  %-34s %-26s %-8s %d test file%s" %
              (header, name, kind, tests, "" if tests == 1 else "s"))


def main():
    root = pathlib.Path(".")
    if not (root / "src").is_dir():
        print("unreached_api: run from the repository root")
        return 0
    files = {}
    for top in PROGRAM_DIRS + ("tests",):
        for path in sorted((root / top).rglob("*")):
            if path.suffix in SUFFIXES:
                files[path.as_posix()] = strip(
                    path.read_text(errors="replace"))
    words = {path: set(re.findall(r"\w+", text))
             for path, text in files.items()}

    found = []
    for header in sorted(p for p in files if p.startswith("src/")
                         and p.endswith(".hh")):
        declared = {}
        code = DIRECTIVE.sub("", files[header])
        for name, kind, _, _ in entities(code):
            if kind in ("class", "function"):
                declared.setdefault(name, kind)
        stem = header[:-len(".hh")]
        own = [stem + ".hh", stem + ".cc"]
        for name, kind in declared.items():
            if any(name in names for path, names in words.items()
                   if not path.startswith("tests/") and path not in own):
                continue
            if any(used_inside(files[path], name)
                   for path in own if path in files):
                continue
            tests = sum(1 for path, names in words.items()
                        if path.startswith("tests/") and name in names)
            found.append((header, name, kind, tests))

    library = [f for f in found if not f[0].startswith(PAPER_MODEL_DIRS)]
    paper = [f for f in found if f[0].startswith(PAPER_MODEL_DIRS)]
    print("Library names no program reaches "
          "(src, bench, examples, tools, perfbench):")
    report(library)
    print("\nPaper-model names (src/core, src/linesize) that only "
          "the tests reach:")
    report(paper)
    print("\n%d library names, %d paper-model names." %
          (len(library), len(paper)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
