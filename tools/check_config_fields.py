#!/usr/bin/env python3
"""Lists settings that no caller sets.

A field of a `struct *Config` / `struct *Options` under src/ is a setting.
A setting earns its place once some caller assigns it (`x.f = ...`,
`x->f = ...` or a designated initialiser `{.f = ...}`) somewhere in the
tree; until then its default is the only value the program ever runs
with, and it should be a named constant next to its reader instead.

The check is a lower bound. Fields are matched by name: an assignment is
charged to another struct only when its receiver is a variable declared
in the same file with that struct's type. An assignment whose receiver's
type is not resolved (a member, a nested field, `auto`) counts for every
struct with a field of that name, so a name shared between structs can
hide an unset field. Assignments inside the struct's own header and
source file are not callers and do not count.

Usage: python3 tools/check_config_fields.py   (from the repo root)
Exit status 1 lists each unset field that is not on ALLOWED below.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEARCH_DIRS = ("src", "tests", "bench", "tools", "examples", "e2ebench")
SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

# Unset fields that stay settings, each with its reason. A key is a
# qualified struct name (every field of it) or "Struct::field".
ALLOWED = {
    "VersionStore::Config::signing_key": "a credential: credentials stay "
    "configurable",
    "RulePushBatcher::Config": "tests build it positionally with values "
    "other than the defaults",
}

STRUCT_RE = re.compile(r"\bstruct\s+(\w*(?:Config|Options))\s*\{")
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(\w+)\b[^;{()]*\{")
FIELD_RE = re.compile(
    r"^\s*(?!return\b|using\b|friend\b|static\b|enum\b|struct\b|class\b)"
    r"[\w:<>,\s*&]+?[\s*&>](\w+)\s*(?:=[^=]|\{|;)")
# `recv.a.b = `, `recv->a = `, `call().a = ` or a designated `{.a = `.
ASSIGN_RE = re.compile(r"(\w+|[)\]])?((?:\s*(?:\.|->)\s*\w+)+)\s*=(?!=)")
MEMBER_RE = re.compile(r"(?:\.|->)\s*(\w+)")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def sources():
    for top in SEARCH_DIRS:
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def body_end(text, open_brace):
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def enclosing_classes(text, pos):
    """Names of the classes/structs whose bodies contain `pos`."""
    names = []
    for m in CLASS_RE.finditer(text, 0, pos):
        brace = m.end() - 1
        if body_end(text, brace) > pos:
            names.append(m.group(1))
    return names


def top_level_fields(body):
    """Data members declared directly in a struct body (depth 0)."""
    fields = []
    depth = 0
    statement = ""
    for ch in body:
        if ch == "{":
            if depth == 0:
                statement += "{"
            depth += 1
            continue
        if ch == "}":
            depth -= 1
            continue
        if depth > 0:
            continue
        statement += ch
        if ch == ";":
            decl = " ".join(statement.split())
            statement = ""
            while re.search(r"<[^<>]*>", decl):  # drop template arguments
                decl = re.sub(r"<[^<>]*>", "", decl)
            if "(" in decl.split("=")[0] or "operator" in decl:
                continue  # member function
            m = FIELD_RE.match(decl)
            if m:
                fields.append(m.group(1))
    return fields


def collect_structs():
    """{qualified name: (fields, owner files)} for src/ settings structs."""
    structs = {}
    for path in sources():
        if path.relative_to(ROOT).parts[0] != "src":
            continue
        text = strip_comments(path.read_text())
        for m in STRUCT_RE.finditer(text):
            brace = m.end() - 1
            body = text[brace + 1:body_end(text, brace)]
            name = "::".join(enclosing_classes(text, m.start()) + [m.group(1)])
            owners = {path, path.with_suffix(".cpp"), path.with_suffix(".h")}
            structs[name] = (top_level_fields(body), owners)
    return structs


def declared_type(text, var):
    """Type of the first `Type var` declaration in `text`, if any."""
    m = re.search(r"([A-Za-z_][\w:]*)\s*[&*]?\s+" + re.escape(var) +
                  r"\s*(?:[;{=,)(]|$)", text, flags=re.M)
    return m.group(1) if m else None


def same_struct(qualified, type_name):
    """True when `type_name` (as written at a declaration) names it."""
    a = qualified.split("::")
    b = type_name.split("::")
    n = min(len(a), len(b))
    return a[-n:] == b[-n:]


def main():
    structs = collect_structs()
    by_field = {}
    for name, (fields, _) in structs.items():
        for field in fields:
            by_field.setdefault(field, []).append(name)

    assigned = set()  # (struct, field)
    for path in sources():
        text = strip_comments(path.read_text())
        for m in ASSIGN_RE.finditer(text):
            receiver = m.group(1)
            rtype = None
            if receiver and re.fullmatch(r"\w+", receiver):
                rtype = declared_type(text, receiver)
            # Every member on the chain is set by this caller: `a.b.c = `
            # sets c and reaches into b. Only the first member's struct
            # comes from the receiver's declared type.
            for i, field in enumerate(MEMBER_RE.findall(m.group(2))):
                owners = by_field.get(field, [])
                typed = [s for s in owners
                         if i == 0 and rtype and same_struct(s, rtype)]
                for struct in typed or owners:
                    if path not in structs[struct][1]:
                        assigned.add((struct, field))

    unset = []
    for name in sorted(structs):
        for field in structs[name][0]:
            if (name, field) in assigned:
                continue
            if name in ALLOWED or f"{name}::{field}" in ALLOWED:
                continue
            unset.append(f"{name}::{field}")

    if unset:
        print(f"{len(unset)} setting(s) that no caller sets; make each a "
              "named constexpr next to its reader, or allow it in "
              "tools/check_config_fields.py with a reason:")
        for entry in unset:
            print("  " + entry)
        return 1
    print(f"ok: every field of {len(structs)} Config/Options structs under "
          "src/ is set by some caller or allowed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
