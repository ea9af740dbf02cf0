#!/usr/bin/env python3
"""Doc-drift check: keep the CLI surface and the markdown honest.

Five invariants, enforced in ctest (see tests/CMakeLists.txt):

  * every command-line flag the rrsim and rrlog drivers actually
    accept (scraped from the `arg == "--flag"` comparisons in their
    sources, the authoritative parse sites) is mentioned in README.md
    or somewhere under docs/*.md — a flag nobody documents is a flag
    nobody finds;
  * conversely, every `--flag` a README.md or docs/*.md line passes
    after `rrsim` or `rrlog` (the nearest tool name before it on the
    same line) is one that tool accepts — a documented flag that no
    longer exists is an example that no longer runs;
  * every relative markdown link in README.md, the top-level *.md
    files and docs/*.md resolves to an existing file (anchors are
    stripped; external http(s)/mailto links are ignored);
  * every source file those docs name in an inline code span — a
    `*.cc`, `*.hh`, `*.py` or `*.sh` name, with `{a,b}` alternatives
    and `*` globs expanded — exists: as a path from the repo root, or,
    for a bare name, somewhere under SOURCE_DIRS. CHANGES.md and any
    task list (a file with `- [ ]` items) are skipped: the first is the
    history of files that later changes removed, a task list describes
    a change, and so names the files that change removes;
  * the serve request fields src/svc/protocol.cc reads (its `get("x")`
    and `uintField(obj, "x"` sites) are exactly the `"x":` keys of the
    Requests block in docs/SERVICE.md plus the fields its "Common
    submission fields" paragraph names — a field the daemon reads is
    documented, and a documented field is one it reads.

Usage: check_docs.py [REPO_ROOT]
Exit status 0 when the docs are in sync, 1 otherwise.
"""

import fnmatch
import pathlib
import re
import sys

SOURCE_DIRS = ("src", "tests", "tools", "bench", "perfbench", "examples")


def fail(errors):
    for e in errors:
        print(f"check_docs: {e}", file=sys.stderr)
    sys.exit(1)


def cli_flags(source):
    """Flags a driver accepts: its `arg == "--x"` comparison sites."""
    return set(re.findall(r'arg(?:\.rfind\(|\s*==\s*)"(--[a-z-]+)"',
                          source))


def is_task_list(text):
    """True for a markdown task list: one with `- [ ]` or `- [x]` items."""
    return re.search(r"^\s*[-*] \[[ xX]\]", text, re.MULTILINE) is not None


def documented_uses(text):
    """(line number, tool, flag) for each --flag after rrsim/rrlog.

    `.rrlog` file names and `rrsim.cc` paths are not tool names.
    """
    out = []
    for number, line in enumerate(text.splitlines(), start=1):
        tools = [(m.start(), m.group(1))
                 for m in re.finditer(r"(?<![\w.])(rrsim|rrlog)(?![\w.])",
                                      line)]
        for m in re.finditer(r"(?<![\w-])(--[a-z][a-z-]*)", line):
            before = [tool for pos, tool in tools if pos < m.start()]
            if before:
                out.append((number, before[-1], m.group(1)))
    return out


def markdown_links(text):
    """Relative link targets of [text](target) links."""
    out = []
    for target in re.findall(r"\]\(([^)\s]+)\)", text):
        if re.match(r"^(https?|mailto):", target) or target.startswith("#"):
            continue
        out.append(target.split("#", 1)[0])
    return out


def expand_braces(ref):
    """`a.{hh,cc}` -> [`a.hh`, `a.cc`]."""
    m = re.search(r"\{([^}]*)\}", ref)
    if not m:
        return [ref]
    return [out for alt in m.group(1).split(",")
            for out in expand_braces(ref[:m.start()] + alt + ref[m.end():])]


def source_references(text):
    """(line number, name) for each source file an inline code span
    names. Fenced code blocks are examples, not references."""
    out = []
    fenced = False
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for span in re.findall(r"`([^`]+)`", line):
            for ref in expand_braces(span):
                if re.fullmatch(r"[\w./*-]+\.(cc|hh|py|sh)", ref):
                    out.append((number, ref))
    return out


def protocol_fields(source):
    """Request fields protocol.cc reads: get("x") and uintField(o, "x"."""
    return (set(re.findall(r'\bget\("(\w+)"\)', source)) |
            set(re.findall(r'\buintField\(\s*[^,()]+,\s*"(\w+)"', source)))


def documented_request_fields(text):
    """The `"x":` keys of SERVICE.md's Requests block (the first fenced
    block after the line that starts with "Requests") and the `x` spans
    of its "Common submission fields" paragraph."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines)
                  if line.startswith("Requests")), None)
    if start is None:
        return None
    fields = set()
    fenced = False
    for line in lines[start:]:
        if line.lstrip().startswith("```"):
            if fenced:
                break
            fenced = True
            continue
        if fenced:
            fields |= set(re.findall(r'"(\w+)":', line))
    common = next((i for i, line in enumerate(lines)
                   if line.startswith("Common submission fields")), None)
    if common is None:
        return None
    for line in lines[common:]:
        if not line.strip():
            break
        fields |= set(re.findall(r"`(\w+)`", line))
    return fields


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    doc_paths = sorted(root.glob("*.md")) + sorted(root.glob("docs/*.md"))
    if not doc_paths:
        fail([f"no markdown files under {root}"])
    docs = {p: p.read_text(encoding="utf-8") for p in doc_paths}
    errors = []

    # --- Every accepted CLI flag is documented somewhere. -------------
    flag_corpus = "\n".join(
        text for p, text in docs.items()
        if p.name == "README.md" or p.parent.name == "docs")
    accepted = {}
    for tool in ("rrsim", "rrlog"):
        source_path = root / "tools" / f"{tool}.cc"
        flags = cli_flags(source_path.read_text(encoding="utf-8"))
        accepted[tool] = flags
        if not flags:
            errors.append(f"scraped no flags from {source_path}; "
                          "did the parser idiom change?")
        for flag in sorted(flags):
            if f"`{flag}" not in flag_corpus and flag not in flag_corpus:
                errors.append(
                    f"{tool} accepts {flag} but neither README.md nor "
                    f"docs/*.md mentions it")

    # --- Every documented flag is accepted. ---------------------------
    for path, text in docs.items():
        if path.name != "README.md" and path.parent.name != "docs":
            continue
        for number, tool, flag in documented_uses(text):
            if flag not in accepted[tool]:
                errors.append(f"{path}:{number}: {tool} does not "
                              f"accept {flag}")

    # --- Every relative markdown link resolves. -----------------------
    for path, text in docs.items():
        for target in markdown_links(text):
            if not target:
                continue
            if not (path.parent / target).exists():
                errors.append(f"{path}: broken link -> {target}")

    # --- Every named source file exists. -------------------------------
    bare_names = {f.name for d in SOURCE_DIRS for f in (root / d).rglob("*")
                  if f.is_file()}
    for path, text in docs.items():
        if path.name == "CHANGES.md" or is_task_list(text):
            continue
        for number, ref in source_references(text):
            if "/" in ref:
                found = any(True for _ in root.glob(ref))
            else:
                found = any(fnmatch.fnmatch(n, ref) for n in bare_names)
            if not found:
                errors.append(f"{path}:{number}: names {ref}, which does "
                              "not exist")

    # --- The documented request schema is the parsed one. -------------
    service = root / "docs" / "SERVICE.md"
    parsed = protocol_fields(
        (root / "src" / "svc" / "protocol.cc").read_text(encoding="utf-8"))
    documented = documented_request_fields(docs.get(service, ""))
    if not parsed:
        errors.append("scraped no request fields from src/svc/protocol.cc; "
                      "did the parser idiom change?")
    elif documented is None:
        errors.append(f"{service}: no Requests block or common-fields "
                      "paragraph")
    else:
        for field in sorted(parsed - documented):
            errors.append(f"src/svc/protocol.cc reads request field "
                          f"'{field}' but {service} does not document it")
        for field in sorted(documented - parsed):
            errors.append(f"{service} documents request field '{field}', "
                          "which src/svc/protocol.cc does not read")

    if errors:
        fail(errors)
    print(f"check_docs: {len(doc_paths)} markdown files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
