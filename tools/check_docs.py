"""Docs health gate: links resolve, anchors exist, knobs are documented,
named modules exist.

Four checks over ``README.md`` and ``docs/**/*.md``:

1. **Intra-repo links** -- every relative link target must exist, and a
   ``#fragment`` into a markdown file must match one of that file's
   heading anchors (GitHub's slugging: lowercase, punctuation stripped,
   spaces to hyphens, duplicate slugs suffixed ``-1``, ``-2``, ...).
   External (``http://``, ``https://``, ``mailto:``) links are ignored
   -- CI must not flake on the outside world.

2. **EngineConfig coverage** -- every field of the ``EngineConfig``
   dataclass (parsed from ``src/repro/engine/clock.py`` with ``ast``,
   so the list can never drift from the code) must be mentioned in at
   least one scanned document.  Adding a knob without documenting it
   fails the build.

3. **No stale knob rows** -- the reverse: every row of the README's
   "Engine knobs" table must name an ``EngineConfig`` field, so deleting
   a knob without deleting its row fails the build too.

4. **Dotted names resolve** -- every ``repro.…`` name (prose and code
   blocks alike) must be a module or package under ``src/``, optionally
   followed by a top-level name bound in that module (a ``def``,
   ``class``, assignment or import), and, when that name is a class,
   by names bound in the class body.  Modules are parsed with ``ast``,
   never imported, so deleting a module or function the docs still
   name fails the build.

    python tools/check_docs.py [--repo-root PATH]

Exit 0 when clean; exit 1 listing every problem (never stops at the
first, so one CI run shows the full repair list).
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import re
import sys

#: ``[text](target)`` inline links; images (``![alt](...)``) included,
#: since a broken image path is just as dead.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

_FENCE = re.compile(r"^(```|~~~)")

#: A knob-table row: the first cell is the knob's name in backticks.
_KNOB_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|")

#: GitHub's anchor slugger keeps word characters, spaces, and hyphens.
_SLUG_STRIP = re.compile(r"[^\w\- ]", re.UNICODE)

#: Markdown emphasis/code markers stripped from heading text before
#: slugging (GitHub slugs the *rendered* text, so ````code```` spans
#: contribute their content, not their backticks).
_MD_MARKUP = re.compile(r"[`*]|\[([^\]]*)\]\([^)]*\)")


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """One heading's anchor, deduplicated against earlier *seen* slugs."""
    text = _MD_MARKUP.sub(lambda m: m.group(1) or "", heading)
    slug = _SLUG_STRIP.sub("", text.lower()).replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def strip_code_blocks(lines: list[str]) -> list[str]:
    """Blank out fenced code blocks (their ``#`` lines are not headings
    and their bracket syntax is not links)."""
    out, fenced = [], False
    for line in lines:
        if _FENCE.match(line.strip()):
            fenced = not fenced
            out.append("")
        else:
            out.append("" if fenced else line)
    return out


def heading_anchors(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        lines = strip_code_blocks(fh.read().splitlines())
    seen: dict[str, int] = {}
    return {
        github_slug(m.group(2), seen)
        for line in lines
        if (m := _HEADING.match(line))
    }


def check_links(md_files: list[str], repo_root: str) -> list[str]:
    problems = []
    anchors = {os.path.abspath(p): heading_anchors(p) for p in md_files}
    for path in md_files:
        with open(path, encoding="utf-8") as fh:
            lines = strip_code_blocks(fh.read().splitlines())
        rel = os.path.relpath(path, repo_root)
        for lineno, line in enumerate(lines, 1):
            for target in _LINK.findall(line):
                if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # scheme
                    continue
                dest, _, fragment = target.partition("#")
                if dest:
                    dest_path = os.path.abspath(
                        os.path.join(os.path.dirname(path), dest)
                    )
                    if not os.path.exists(dest_path):
                        problems.append(
                            f"{rel}:{lineno}: broken link {target!r} "
                            f"(no such file {dest!r})"
                        )
                        continue
                else:  # bare "#anchor" -> this file
                    dest_path = os.path.abspath(path)
                if not fragment:
                    continue
                if not dest_path.endswith(".md"):
                    continue  # anchors into non-markdown: not ours to judge
                if dest_path not in anchors:
                    anchors[dest_path] = heading_anchors(dest_path)
                if fragment not in anchors[dest_path]:
                    problems.append(
                        f"{rel}:{lineno}: broken anchor {target!r} "
                        f"(no heading slugs to #{fragment} in "
                        f"{os.path.relpath(dest_path, repo_root)})"
                    )
    return problems


def engine_config_fields(clock_py: str) -> list[str]:
    """EngineConfig's field names, straight from the dataclass source."""
    with open(clock_py, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=clock_py)
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "EngineConfig":
            return [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
    raise SystemExit(f"no EngineConfig class found in {clock_py}")


def readme_knob_rows(readme: str) -> list[tuple[int, str]]:
    """``(line number, knob name)`` for every row of the table(s) under
    the README heading that starts with "Engine knobs"."""
    with open(readme, encoding="utf-8") as fh:
        lines = strip_code_blocks(fh.read().splitlines())
    rows, in_section = [], False
    for lineno, line in enumerate(lines, 1):
        if heading := _HEADING.match(line):
            in_section = heading.group(2).lower().startswith("engine knobs")
        elif in_section and (row := _KNOB_ROW.match(line)):
            rows.append((lineno, row.group(1)))
    return rows


def check_knob_coverage(md_files: list[str], repo_root: str) -> list[str]:
    corpus = ""
    for path in md_files:
        with open(path, encoding="utf-8") as fh:
            corpus += fh.read() + "\n"
    clock_py = os.path.join(repo_root, "src", "repro", "engine", "clock.py")
    fields = engine_config_fields(clock_py)
    problems = []
    for name in fields:
        if not re.search(rf"\b{re.escape(name)}\b", corpus):
            problems.append(
                f"EngineConfig.{name} is not mentioned in README.md or "
                "docs/ -- document the knob (the README table is the "
                "usual home)"
            )
    readme = os.path.join(repo_root, "README.md")
    for lineno, name in readme_knob_rows(readme):
        if name not in fields:
            problems.append(
                f"README.md:{lineno}: knob table row `{name}` names no "
                "EngineConfig field -- delete the row with the knob"
            )
    return problems


#: A dotted name rooted at the package.
_REPRO_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _module_path(src: str, parts: list[str]) -> str | None:
    base = os.path.join(src, *parts)
    for path in (os.path.join(base, "__init__.py"), base + ".py"):
        if os.path.isfile(path):
            return path
    return None


def _bound(body: list[ast.stmt], name: str) -> ast.stmt | None:
    """The statement of *body* binding *name*, ``None`` if none does."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        if name in names:
            return node
    return None


def resolves(dotted: str, src: str) -> bool:
    """Whether *dotted* names a module under *src* (the longest prefix
    that is one) plus names bound in it -- through classes defined there."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        path = _module_path(src, parts[:cut])
        if path is not None:
            break
    else:
        return False
    rest = parts[cut:]
    if not rest:
        return True
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read(), filename=path).body
    for name in rest:
        node = _bound(body, name)
        if node is None:
            return False
        if not isinstance(node, ast.ClassDef):
            return True  # attributes of other values are not checked
        body = node.body
    return True


def check_dotted_names(md_files: list[str], repo_root: str) -> list[str]:
    src = os.path.join(repo_root, "src")
    problems = []
    for path in md_files:
        rel = os.path.relpath(path, repo_root)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                for name in _REPRO_NAME.findall(line):
                    if not resolves(name, src):
                        problems.append(
                            f"{rel}:{lineno}: `{name}` names no module "
                            "under src/, or nothing bound in it"
                        )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repo-root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of tools/)",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.repo_root)

    md_files = sorted(
        [os.path.join(root, "README.md")]
        + glob.glob(os.path.join(root, "docs", "**", "*.md"), recursive=True)
    )
    missing = [p for p in md_files if not os.path.exists(p)]
    if missing:
        for path in missing:
            print(f"ERROR: expected document missing: {path}")
        return 1

    problems = (
        check_links(md_files, root)
        + check_knob_coverage(md_files, root)
        + check_dotted_names(md_files, root)
    )
    for problem in problems:
        prefix = (
            "::error::" if os.environ.get("GITHUB_ACTIONS") == "true"
            else "ERROR: "
        )
        print(f"{prefix}{problem}")
    if problems:
        return 1
    print(
        f"docs ok: {len(md_files)} files, links and anchors resolve, "
        "every EngineConfig field documented, no stale knob rows, "
        "every repro.… name resolves"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
