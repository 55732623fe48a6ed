#!/usr/bin/env python
"""Check the repository's Markdown links.

Walks the given Markdown files (default: ``docs/*.md`` plus the
top-level ``*.md``), extracts every ``[text](target)`` link, and fails
when a *local* target does not exist relative to the file that links to
it, or when its ``#anchor`` names no heading of the target Markdown file
(of the linking file itself for a bare ``#anchor``).  Anchors follow
GitHub's slugs: the heading lowercased, every character other than a
letter, digit, space, ``-`` or ``_`` dropped, spaces turned into ``-``.
``http(s)``/``mailto`` links are not fetched — only noted — so the
check is fast and deterministic for CI:

    python scripts/check_links.py            # default file set
    python scripts/check_links.py docs/*.md  # explicit set
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — target captured up to the closing parenthesis.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
_HEADING = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t]*$", re.MULTILINE)


def _prose(path: Path) -> str:
    # Strip fenced code blocks: their parentheses are not links and
    # their ``#`` lines are not headings.
    return re.sub(r"```.*?```", "", path.read_text(), flags=re.DOTALL)


def _targets(path: Path) -> List[str]:
    return _LINK.findall(_prose(path))


def _anchors(path: Path) -> Set[str]:
    """GitHub's anchors for the file's headings."""
    return {
        re.sub(r"[^\w\- ]", "", heading.lower()).replace(" ", "-")
        for heading in _HEADING.findall(_prose(path))
    }


def check_links(paths: Iterable[Path]) -> Tuple[int, List[str]]:
    """Check every file; returns (links checked, broken-link messages)."""
    checked = 0
    broken: List[str] = []
    for path in paths:
        shown = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for target in _targets(path):
            checked += 1
            if target.startswith(_EXTERNAL):
                continue
            local, _, anchor = target.partition("#")
            resolved = (path.parent / local).resolve() if local else path
            if not resolved.exists():
                broken.append(f"{shown}: broken link -> {target}")
            elif (anchor and resolved.suffix == ".md"
                    and anchor not in _anchors(resolved)):
                broken.append(f"{shown}: broken anchor -> {target}")
    return checked, broken


def main(argv: List[str]) -> int:
    if argv:
        paths = [Path(arg).resolve() for arg in argv]
    else:
        paths = sorted((REPO / "docs").glob("*.md")) + sorted(
            REPO.glob("*.md")
        )
    checked, broken = check_links(paths)
    for message in broken:
        print(message, file=sys.stderr)
    print(f"checked {checked} links in {len(paths)} files, "
          f"{len(broken)} broken")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
