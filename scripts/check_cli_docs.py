#!/usr/bin/env python
"""Check documented CLI invocations against the real argparse tree.

Walks the Markdown files (default: ``docs/*.md`` plus the top-level
guides in ``TOP_LEVEL_GUIDES``), extracts every ``repro <command> ...``
/ ``python -m repro <command> ...`` invocation — fenced code blocks
*and* inline code spans — and validates it against
:func:`repro.cli.make_parser`:

- the subcommand must exist (nested subcommands like ``metrics dump``
  are followed one level down);
- every ``--flag`` (with any ``=value`` stripped) must be a real option
  of that subcommand;
- the value documented after an option that declares argparse
  ``choices`` must be one of them — each alternative of ``a|b`` is
  checked, and ``<...>`` placeholders are skipped.

This is the documentation analogue of the api-docs staleness check: a
renamed or removed flag (or option value) fails CI instead of silently
rotting in the docs.  Run it as::

    PYTHONPATH=src python scripts/check_cli_docs.py            # default set
    PYTHONPATH=src python scripts/check_cli_docs.py docs/*.md  # explicit set
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import make_parser  # noqa: E402

#: Top-level Markdown files that document the current CLI.
TOP_LEVEL_GUIDES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: One documented invocation: ``repro <command> <rest of line>``.
_INVOCATION = re.compile(
    r"(?:python -m repro|(?<![-\w.])repro)\s+([a-z][a-z0-9-]*)([^\n`]*)"
)
#: One ``--flag`` and the value token after it (``=value`` or `` value``;
#: empty when the next token is another flag or absent).
_FLAG = re.compile(r"(--[a-z][a-z0-9-]*)(?:(?:=|\s+)([^-\s]\S*))?")

#: Option string -> its argparse ``choices`` (None when unrestricted).
Options = Dict[str, Optional[Tuple[str, ...]]]


def _subparsers(
    parser: argparse.ArgumentParser,
) -> Dict[str, argparse.ArgumentParser]:
    """Return the parser's subcommand name -> subparser mapping."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _options(parser: argparse.ArgumentParser) -> Options:
    """Return every ``--long-option`` the parser accepts, with its choices."""
    flags: Options = {}
    for action in parser._actions:
        choices = (
            tuple(str(c) for c in action.choices) if action.choices else None
        )
        for option in action.option_strings:
            if option.startswith("--"):
                flags[option] = choices
    return flags


def build_command_table() -> Dict[str, Options]:
    """Map each CLI command path to its accepted ``--flags`` and choices.

    Nested subcommands (``metrics dump``, ``metrics diff``) appear both
    under their full path and contribute nothing to the parent's entry.

    Returns:
        ``{"exp": {"--fig": None, "--backend": ("serial", ...), ...},
        "metrics dump": {...}, ...}``.
    """
    table: Dict[str, Options] = {}
    for name, sub in _subparsers(make_parser()).items():
        nested = _subparsers(sub)
        table[name] = _options(sub)
        for nested_name, nested_sub in nested.items():
            table[f"{name} {nested_name}"] = {
                **_options(sub), **_options(nested_sub)
            }
    return table


def _invocations(text: str) -> List[Tuple[str, str]]:
    """Extract ``(command word, rest of line)`` pairs from Markdown."""
    return [
        (match.group(1), match.group(2))
        for match in _INVOCATION.finditer(text)
    ]


def _stale_values(value: str, choices: Tuple[str, ...]) -> List[str]:
    """Return the alternatives of a documented value not in ``choices``."""
    value = value.rstrip(".,;:)]'\"")
    if value.startswith("<"):
        return []  # a <placeholder>, not a literal value
    return [alt for alt in value.split("|") if alt not in choices]


def check_file(
    path: Path, table: Dict[str, Options]
) -> Tuple[int, List[str]]:
    """Validate one file's invocations; returns (checked, problems)."""
    checked = 0
    problems: List[str] = []
    rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        for command, rest in _invocations(line):
            checked += 1
            if command not in table:
                problems.append(
                    f"{rel}:{line_no}: unknown command 'repro {command}'"
                )
                continue
            target = command
            nested = rest.strip().split(" ", 1)[0] if rest.strip() else ""
            if nested and f"{command} {nested}" in table:
                target = f"{command} {nested}"
            known = table[target]
            for flag, value in _FLAG.findall(rest):
                checked += 1
                if flag not in known:
                    problems.append(
                        f"{rel}:{line_no}: 'repro {target}' has no "
                        f"option {flag}"
                    )
                    continue
                choices = known[flag]
                if choices is None or not value:
                    continue
                for stale in _stale_values(value, choices):
                    problems.append(
                        f"{rel}:{line_no}: 'repro {target} {flag}' has "
                        f"no value {stale!r} (choose from "
                        f"{', '.join(choices)})"
                    )
    return checked, problems


def main(argv: List[str]) -> int:
    """Run the check over ``argv`` paths (or the default doc set)."""
    if argv:
        paths: Iterable[Path] = [Path(arg).resolve() for arg in argv]
    else:
        # The user documentation: docs/ plus the top-level guides.  The
        # other top-level Markdown files (the change log, the roadmap of
        # not yet existing commands, change requests and paper notes)
        # document no current CLI and may quote invocations on purpose.
        paths = sorted((REPO / "docs").glob("*.md")) + [
            REPO / name for name in TOP_LEVEL_GUIDES
        ]
    table = build_command_table()
    checked = 0
    problems: List[str] = []
    file_count = 0
    for path in paths:
        file_count += 1
        file_checked, file_problems = check_file(path, table)
        checked += file_checked
        problems.extend(file_problems)
    for message in problems:
        print(message, file=sys.stderr)
    print(
        f"checked {checked} CLI references in {file_count} files, "
        f"{len(problems)} stale"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
