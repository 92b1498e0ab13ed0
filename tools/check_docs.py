"""Docs cross-reference checker: no dangling symbols, flags, or links.

Scans ``README.md`` and every ``docs/*.md`` for three kinds of
references and fails (exit 1, one line per problem) when any of them
does not resolve against the actual codebase:

* **Python symbols** — every dotted ``repro.…`` name appearing in inline
  code or fenced code blocks is imported (module prefix) and resolved
  attribute by attribute (``repro.sim.pipeline.detect_batch`` must
  exist, not merely parse);
* **CLI flags and subcommands** — every ``--flag`` on a ``python -m
  repro …`` line inside a fenced shell block, and every inline code span
  that is just a flag (optionally with a metavar, e.g. ``--batch N``),
  must be registered on the argparse parser (`repro.cli.build_parser`),
  and the subcommand must exist;
* **Relative links** — every ``[text](path)`` markdown link that is not
  an URL or anchor must point at an existing file.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py [--verbose]
"""

from __future__ import annotations

import argparse
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SYMBOL_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: An inline code span that is exactly one flag, optionally with a
#: placeholder metavar ("--batch N", "--cache-dir DIR").
INLINE_FLAG_RE = re.compile(r"^(--[a-z][a-z0-9-]*)(?:[= ][A-Za-z0-9_./-]+)?$")


def split_markdown(text: str) -> tuple[list[str], list[str]]:
    """Split a document into (prose lines, code-block lines)."""
    prose: list[str] = []
    code: list[str] = []
    in_code = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_code = not in_code
            continue
        (code if in_code else prose).append(line)
    return prose, code


def collect_symbols(text: str) -> set[str]:
    """Every dotted repro.* reference in code blocks or inline code."""
    symbols: set[str] = set()
    prose, code = split_markdown(text)
    for line in code:
        symbols.update(SYMBOL_RE.findall(line))
    for line in prose:
        for span in INLINE_CODE_RE.findall(line):
            symbols.update(SYMBOL_RE.findall(span))
    return symbols


def resolve_symbol(dotted: str) -> str | None:
    """None when ``dotted`` resolves; else a description of the failure."""
    parts = dotted.split(".")
    module = None
    consumed = 0
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        try:
            module = importlib.import_module(candidate)
            consumed = end
            break
        except ImportError:
            continue
        except Exception as error:  # pragma: no cover - broken module
            return f"importing {candidate} raised {error!r}"
    if module is None:
        return "no importable module prefix"
    obj = module
    for attribute in parts[consumed:]:
        try:
            obj = getattr(obj, attribute)
        except AttributeError:
            return (
                f"{type(obj).__name__} "
                f"{'.'.join(parts[:consumed])!r} has no attribute "
                f"{attribute!r}"
            )
        consumed += 1
    return None


def collect_cli_flags(text: str) -> tuple[set[str], set[str]]:
    """(flags, subcommands) referenced for the ``repro`` CLI."""
    flags: set[str] = set()
    commands: set[str] = set()
    prose, code = split_markdown(text)
    for line in code:
        if "-m repro" not in line and "piano-repro" not in line:
            continue
        tail = re.split(r"-m repro|piano-repro", line, maxsplit=1)[1]
        flags.update(FLAG_RE.findall(tail))
        first = tail.split()
        if first and not first[0].startswith("-"):
            commands.add(first[0])
    for line in prose:
        for span in INLINE_CODE_RE.findall(line):
            match = INLINE_FLAG_RE.match(span.strip())
            if match:
                flags.add(match.group(1))
    return flags, commands


def registered_cli_surface() -> tuple[set[str], set[str]]:
    """(option strings, subcommand names) of the actual CLI parser."""
    from repro.cli import build_parser

    parser = build_parser()
    flags: set[str] = set()
    commands: set[str] = set()
    parsers = [parser]
    while parsers:
        current = parsers.pop()
        for action in current._actions:
            flags.update(action.option_strings)
            if hasattr(action, "choices") and isinstance(
                action.choices, dict
            ):
                for name, sub in action.choices.items():
                    commands.add(name)
                    if isinstance(sub, argparse.ArgumentParser):
                        parsers.append(sub)
    return flags, commands


def collect_links(text: str) -> set[str]:
    links: set[str] = set()
    prose, _ = split_markdown(text)
    for line in prose:
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            links.add(target.split("#")[0])
    return links


def check_document(path: Path, verbose: bool) -> list[str]:
    text = path.read_text(encoding="utf-8")
    label = path.relative_to(REPO_ROOT)
    problems: list[str] = []

    symbols = collect_symbols(text)
    for symbol in sorted(symbols):
        failure = resolve_symbol(symbol)
        if failure is not None:
            problems.append(f"{label}: dangling symbol {symbol!r} ({failure})")

    flags, commands = collect_cli_flags(text)
    known_flags, known_commands = registered_cli_surface()
    for flag in sorted(flags - known_flags):
        problems.append(f"{label}: unknown CLI flag {flag!r}")
    for command in sorted(commands - known_commands):
        problems.append(f"{label}: unknown CLI subcommand {command!r}")

    links = collect_links(text)
    for link in sorted(links):
        if link and not (path.parent / link).exists() and not (
            REPO_ROOT / link
        ).exists():
            problems.append(f"{label}: broken link {link!r}")

    if verbose:
        print(
            f"{label}: {len(symbols)} symbols, {len(flags)} flags, "
            f"{len(commands)} subcommands, {len(links)} links",
            file=sys.stderr,
        )
    return problems


def run_checks(verbose: bool = False) -> list[str]:
    documents = [REPO_ROOT / "README.md"]
    documents.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    problems: list[str] = []
    for path in documents:
        problems.extend(check_document(path, verbose))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--verbose", action="store_true", help="per-document reference counts"
    )
    args = parser.parse_args(argv)
    problems = run_checks(verbose=args.verbose)
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} dangling reference(s)", file=sys.stderr)
        return 1
    print("docs check: all references resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
