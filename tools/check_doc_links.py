#!/usr/bin/env python
"""Check that relative Markdown links in the repo's docs resolve.

Scans every tracked ``*.md`` file for ``[text](target)`` links and verifies
that each relative target exists on disk (anchors and external URLs are
skipped; an anchor-only link like ``(#section)`` is ignored). Also scans
code spans and fenced blocks for ``repro <subcommand>`` invocations and
verifies each named subcommand is actually registered in
``repro.cli.build_parser()`` — so docs can't advertise commands the CLI
doesn't have (or lose one in a rename). For each recognised subcommand
the ``--flags`` on the same line are checked against the subparser's
registered option strings too (``repro top --serve``, ``repro trace
--spans-json`` and friends must really exist; flags on continuation
lines after a ``\\`` are not checked). The history files listed in
``tools/doc_history_files.txt`` (the append-only CHANGES.md and the
like) are exempt from the subcommand and flag check, since they name
commands and flags that a change removes; their links are still
checked. Fenced ``python`` blocks are parsed with :mod:`ast`, and
every call to a job runner (``run_huffman``, ``run_job``,
``run_filter_experiment``, ``run_kmeans_experiment``) may pass only the
runner keywords (``config`` / ``metrics`` / ``decisions`` /
``resources``) — run parameters go in a ``RunConfig``. Every
``from repro… import X`` in such a block is imported, and ``X`` must
exist, so docs cannot cite a moved or deleted name. Exits non-zero
listing every broken link / unknown subcommand / unknown flag / stale
runner call / missing import, so CI catches docs drifting from the tree
— renamed files, deleted examples, typo'd paths, stale CLI and Python
examples.

Usage::

    python tools/check_doc_links.py [root]
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys
import textwrap

# [text](target) — excluding images' srcset edge cases; good enough for
# hand-written docs. Nested parens in URLs are not used in this repo.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "chrome://")
_SKIP_DIRS = {".git", ".venv", "node_modules", "__pycache__", ".pytest_cache"}


def iter_markdown(root: pathlib.Path):
    for path in sorted(root.rglob("*.md")):
        if not _SKIP_DIRS.intersection(path.relative_to(root).parts):
            yield path


# `repro <sub>` / `python -m repro <sub>` inside code spans or fenced
# blocks. `repro.cli <sub>` covers `python -m repro.cli run` spellings.
_SUBCMD = re.compile(r"\brepro(?:\.cli)?\s+([a-z][a-z0-9_-]*)")
_INLINE_CODE = re.compile(r"`([^`]+)`")
# words that follow a bare `repro` token without being subcommands
# (python import syntax inside code spans).
_NOT_SUBCOMMANDS = {"import", "package", "module", "script"}


def known_subcommands(root: pathlib.Path) -> dict[str, set[str]]:
    """``repro.cli.build_parser()``'s subcommands and their options.

    Maps each subcommand name to its registered option strings
    (``{"--once", "--serve", ...}``). Callers that only care about the
    names can treat the mapping as a set of names.
    """
    import argparse

    sys.path.insert(0, str(root / "src"))
    try:
        from repro.cli import build_parser
        parser = build_parser()
    finally:
        sys.path.pop(0)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                name: {opt for a in sub._actions for opt in a.option_strings}
                for name, sub in action.choices.items()
            }
    raise AssertionError("repro.cli.build_parser() has no subparsers")


def _code_texts(path: pathlib.Path):
    """Yield (lineno, code_text) for fenced-block lines and inline spans."""
    in_fence = False
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            yield n, line
        else:
            for m in _INLINE_CODE.finditer(line):
                yield n, m.group(1)


#: a long option in example text; ``--flag=value`` matches just the flag.
_FLAG = re.compile(r"--[a-z][a-z0-9-]*")


def check_subcommands(
    path: pathlib.Path, known: "set[str] | dict[str, set[str]]"
) -> list[str]:
    """Flag unknown subcommands — and, when ``known`` is the mapping from
    :func:`known_subcommands`, unknown ``--flags`` for known ones."""
    flags = known if isinstance(known, dict) else None
    errors = []
    for n, text in _code_texts(path):
        matches = list(_SUBCMD.finditer(text))
        for i, m in enumerate(matches):
            name = m.group(1)
            if name in _NOT_SUBCOMMANDS:
                continue
            if name not in known:
                errors.append(
                    f"{path}:{n}: unknown `repro {name}` subcommand "
                    f"(not registered in repro.cli.build_parser())")
                continue
            if flags is None:
                continue
            # Options between this invocation and the next one (or end of
            # line); continuation lines after a backslash aren't seen.
            end = matches[i + 1].start() if i + 1 < len(matches) \
                else len(text)
            segment = text[m.end():end]
            # A shell comment or pipeline hands off to another command
            # whose flags aren't ours to validate.
            segment = re.split(r"[#|;]|&&", segment, maxsplit=1)[0]
            for fm in _FLAG.finditer(segment):
                if fm.group(0) not in flags[name]:
                    errors.append(
                        f"{path}:{n}: `repro {name}` has no "
                        f"{fm.group(0)} option")
    return errors


#: the job runners and the only keywords they take; everything else is a
#: run parameter and belongs in the RunConfig.
_RUNNERS = {"run_huffman", "run_job", "run_filter_experiment",
            "run_kmeans_experiment"}
_RUNNER_KEYWORDS = {"config", "metrics", "decisions", "resources"}


def _python_blocks(path: pathlib.Path):
    """Yield (first_lineno, source) for each fenced ``python`` block."""
    block: list[str] | None = None
    start = 0
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        fence = line.lstrip()
        if block is None:
            if fence.startswith("```") and fence[3:].strip() in ("python", "py"):
                block, start = [], n + 1
        elif fence.startswith("```"):
            yield start, textwrap.dedent("\n".join(block))
            block = None
        else:
            block.append(line)


def _missing_import(module: str, name: str) -> str | None:
    """Why ``from module import name`` fails, or None if it works."""
    try:
        mod = importlib.import_module(module)
    except ImportError as exc:
        return f"cannot import {module}: {exc}"
    if name == "*" or hasattr(mod, name):
        return None
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module} has no name {name!r}"
    return None


def _check_imports(path: pathlib.Path, start: int, tree: ast.AST) -> list[str]:
    """Flag every ``from repro… import X`` whose ``X`` does not exist."""
    errors = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module and node.module.split(".")[0] == "repro"):
            continue
        for alias in node.names:
            why = _missing_import(node.module, alias.name)
            if why:
                errors.append(f"{path}:{start + node.lineno - 1}: "
                              f"`from {node.module} import {alias.name}`: {why}")
    return errors


def check_python_blocks(path: pathlib.Path) -> list[str]:
    """Flag job-runner calls in fenced python blocks that pass run
    parameters as bare keywords (they raise ``TypeError``), and
    ``repro`` imports of names that do not exist."""
    errors = []
    for start, source in _python_blocks(path):
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            # Illustrative fragments may elide code with `...`; only a
            # block that names a runner must parse, so it can be checked.
            if any(name in source for name in _RUNNERS):
                errors.append(f"{path}:{start + (exc.lineno or 1) - 1}: "
                              f"python block calling a job runner does "
                              f"not parse: {exc.msg}")
            continue
        errors.extend(_check_imports(path, start, tree))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name not in _RUNNERS:
                continue
            bad = [kw.arg for kw in node.keywords
                   if kw.arg is not None and kw.arg not in _RUNNER_KEYWORDS]
            if bad:
                errors.append(
                    f"{path}:{start + node.lineno - 1}: {name}() takes no "
                    f"{', '.join(k + '=' for k in bad)} keyword; pass run "
                    "parameters in a RunConfig (config=RunConfig(...))")
    return errors


def _history_files() -> set[str]:
    """Names of the markdown files whose CLI examples are history, not
    documentation, as listed in ``doc_history_files.txt`` beside this
    script (one name a line, ``#`` comments)."""
    listing = pathlib.Path(__file__).with_name("doc_history_files.txt")
    names = (line.split("#", 1)[0].strip()
             for line in listing.read_text().splitlines())
    return {name for name in names if name}


_HISTORY_FILES = _history_files()


def check_markdown(
    path: pathlib.Path, known: "dict[str, set[str]] | None"
) -> list[str]:
    """Every check for one markdown file. ``known`` is
    :func:`known_subcommands`' mapping, or ``None`` to skip the CLI
    check; history files always skip it."""
    errors = check_file(path) + check_python_blocks(path)
    if known is not None and path.name not in _HISTORY_FILES:
        errors.extend(check_subcommands(path, known))
    return errors


def check_file(path: pathlib.Path) -> list[str]:
    errors = []
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_SKIP_PREFIXES) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]  # strip in-file anchors
            if not rel:
                continue
            if not (path.parent / rel).exists():
                errors.append(f"{path}:{n}: broken link -> {target}")
    return errors


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    # the python-block import check imports from this checkout's tree
    sys.path.insert(0, str(root / "src"))
    try:
        known = known_subcommands(root)
    except ImportError as exc:  # running outside the repo root
        print(f"warning: cannot import repro.cli ({exc}); "
              "skipping subcommand checks", file=sys.stderr)
        known = None
    errors = []
    n_files = 0
    for md in iter_markdown(root):
        n_files += 1
        errors.extend(check_markdown(md, known))
    for err in errors:
        print(err, file=sys.stderr)
    print(f"checked {n_files} markdown files: "
          f"{'OK' if not errors else f'{len(errors)} problem(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
