"""Lint: no call in the runtime or the daemon waits without a deadline.

A ``.recv()``, ``.recv_bytes()``, ``.join()``, ``.get()``, ``.wait()``
or ``.acquire()`` with no arguments under ``src/repro/sre/`` or
``src/repro/serve/`` waits forever if its peer never answers. Each one
must pass a timeout, or say on its line why it cannot block forever with
a ``# bounded: <reason>`` comment.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
_BLOCKING = {"recv", "recv_bytes", "join", "get", "wait", "acquire"}
_MARK = "# bounded:"


def unbounded_calls(source: str) -> list[tuple[int, str]]:
    """``(line, call)`` of every blocking call in ``source`` that passes
    no timeout and carries no ``# bounded: <reason>`` comment."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _BLOCKING
                and not node.args
                and not any(k.arg == "timeout" for k in node.keywords)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if not any(line.partition(_MARK)[2].strip() for line in span):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


@pytest.mark.parametrize("package", ["sre", "serve"])
def test_every_blocking_call_is_bounded(package):
    offenders = [f"{path.relative_to(SRC)}:{line}: {call}"
                 for path in sorted((SRC / package).rglob("*.py"))
                 for line, call in unbounded_calls(path.read_text())]
    assert not offenders, (
        "pass a timeout, or add '# bounded: <reason>' on the line:\n  "
        + "\n  ".join(offenders))


def test_lint_flags_bare_calls_and_accepts_timeouts_and_reasons():
    source = "\n".join([
        "q.get()",
        "q.get(timeout=1.0)",
        "ev.wait(0.5)",
        "t.join()  # bounded: the thread exits on stop",
        "conn.recv_bytes()",
        "q.get(block=True)",
        "lock.acquire()  # bounded:",
        "d.get('key')",
    ])
    assert [line for line, _ in unbounded_calls(source)] == [1, 5, 6, 7]
