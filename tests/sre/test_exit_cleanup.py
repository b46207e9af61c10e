"""A program that exits mid-run leaves no worker process behind.

When the interpreter exits while a :class:`ProcessExecutor` still has
payloads in flight, multiprocessing's exit hook terminates the daemonic
workers. The coordinator threads are still running and see those deaths;
read as crashes, they used to fork replacement workers that outlived the
program (reparented to init, blocked on a pipe nobody would close). The
supervisor now learns of the exit first, from its own ``atexit`` hook,
and treats a worker lost while closing as a clean stop.

SIGTERM's default action runs no exit hook at all, so nothing terminates
the workers: each one notices, between batches, that its coordinator is
gone (it was reparented) and exits, and the shared-memory resource
tracker follows once no process holds its pipe.

Each case runs a bare runtime in a child process in its own session, so
every process it forks — workers, replacements, the shared-memory
resource tracker — can be found by session id after it exits.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

pytestmark = [pytest.mark.procs, pytest.mark.slow]

SRC = Path(__file__).resolve().parents[2] / "src"

#: 40 quarter-second naps on 2 workers: the exit lands 1 s into a ~5 s
#: run, with payloads in both pipes.
SCRIPT = textwrap.dedent("""
    import sys
    import time
    from functools import partial

    from repro.sre.executor_procs import ProcessExecutor
    from repro.sre.runtime import Runtime
    from repro.sre.task import Task

    rt = Runtime()
    ex = ProcessExecutor(rt, workers=2)
    for i in range(40):
        rt.add_task(Task(f"nap:{i}", partial(time.sleep, 0.25)))
    ex.start()
    ex.close_input()
    time.sleep(1.0)
    if sys.argv[1] == "sigterm":
        with open(sys.argv[2], "w") as fh:
            fh.write("signal me")
        time.sleep(60)
    if sys.argv[1] == "exit":
        raise SystemExit(1)
    raise RuntimeError("uncaught")
""")


def _session_members(sid: int) -> list[int]:
    """Live pids whose session id is ``sid`` (Linux ``/proc``)."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            members.append(int(name))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="finds descendants through /proc")
@pytest.mark.parametrize("how", ["exit", "raise", "sigterm"])
def test_exit_mid_run_leaves_no_process_behind(tmp_path, how):
    script = tmp_path / "exit_mid_run.py"
    script.write_text(SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # stderr goes to a file: a surviving worker holding an inherited pipe
    # would stall a reader until the test's own timeout.
    stderr = tmp_path / "stderr.txt"
    ready = tmp_path / "ready"
    with open(stderr, "wb") as err_fh:
        child = subprocess.Popen(
            [sys.executable, str(script), how, str(ready)], env=env,
            start_new_session=True, stderr=err_fh, stdout=subprocess.DEVNULL)
    survivors: list[int] = []
    try:
        if how == "sigterm":
            # The script writes ``ready`` once its payloads are in flight,
            # then waits to be signalled.
            deadline = time.monotonic() + 30.0
            while not ready.exists():
                assert child.poll() is None, stderr.read_text()
                assert time.monotonic() < deadline, stderr.read_text()
                time.sleep(0.05)
            child.send_signal(signal.SIGTERM)
        child.wait(timeout=60)
        err = stderr.read_text()
        assert child.returncode == (-signal.SIGTERM if how == "sigterm"
                                    else 1), err
        if how == "raise":
            assert "RuntimeError: uncaught" in err
        deadline = time.monotonic() + 10.0
        survivors = _session_members(child.pid)
        while survivors and time.monotonic() < deadline:
            time.sleep(0.1)
            survivors = _session_members(child.pid)
        assert not survivors, f"processes outlived the program: {survivors}"
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for pid in survivors or _session_members(child.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
