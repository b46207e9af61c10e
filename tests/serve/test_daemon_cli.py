"""The daemon contract scripts and the benchmark rely on.

``python -m repro.cli worker-pool --max-workers N --port-file F`` writes
its port, serves dist runs, and exits 0 on SIGTERM leaving no process
behind. ``python -m repro.cli serve --port-file F`` writes its port and
stops on ``repro jobs --port-file F --shutdown``. Each daemon runs in its
own session, so everything it forks can be found by session id after it
exits. Every wait has a deadline, and survivors are killed on the way
out.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.sre.test_exit_cleanup import _session_members

pytestmark = [
    pytest.mark.procs, pytest.mark.slow,
    pytest.mark.skipif(not os.path.isdir("/proc/self"),
                       reason="finds descendants through /proc"),
]

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def _cli(*argv: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          env=ENV, capture_output=True, text=True,
                          timeout=timeout)


def _start_daemon(tmp_path: Path, *argv: str) -> tuple[subprocess.Popen, str]:
    """Start ``repro <argv> --port-file F`` in its own session; return it
    and the port it wrote."""
    port_file = tmp_path / "daemon.port"
    # output goes to files: a surviving child holding an inherited pipe
    # would stall a reader until the test's own timeout.
    with open(tmp_path / "daemon.out", "wb") as out:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv,
             "--port-file", str(port_file)],
            env=ENV, start_new_session=True, stdout=out,
            stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while not (port_file.exists() and port_file.read_text().strip()):
        assert daemon.poll() is None, (tmp_path / "daemon.out").read_text()
        assert time.monotonic() < deadline, "no port file within 30 s"
        time.sleep(0.1)
    return daemon, port_file.read_text().strip()


def _assert_exits_clean(daemon: subprocess.Popen, log: Path) -> None:
    """The daemon exits 0 within a deadline and leaves no process behind."""
    assert daemon.wait(timeout=60) == 0, log.read_text()
    deadline = time.monotonic() + 10.0
    survivors = _session_members(daemon.pid)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.1)
        survivors = _session_members(daemon.pid)
    assert not survivors, f"processes outlived the daemon: {survivors}"


def _kill_session(daemon: subprocess.Popen) -> None:
    if daemon.poll() is None:
        daemon.kill()
        daemon.wait(timeout=30)
    for pid in _session_members(daemon.pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def test_worker_pool_serves_a_run_and_stops_on_sigterm(tmp_path):
    daemon, port = _start_daemon(tmp_path, "worker-pool", "--max-workers",
                                 "2")
    try:
        run = _cli("run", "--blocks", "16", "--executor", "dist",
                   "--workers", "2", "--pool", f"127.0.0.1:{port}")
        assert run.returncode == 0, run.stdout + run.stderr
        assert "round-trip : ok" in run.stdout
        daemon.send_signal(signal.SIGTERM)
        _assert_exits_clean(daemon, tmp_path / "daemon.out")
        assert "repro worker-pool stopped" in \
            (tmp_path / "daemon.out").read_text()
    finally:
        _kill_session(daemon)


def test_serve_stops_on_the_shutdown_op(tmp_path):
    daemon, _port = _start_daemon(tmp_path, "serve")
    try:
        port_file = str(tmp_path / "daemon.port")
        jobs = _cli("jobs", "--port-file", port_file, "--shutdown",
                    timeout=60.0)
        assert jobs.returncode == 0, jobs.stdout + jobs.stderr
        assert "shutdown requested" in jobs.stdout
        _assert_exits_clean(daemon, tmp_path / "daemon.out")
        assert "repro serve stopped" in (tmp_path / "daemon.out").read_text()
    finally:
        _kill_session(daemon)
