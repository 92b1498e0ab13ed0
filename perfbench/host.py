"""Host facts and child processes: provenance, memory, probes, servers.

Every child runs from the repository root with ``src`` on its import
path, the DSP backend pinned to ``numpy`` and ``TMPDIR`` pointed inside
the ``.perfbench`` work directory, so the benchmark reads and writes
nothing outside the repository.  Each child is started in its own session;
:meth:`ServerProcess.stop` and :func:`run_probe` wait until every
process they started has ended.
"""

from __future__ import annotations

import glob
import os
import platform
import queue
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "BACKEND",
    "ROOT",
    "WORK_DIR",
    "ServerProcess",
    "child_env",
    "peak_rss_mb",
    "process_tree",
    "provenance",
    "run_probe",
    "self_peak_rss_mb",
    "work_tmpdir",
]

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench"
BACKEND = "numpy"
_BANNER = re.compile(r"serving PIANO authentication on (\S+):(\d+)")
# A unix socket path holds at most 107 bytes; the shard tier puts its
# sockets at ``$TMPDIR/repro-shards-XXXXXXXX/shard-N.sock``.
_SOCKET_PATH_ROOM = 107 - len("/repro-shards-XXXXXXXX/shard-00.sock")


def work_tmpdir() -> Path:
    """Temporary files of the benchmark and its children go here."""
    path = WORK_DIR / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    if len(str(path)) > _SOCKET_PATH_ROOM:
        raise RuntimeError(
            f"repository path too long for shard sockets under {path}"
        )
    return path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_DSP_BACKEND"] = BACKEND
    env["TMPDIR"] = str(work_tmpdir())
    env["PYTHONUNBUFFERED"] = "1"
    return env


def provenance(seed: int, backend_name: str) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dsp_backend": backend_name,
        "seed": seed,
        "platform": sys.platform,
    }


def self_peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        for path in glob.glob(f"/proc/{current}/task/*/children"):
            try:
                with open(path) as handle:
                    pending.extend(int(child) for child in handle.read().split())
            except OSError:
                continue
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def _reap(pids: list[int], timeout_s: float) -> None:
    """Wait for ``pids`` to end; kill what is left after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in pids:
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5.0
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_probe(args: list[str], timeout_s: float = 120.0) -> tuple[float, str]:
    """Run ``python3 perfbench/probe.py ARGS``; time it to its ready line.

    Returns the seconds from starting the interpreter to the child's
    first stdout line, and that line.
    """
    command = [sys.executable, str(ROOT / "perfbench" / "probe.py"), *args]
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        line = process.stdout.readline()
        ready_s = time.perf_counter() - started
        process.stdout.read()
        code = process.wait(timeout=timeout_s)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"probe {args} failed with exit code {code}")
    return ready_s, line.strip()


class ServerProcess:
    """``python -m repro serve --workers N`` on an ephemeral port."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader: threading.Thread | None = None

    def start(self, timeout_s: float = 90.0) -> float:
        """Spawn and wait until every worker accepts; returns seconds."""
        command = [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(self.workers),
            "--port", "0",
            "--dsp-backend", BACKEND,
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(
            target=self._read_stderr, args=(self.process.stderr,), daemon=True
        )
        self._reader.start()
        deadline = started + timeout_s
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.perf_counter(), 0.01))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    f"repro serve --workers {self.workers} did not become ready"
                )
            match = _BANNER.search(line)
            if match:
                self.port = int(match.group(2))
                return time.perf_counter() - started

    def _read_stderr(self, stream) -> None:
        for line in stream:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """Largest ``VmHWM`` over the server and its worker processes."""
        if self.process is None:
            return 0.0
        return max(
            (peak_rss_mb(pid) for pid in process_tree(self.process.pid)),
            default=0.0,
        )

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain (SIGINT) and wait for the server and every worker to end."""
        process = self.process
        if process is None:
            return
        tree = process_tree(process.pid)
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        _reap(tree, timeout_s=10.0)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        process.stderr.close()
        self.process = None
