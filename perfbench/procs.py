"""Child processes whose stdout lines are read with a deadline."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

# Parallel interpreters for solo replays: one per core of a 2-core host.
REPLAY_PROCESSES = 2


class Child:
    """A ``Popen`` whose stdout is pumped into a queue by a thread, so the
    caller can wait for the next line without blocking past a deadline.
    The child gets its own session, so a stuck run can be killed whole."""

    def __init__(self, cmd, *, env, cwd=None) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            env=env,
            cwd=cwd,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def line(self, deadline: float) -> str | None:
        """Next stdout line; None at end of output.  Raises TimeoutError
        once ``deadline`` (a ``perf_counter`` instant) has passed."""
        try:
            return self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        except queue.Empty:
            raise TimeoutError("child produced no output in time") from None

    def lines(self, deadline: float) -> list[str]:
        """Every remaining stdout line, up to the end of output."""
        out = []
        while (line := self.line(deadline)) is not None:
            out.append(line)
        return out

    def wait(self, timeout: float) -> int:
        """Exit code of the child; whatever is left of its group is killed."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise TimeoutError("child did not exit in time") from None
        finally:
            self.kill()

    def kill(self) -> None:
        """Kill the child's whole process group (if anything is left of it)
        and reap the child."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._pump.join(timeout=10.0)
        self.proc.stdout.close()


def solo_replays(jobs: list[dict], env: dict, deadline: float):
    """Run ``reference.py`` over ``jobs`` in up to ``REPLAY_PROCESSES``
    parallel interpreters; returns its per-job results in job order."""
    script = str(Path(__file__).resolve().parent / "reference.py")
    parts = [
        jobs[k::REPLAY_PROCESSES] for k in range(REPLAY_PROCESSES) if jobs[k::REPLAY_PROCESSES]
    ]
    children = []
    try:
        for part in parts:
            children.append(Child([sys.executable, script, json.dumps(part)], env=env))
        outputs = []
        for child in children:
            lines = child.lines(deadline)
            code = child.wait(max(1.0, deadline - time.perf_counter()))
            if code != 0 or not lines:
                raise RuntimeError(f"reference replay exited with {code}")
            outputs.append(json.loads(lines[-1]))
    finally:
        for child in children:
            child.kill()
    results = [None] * len(jobs)
    for k, output in enumerate(outputs):
        results[k::REPLAY_PROCESSES] = output
    return results
