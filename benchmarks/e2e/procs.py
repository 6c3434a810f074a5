"""Child processes of the benchmark: timed CLI samples and the daemon.

Every process is started in its own session so that it and anything it
forks can be killed as one process group, and every one is reaped
before the function that started it returns, on every exit path.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import traffic

#: Longest a CLI sample may run; the slowest input takes about 7 s.
SAMPLE_TIMEOUT = 60.0


@dataclass
class Context:
    """Where the program lives and where a run may write."""

    root: Path
    work: Path

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(self.work)
        # The mapper's tie-breaks follow set iteration order, so its
        # output (9sym's BLIF, for one) changes with the string hash
        # seed.  A fixed seed makes every sample of an input comparable.
        env["PYTHONHASHSEED"] = "0"
        return env


@dataclass
class Sample:
    """One finished child: wall time from spawn to exit, peak RSS, output."""

    wall: float
    rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_sample(ctx: Context, argv: List[str], python_flags: List[str] = ()) -> Sample:
    """Run ``python [flags] argv`` to completion and time it.

    A child still running after :data:`SAMPLE_TIMEOUT` seconds is killed
    and comes back with a negative return code, so a hung program fails
    its sample instead of stalling the run.
    """
    out_path, err_path = ctx.work / "child.out", ctx.work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *python_flags, *argv],
            cwd=ctx.root, env=ctx.env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        watchdog = threading.Timer(SAMPLE_TIMEOUT, _kill_group, [proc])
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc)  # nothing it forked may outlive the sample
    return Sample(
        wall=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def _vmhwm_mb(pid: int) -> float:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _children(pid: int) -> List[int]:
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry.name))
    return kids


class Daemon:
    """One ``repro serve --jobs 2`` on a fresh store, owned by this object."""

    def __init__(self, ctx: Context, tag: str):
        self.store = ctx.work / f"store-{tag}.db"
        self.info = ctx.work / f"service-{tag}.json"
        for stale in (self.store, self.info):
            stale.unlink(missing_ok=True)
        self.log = open(ctx.work / f"daemon-{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(self.store),
             "--info", str(self.info), "--jobs", "2", "--quiet"],
            cwd=ctx.root, env=ctx.env, stdout=self.log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self.host: Optional[str] = None
        self.port = 0

    def wait_ready(self, warmup_blif: str, timeout: float = 20.0) -> None:
        """Block until the endpoint is published, ``ping`` answers and one
        warm-up map (which forks the lazy pool) has returned."""
        deadline = time.monotonic() + timeout
        while not self.info.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode} before serving")
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never published its endpoint")
            time.sleep(0.002)
        endpoint = json.loads(self.info.read_text())
        self.host, self.port = endpoint["host"], int(endpoint["port"])
        if self.call({"op": "ping"}).get("type") != "pong":
            raise RuntimeError("daemon did not answer ping")
        reply = self.call({"op": "map", "flow": "hyde", "k": 5, "blif": warmup_blif})
        if reply.get("type") != "result":
            raise RuntimeError(f"warm-up map failed: {reply}")

    def call(self, payload: Dict[str, object], timeout: float = traffic.REQUEST_TIMEOUT) -> Dict[str, object]:
        return traffic.call(self.host, self.port, payload, timeout)

    def peak_rss_mb(self) -> float:
        """Largest VmHWM across the daemon and its pool workers."""
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return max(_vmhwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """``shutdown`` op first, then SIGKILL to the whole process group."""
        try:
            if self.host is not None and self.proc.poll() is None:
                self.call({"op": "shutdown"}, timeout=5.0)
                self.proc.wait(timeout=15.0)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            pass
        finally:
            _kill_group(self.proc)
            self.proc.wait()
            self.log.close()
            _wait_group_gone(self.proc.pid)


def _wait_group_gone(pgid: int, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
