"""Run the real sosctl binary as a child process and measure it.

Every run reports the child's wall time (spawn to exit) and the child's
own peak RSS: VmHWM from its /proc/PID/status, read while it runs and
after its last output. (The rusage of a reaped child is no use here: its
high-water mark starts from the harness's own RSS, inherited at fork.)
"""

import fcntl
import io
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field

PIPE_BYTES = 1 << 20
CHILD_TIMEOUT_S = 150
HWM_EVERY = 64  # serve: read VmHWM after this many replies
SERVE_SHARDS = 2


@dataclass
class Run:
    wall_s: float
    rss_kb: int
    code: int
    out: bytes = b""
    replies: list = field(default_factory=list)
    latency_s: dict = field(default_factory=dict)  # serve: request kind -> seconds
    stderr: str = ""


def _watchdog(proc):
    """Kill the child if it outlives CHILD_TIMEOUT_S; its pipes then close."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def vmhwm_kb(pid):
    """The process's peak RSS so far, or 0 once it has exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reap(proc, t0, stderr_path, timer):
    proc.wait()
    timer.cancel()
    wall = time.perf_counter() - t0
    with open(stderr_path, errors="replace") as f:
        err = f.read()
    return wall, proc.returncode, err


def batch(sosctl, corpus, cwd, jobs=None, extra=()):
    """`sosctl batch --stream CORPUS [-j JOBS]`, stdout read through a pipe.

    The reader sleeps between reads that leave the pipe nearly empty, so
    the harness costs the child almost no CPU while it runs."""
    argv = [sosctl, "batch", "--stream", corpus, *extra]
    if jobs is not None:
        argv += ["-j", str(jobs)]
    stderr_path = os.path.join(cwd, "child.stderr")
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
    timer = _watchdog(proc)
    fd = proc.stdout.fileno()
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except OSError:
        pass  # a smaller pipe only makes the child wait for the reader more often
    chunks, rss = [], 0
    while True:
        data = os.read(fd, PIPE_BYTES)
        if not data:
            break
        chunks.append(data)
        rss = max(rss, vmhwm_kb(proc.pid))
        if len(data) < PIPE_BYTES // 16:
            time.sleep(0.002)
    proc.stdout.close()
    wall, code, err = _reap(proc, t0, stderr_path, timer)
    out = b"".join(chunks)
    return Run(wall, rss, code, out=out, stderr=err)


def first_line(argv, cwd, stdin=b""):
    """(seconds from spawn to the first output line, that line) for a child
    that exits once its input is done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = _watchdog(proc)
    try:
        proc.stdin.write(stdin)
        proc.stdin.close()
    except BrokenPipeError:
        pass  # the child died early; its (missing) first line tells
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    proc.stdout.read()
    proc.stdout.close()
    proc.wait()
    timer.cancel()
    return setup, line.decode(errors="replace").rstrip("\n")


def serve_argv(sosctl, wal):
    return [sosctl, "serve", "--checkpoint", wal, "--shards", str(SERVE_SHARDS)]


def serve(sosctl, requests, cwd, extra=()):
    """`sosctl serve --checkpoint wal --shards SERVE_SHARDS` (a fresh WAL:
    the server truncates its shards) driven by one client in a closed loop:
    send a request line, wait for its reply, send the next."""
    argv = [*serve_argv(sosctl, "wal"), *extra]
    stderr_path = os.path.join(cwd, "child.stderr")
    latency = {}
    replies = []
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, bufsize=0
        )
    timer = _watchdog(proc)
    send = proc.stdin
    recv = io.BufferedReader(proc.stdout, buffer_size=1 << 16)
    rss = 0
    for line in requests:
        sent = time.perf_counter()
        try:
            send.write(line.encode() + b"\n")
        except BrokenPipeError:
            break
        reply = recv.readline()
        got = time.perf_counter()
        if not reply:
            break
        replies.append(reply.decode().rstrip("\n"))
        latency.setdefault(line.split(" ", 1)[0], []).append(got - sent)
        if len(replies) % HWM_EVERY == 0:
            rss = max(rss, vmhwm_kb(proc.pid))
    rss = max(rss, vmhwm_kb(proc.pid))
    try:
        send.close()
    except BrokenPipeError:
        pass
    recv.read()
    recv.close()
    wall, code, err = _reap(proc, t0, stderr_path, timer)
    return Run(wall, rss, code, replies=replies, latency_s=latency, stderr=err)
