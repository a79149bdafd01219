"""Fork server of the ensemble service: one warm parent, one fork per job.

The scheduler calls :func:`start` once per ``Scheduler.run()`` (lazily, for
the first job that misses the cache) and :func:`submit` per attempt.  The
process they talk to imports :mod:`repro.serve.worker` (everything a job
body imports), loads the compiled Tensor kernel, and then, on one thread:

* **forks** per datagram on its control socket: ``{"job"}`` (the job
  file, which carries the job's grant) plus two descriptors -- the
  scheduler's per-job pipe and the attempt log.  The child calls
  ``setsid`` (so SIGKILLing its session sweeps the job's pool and rank
  processes and nothing else), takes the pipe as stdout and the log as
  stderr, announces ``{"event": "spawned", "pid": ...}`` and becomes
  :func:`repro.serve.worker.run_job`;
* **reaps** on SIGCHLD, writing ``{"event": "exit", "returncode": ...}`` to
  the dead job's own pipe, after everything the job wrote;
* **leaves** at EOF on the control socket (the scheduler is gone), killing
  the sessions still alive.

A job shares with the zygote what ``import`` left behind and nothing else:
the zygote never builds, solves or touches ``repro.obs`` state, so every
fork starts from the same post-import image, copy-on-write.  It runs no
Python threads and never calls BLAS (OpenBLAS tears its idle pool down in
its own pre-fork handler), so every ``fork`` is from a single thread.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
import traceback


def start(python: str) -> tuple[subprocess.Popen, socket.socket]:
    """Start a zygote under ``python``: ``(process, our control socket)``."""
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_root, env.get("PYTHONPATH")]))
    try:
        return subprocess.Popen(
            [python, "-m", "repro.serve.zygote", str(theirs.fileno())],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=env,
            pass_fds=[theirs.fileno()]), ours
    except OSError:
        ours.close()
        raise
    finally:
        theirs.close()


def submit(sock: socket.socket, job: str, log_path: str) -> int:
    """Ask for one forked job; returns the read end of its pipe."""
    request = json.dumps({"job": job}).encode()
    pipe_r, pipe_w = os.pipe()
    try:
        with open(log_path, "wb") as log_fh:
            socket.send_fds(sock, [request], [pipe_w, log_fh.fileno()])
    except OSError:
        os.close(pipe_r)
        raise
    finally:
        os.close(pipe_w)
    return pipe_r


def _become_job(worker, request: dict, out_fd: int, log_fd: int,
                inherited) -> None:
    """Child side of the fork; never returns into the zygote's loop."""
    t_fork = time.perf_counter()
    code = 1
    try:
        os.setsid()
        os.dup2(out_fd, 1)
        os.dup2(log_fd, 2)
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        # the siblings' pipes and the zygote's plumbing are not ours
        for fd in (out_fd, log_fd, *inherited):
            os.close(fd)
        worker._emit("spawned", pid=os.getpid())
        code = worker.run_job(request["job"], t_fork)
    except BaseException:  # noqa: BLE001 -- exits right below
        traceback.print_exc()
    finally:
        os._exit(code)


def _reap(live: dict[int, int]) -> None:
    """Report every exited job's return code on its pipe, then close it."""
    while live:
        pid, status = os.waitpid(-1, os.WNOHANG)
        if pid == 0:
            return
        fd = live.pop(pid)
        line = json.dumps({"event": "exit", "returncode":
                           os.waitstatus_to_exitcode(status)})
        with contextlib.suppress(OSError):   # scheduler gave up on it
            # leading newline: a job killed mid-line must not swallow this
            os.write(fd, f"\n{line}\n".encode())
        os.close(fd)


def main() -> None:
    # here, not at the top: the scheduler imports this module for its
    # client half and must not pay for the job body's imports
    from ..matfree import _ckernel
    from . import worker

    ctrl = socket.socket(fileno=int(sys.argv[1]))
    _ckernel.load()
    wake_r, wake_w = os.pipe2(os.O_NONBLOCK)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    signal.set_wakeup_fd(wake_w, warn_on_full_buffer=False)

    live: dict[int, int] = {}   # job pid -> our copy of its pipe's write end
    while True:
        ready, _, _ = select.select([ctrl, wake_r], [], [])
        if wake_r in ready:
            os.read(wake_r, 4096)
        _reap(live)
        if ctrl not in ready:
            continue
        message, fds, _, _ = socket.recv_fds(ctrl, 1 << 16, 2)
        if not message:
            break
        out_fd, log_fd = fds
        pid = os.fork()
        if pid == 0:
            _become_job(worker, json.loads(message), out_fd, log_fd,
                        (ctrl.fileno(), wake_r, wake_w, *live.values()))
        os.close(log_fd)
        live[pid] = out_fd
    for pid in live:
        with contextlib.suppress(OSError):
            os.killpg(pid, signal.SIGKILL)
    os._exit(0)


if __name__ == "__main__":
    main()
