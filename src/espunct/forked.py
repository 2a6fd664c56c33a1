"""Jobs run in forked child processes that pipe their results back.

The CLI's chunked corpus commands and the experiment grid's phase groups
both run through run_forked.  A child inherits everything the job needs
at fork, so only results cross the pipe, pickled; what the pipe cannot
hold waits in the child until the parent reads it.  Each child checks
four times a second that the process that forked it lives and exits
once it is gone, so a killed parent leaves no worker writing files.
A forked child holds only the thread that forked it, so callers fork
from a process that runs no other thread.
"""

from __future__ import annotations

import os
import select
import signal
import threading
import time
from typing import Callable, Sequence, TypeVar

from .errors import WorkerLost

_Job = TypeVar("_Job")
_Result = TypeVar("_Result")

# How often a child checks that the process that forked it lives.
PARENT_POLL_S = 0.25


def cpus() -> int:
    """How many processes are worth running at once: one per CPU, or one
    where the platform has no fork."""
    return (os.cpu_count() or 1) if hasattr(os, "fork") else 1


def run_forked(
    work: Callable[[_Job], _Result],
    jobs: Sequence[_Job],
    workers: int,
    here: bool = False,
) -> list[_Result]:
    """work(job) for every job, in job order.

    Each job runs in a forked child, at most workers at once; with here,
    the first job runs in this process, which then counts as one of the
    workers, once the first children have started.  An idle parent wastes
    a CPU: on 2 vCPUs, the benchmark's seed-1 prep pass took 482 ms with
    here off, 436 ms with it on (medians of 20 interleaved in-process
    rounds).  A job starts only while no job has failed.  Once every
    started job has ended, the earliest job's failure is raised: its own
    exception, or WorkerLost when its child could not start or ended
    without a result.  Where there is no fork, every job runs here.
    """
    if not hasattr(os, "fork"):
        return [work(job) for job in jobs]
    # Imported here: at module top it would slow every `import espunct.cli`.
    import pickle

    results: list = [None] * len(jobs)
    failures: dict[int, BaseException] = {}
    running: dict[int, tuple[int, int, list]] = {}  # read fd -> (job, pid, pieces read)
    waiting = iter(range(1 if here else 0, len(jobs)))
    try:
        while True:
            while not failures and len(running) + here < workers:
                i = next(waiting, None)
                if i is None:
                    break
                try:
                    fd, pid = _fork(work, jobs[i])
                except OSError as exc:
                    failures[i] = WorkerLost(f"cannot start a worker process: {exc}")
                    break
                running[fd] = (i, pid, [])
            if here and not failures:
                try:
                    results[0] = work(jobs[0])
                except Exception as exc:
                    failures[0] = exc
            here = False
            if not running:
                break
            for fd in select.select(list(running), [], [])[0]:
                i, pid, pieces = running[fd]
                data = os.read(fd, 1 << 16)
                if data:
                    pieces.append(data)
                    continue
                del running[fd]
                os.close(fd)
                status = os.waitpid(pid, 0)[1]
                # A child exits 0 only once its whole outcome is written.
                if status != 0:
                    failures[i] = WorkerLost(_how(status))
                else:
                    ok, value = pickle.loads(b"".join(pieces))
                    if ok:
                        results[i] = value
                    else:
                        failures[i] = value
    finally:
        for fd, (_, pid, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if failures:
        raise failures[min(failures)]
    return results


def _fork(work, job) -> tuple[int, int]:
    """Start a child that pipes back pickled (True, work(job)), or (False,
    the exception); returns the pipe's read end and the child's pid."""
    # Imported before the fork, so the child imports nothing.
    import pickle

    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return read_fd, pid
    code = 1
    try:
        os.close(read_fd)
        threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()
        try:
            outcome = (True, work(job))
        except Exception as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        # Never return into the parent's code, nor run its exit handlers.
        os._exit(code)


def _exit_when_orphaned(parent: int) -> None:
    # An orphan is adopted by another process, so its parent pid changes.
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _how(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"a worker process was killed by {signal.Signals(-code).name}"
    return f"a worker process exited with status {code} before its result"
