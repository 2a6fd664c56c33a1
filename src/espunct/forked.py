"""Jobs run in forked child processes that pipe their results back.

The CLI's chunked corpus commands and the experiment grid's shares of
phase groups both run through run_forked, one child per job.  A child
inherits everything its job needs at fork, so only results cross the
pipe, pickled; what the pipe cannot hold waits in the child until the
parent reads it, and the parent reads the pipes in job order, since a
child writes only once its job is done.  Each child checks four times a
second that the process that forked it lives and exits once it is gone,
so a killed parent leaves no worker writing files.  A forked child holds
only the thread that forked it, so callers fork from a process that runs
no other thread.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import BinaryIO, Callable, Sequence, TypeVar

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
    here: bool = False,
) -> list[_Result]:
    """work(job) for every job, in job order.

    Each job runs in a child forked for it, all at once, so callers keep
    to about one job per CPU: on 2 vCPUs, the benchmark grid's four phase
    groups took 3-8% longer in fresh children than in warm ones, with
    5,330 minor page faults against 480.  With here, the first job runs
    in this process once the others have started: an idle parent wastes
    a CPU, and the benchmark's seed-1 prep pass took 482 ms with here
    off, 436 ms on.  No job starts after a fork fails.  The pipes are
    read in job order, one at a time: every job is already running and
    writes only once it is done, so no order gets the last result
    sooner.  Once every started job has ended, the earliest job's
    failure is raised: its own exception, or WorkerLost when its child
    could not start or ended without a result.  Where there is no fork,
    every job runs here.
    """
    if not hasattr(os, "fork"):
        return [work(job) for job in jobs]
    # Imported here: at module top it would slow every `import espunct.cli`.
    import pickle

    outcomes: list = [None] * len(jobs)  # (ok, value), or None for a job never started
    children: list = []  # (job, pipe, pid) not yet reaped, in job order
    try:
        for i in range(1 if here else 0, len(jobs)):
            try:
                pipe, pid = _fork(work, jobs[i])
            except OSError as exc:
                outcomes[i] = (False, WorkerLost(f"cannot start a worker process: {exc}"))
                break
            children.append((i, pipe, pid))
        else:
            if here:
                outcomes[0] = _outcome(work, jobs[0])
        while children:
            i, pipe, pid = children[0]
            data = pipe.read()
            pipe.close()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            # A child exits 0 only once its whole outcome is written.
            outcomes[i] = (False, WorkerLost(_how(status))) if status else pickle.loads(data)
    finally:
        for _, pipe, pid in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for outcome in outcomes:
        if outcome and not outcome[0]:
            raise outcome[1]
    return [value for _, value in outcomes]


def _outcome(work, job) -> tuple[bool, object]:
    """(True, work(job)), or (False, the exception it raised)."""
    try:
        return True, work(job)
    except Exception as exc:
        return False, exc


def _fork(work, job) -> tuple[BinaryIO, int]:
    """Start a child that pipes back the pickled _outcome of work(job);
    returns the pipe's read end and the child's pid."""
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
        return open(read_fd, "rb"), pid
    code = 1
    try:
        os.close(read_fd)
        threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()
        with open(write_fd, "wb") as fh:
            fh.write(pickle.dumps(_outcome(work, job), pickle.HIGHEST_PROTOCOL))
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
