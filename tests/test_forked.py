"""The fork-and-pipe helper and the commands that run through it.

run_forked gives results in job order, starts no job after a failure,
raises the earliest job's failure, and runs every job in this process
where there is no fork.  A worker that ends without a result, by its
own exit or by a kill, fails a chunked corpus command and the grid
alike with one error line, leaves no output and leaves no child, and
a chunk worker whose parent is killed exits.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from espunct import cli, pipeline
from espunct.cli import main
from espunct.corpus import RawUtterance, write_jsonl
from espunct.errors import EmptyCorpus, WorkerLost
from espunct.forked import run_forked

from generators import rule_corpus
from helpers import child_process_left


def _square(n):
    return n * n


def test_results_come_back_in_job_order():
    assert run_forked(_square, [3, 1, 2], 2) == [9, 1, 4]
    assert run_forked(_square, [3, 1, 2], 3, here=True) == [9, 1, 4]
    assert run_forked(_square, [5], 1, here=True) == [25]


def test_the_earliest_failure_is_raised_once_every_job_ended(tmp_path):
    def job(n):
        (tmp_path / f"ran-{n}").touch()
        if n in (1, 2):
            raise EmptyCorpus(f"job {n}")
        return n

    with pytest.raises(EmptyCorpus, match="job 1"):
        run_forked(job, [0, 1, 2, 3], 4, here=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ran-0", "ran-1", "ran-2", "ran-3"]


def test_no_job_starts_after_a_failure(tmp_path):
    def job(n):
        (tmp_path / f"ran-{n}").touch()
        if n == 1:
            raise EmptyCorpus("job 1")
        return n

    with pytest.raises(EmptyCorpus):
        run_forked(job, [0, 1, 2, 3], 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ran-0", "ran-1"]


def test_without_fork_every_job_runs_here(monkeypatch):
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert run_forked(lambda n: (n, os.getpid()), [1, 2], 2) == [(1, parent), (2, parent)]


def _die(how):
    if how == "exit":
        os._exit(1)
    os.kill(os.getpid(), signal.SIGKILL)


_HOW = {
    "exit": "a worker process exited with status 1 before its result",
    "kill": "a worker process was killed by SIGKILL",
}


@pytest.mark.parametrize("how", sorted(_HOW))
def test_a_lost_job_is_a_worker_lost_error(how):
    with pytest.raises(WorkerLost, match=f"^{_HOW[how]}$"):
        run_forked(lambda n: _die(how) if n else n, [0, 1], 2, here=True)


def test_a_worker_that_cannot_start_is_a_worker_lost_error(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def job(n):
        (tmp_path / f"ran-{n}").touch()
        return n

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(WorkerLost, match="^cannot start a worker process: "):
        run_forked(job, [0, 1, 2], 3, here=True)
    # The job this process holds does not start either.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("how", sorted(_HOW))
def test_a_lost_chunk_worker_fails_the_command(how, tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    real = cli.as_labeled

    def dying(records):
        if os.getpid() != parent:
            _die(how)
        return real(records)

    monkeypatch.setattr(cli, "as_labeled", dying)
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path, out = tmp_path / "in.txt", tmp_path / "out.jsonl"
    path.write_text("hola que tal.\nbien, gracias.\n", encoding="utf-8")
    assert main(["extract", "--in", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {_HOW[how]}\n"
    assert not out.exists()
    assert child_process_left() is None


@pytest.mark.parametrize("how", sorted(_HOW))
def test_a_lost_grid_worker_fails_the_experiment(how, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "_run_group", lambda *args: _die(how))
    write_jsonl(rule_corpus(40, seed=22), tmp_path / "es.jsonl")
    en = [RawUtterance(f"ok, can you check item n{i}?", lang="en") for i in range(10)]
    write_jsonl(en, tmp_path / "en.jsonl")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "schema_version": 1,
            "datasets": {"es_indomain": "es.jsonl", "en_indomain": "en.jsonl"},
            "strategies": ["ES_ONLY", "JOINT"],
            "train": {"epochs": 1},
            "output_dir": str(tmp_path / "out"),
        }),
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(config)]) == 3
    assert capsys.readouterr().err == f"error: stage 'train': {_HOW[how]}\n"
    assert not list((tmp_path / "out").glob("model_*"))
    assert not (tmp_path / "out" / "comparison.md").exists()
    assert child_process_left() is None


# Runs extract in three chunks whose shaping records its pid and then
# waits far longer than the test does, in this process and both workers.
_HELD_CHUNKS = """
import os, sys, time
from pathlib import Path
from espunct import cli

out = Path(sys.argv[1])

def hold(records):
    (out / f"worker-{os.getpid()}").touch()
    time.sleep(60)

cli.as_labeled = hold
cli._MIN_CHUNK_BYTES = 1
os.cpu_count = lambda: 3
(out / "in.txt").write_text("hola.\\nvale.\\nbien.\\n", encoding="utf-8")
cli.main(["extract", "--in", str(out / "in.txt"), "--out", str(out / "out.jsonl")])
"""


def _alive(pid):
    """True while pid names a process that is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_chunk_workers_exit_when_their_parent_is_killed(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _HELD_CHUNKS, str(tmp_path)], env=dict(os.environ, PYTHONPATH=path)
    )
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(p.name.split("-")[1]) for p in tmp_path.glob("worker-*")]
        assert len(workers) == 3 and proc.pid in workers
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(10) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers))
        assert not (tmp_path / "out.jsonl").exists()
    finally:
        for pid in filter(_alive, workers):
            os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
