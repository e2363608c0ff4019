"""The process pool of a split search: K - 1 forked children, with the
calling process as the K-th worker.

`ForkPool(max_workers).map(fn, tasks)` writes every task index to one pipe
as a single byte before the first fork. Each worker, the parent included,
reads one byte at a time until the pipe is empty, so a worker that finishes
early takes the next task. A child sends `marshal.dumps([(index, result),
...])` back on a pipe of its own, or its exception pickled, and always ends
with `os._exit`, so it runs no exit handler or buffer flush of the process
it was forked from. The parent re-raises a child's exception with its type
and text, and raises RuntimeError for a child that died without a full
record. Before any exception leaves `map` or the `with` block, every child
is killed and reaped. `map` returns the results in task order.

The module loads on the first split search, so a serial run never compiles
it, and it imports neither `multiprocessing` nor `concurrent.futures`.
Results must be values `marshal` writes: the kernels' tuples of ints.
"""

from __future__ import annotations

import marshal
import os
import signal

_RESULTS = b"R"  # the first byte of a child's record: marshalled results
_ERROR = b"E"  # or its exception, pickled


def _work(fn, tasks: list, tasks_fd: int) -> list:
    """Run the tasks whose indices this worker reads from `tasks_fd`."""
    done = []
    while index := os.read(tasks_fd, 1):
        done.append((index[0], fn(tasks[index[0]])))
    return done


class ForkPool:
    """A context manager whose `map(fn, tasks)` runs on `max_workers`
    processes, this one included."""

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._children: dict[int, int] = {}  # pid -> read end of its record pipe

    def __enter__(self) -> ForkPool:
        return self

    def __exit__(self, *exc) -> bool:
        self._end_all()
        return False

    def map(self, fn, tasks) -> list:
        tasks = list(tasks)
        assert len(tasks) <= 256, "a task index is sent as one byte"
        tasks_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, bytes(range(len(tasks))))  # fits the pipe's buffer
            os.close(write_fd)
            for _ in range(min(self.max_workers, len(tasks)) - 1):
                self._fork(fn, tasks, tasks_fd)
            results = dict(_work(fn, tasks, tasks_fd))
            for pid in list(self._children):
                results.update(self._collect(pid))
        except BaseException:  # the parent's own task, a child's error, or an interrupt
            self._end_all()
            raise
        finally:
            os.close(tasks_fd)
        return [results[i] for i in range(len(tasks))]

    def _fork(self, fn, tasks: list, tasks_fd: int) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:  # EAGAIN or ENOMEM: no child holds the pipe
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            try:
                os.close(read_fd)
                try:
                    record = _RESULTS + marshal.dumps(_work(fn, tasks, tasks_fd))
                except BaseException as exc:  # sent to the parent, which re-raises it
                    import pickle

                    record = _ERROR + pickle.dumps(exc)
                view = memoryview(record)
                while view:
                    view = view[os.write(write_fd, view):]
            finally:
                os._exit(0)
        os.close(write_fd)
        self._children[pid] = read_fd

    def _collect(self, pid: int) -> list:
        """Read child `pid`'s record to its end, reap the child, and return
        its results or raise its exception."""
        fd = self._children[pid]
        record = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
        self._end(pid, kill=False)
        if record[:1] == _ERROR:
            import pickle

            raise pickle.loads(record[1:])  # written by this program's own child
        try:
            if record[:1] == _RESULTS:
                return marshal.loads(record[1:])
        except (EOFError, ValueError, TypeError):
            pass
        raise RuntimeError(f"a search worker process ({pid}) ended without sending its results")

    def _end(self, pid: int, kill: bool) -> None:
        os.close(self._children.pop(pid))
        if kill:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    def _end_all(self) -> None:
        for pid in list(self._children):
            self._end(pid, kill=True)
