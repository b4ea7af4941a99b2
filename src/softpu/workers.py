"""Two jobs at once: the second in a forked child, the first here.

Where the platform has ``os.fork`` and this process may run on two or more
CPUs (:func:`worker_usable`), :func:`pair_results` runs its second job in a
forked child while this process runs the first. The caller sees what
calling the two jobs in turn gives: the results in order, the child's
warnings emitted here after the first result, and the first failure in
job order raised. The child is always reaped, and killed first if the
first job raises. Elsewhere both jobs run here, one after the other.
"""

import os
import pickle
import signal
import warnings


def worker_usable() -> bool:
    """Whether a job can run in a forked child beside this process: the
    platform has ``os.fork`` and this process may run on two or more CPUs."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


def fork_job(job):
    """Run ``job()`` in a forked child; returns its pid and the read end of
    the pipe on which it sends ``(ok, result or exception, warnings)``.

    The child never returns into the caller: it leaves through ``os._exit``,
    which flushes no stdio buffer or file object it inherited, and it prints
    nothing. The warnings the job emits are recorded, not shown, and sent
    along as ``(text, category, filename, lineno)``. If the outcome cannot
    be pickled, the child exits with status 1 and sends nothing.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with warnings.catch_warnings(record=True) as caught:
            try:
                outcome = (True, job())
            except Exception as exc:
                outcome = (False, exc)
        shown = [(str(w.message), w.category, w.filename, w.lineno) for w in caught]
        payload = pickle.dumps(outcome + (shown,))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def pair_results(first, second):
    """Yield ``first()`` and then ``second()``, raising the first failure
    in that order: the results, warnings and error of calling them in turn.

    Where :func:`worker_usable`, ``second`` runs in a forked child
    (:func:`fork_job`) while this process runs ``first``. The child is
    always reaped before ``first``'s result is yielded, and killed first if
    ``first`` raises. Its warnings are emitted here after ``first``'s result.
    """
    if not worker_usable():
        yield first()
        yield second()
        return
    pid, read_fd = fork_job(second)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            result = first()
            payload = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    yield result
    if not payload:
        raise RuntimeError(
            f"the forked worker (pid {pid}) sent no result: wait status {status}"
        )
    ok, value, shown = pickle.loads(payload)
    for text, category, filename, lineno in shown:
        warnings.warn_explicit(text, category, filename, lineno)
    if not ok:
        raise value
    yield value
