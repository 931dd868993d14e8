"""One fork helper for every caller that splits a range across cores: the
fields.csv writer and the mean-value lattice (time levels) and the
acceptance engine (criteria).  A worker may call BLAS and LAPACK: OpenBLAS
shuts its thread pool down before each fork (a pthread_atfork handler) and
each process restarts it lazily on its next threaded call.  A worker may
call fork_map again; its own workers are reaped before it returns."""

import os
import pickle
import signal


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork (Windows)."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_map(fn, n: int) -> list:
    """[fn(start, stop) for each chunk start:stop of range(n)], one chunk per
    usable core, in order; [] for n = 0.  This process runs chunk 0 and forks a worker per
    further chunk; a worker pickles its result or exception into a pipe and
    leaves through os._exit, so inherited stdio buffers and exit handlers
    never run twice.  A worker's exception is raised here, one that dies
    raises RuntimeError, and no worker outlives the call."""
    if n == 0:
        return []
    k = min(_usable_cores(), n)
    bounds = [n * i // k for i in range(k + 1)]
    workers = {}
    try:
        for i in range(1, k):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    try:
                        out = (True, fn(bounds[i], bounds[i + 1]))
                    except BaseException as exc:
                        out = (False, exc)
                    with os.fdopen(w, "wb") as pipe:
                        pickle.dump(out, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers[pid] = os.fdopen(r, "rb")
        results = [fn(bounds[0], bounds[1])]
        for pid in list(workers):
            payload = workers[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(pid).close()
            if code:
                raise RuntimeError(f"forked worker exited with code {code}")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
