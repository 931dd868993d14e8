"""One fork helper for every caller that splits work across cores:
fork_each runs a list of thunks, for the acceptance criteria, the time
levels of the mean-value lattice and of the fields.csv writer, and a run's
independent marches and measurements (the perturbation families of
family_stability, each marched and measured in its thunk, the sweep
beside its refinement proxy, the weak identity beside the two estimate
batteries).  Thunk 0 runs in the calling process, so what it stores stays
in the caller's memory; with one usable core, as inside one_core, nothing
forks.  A worker may call BLAS and LAPACK: OpenBLAS shuts its thread pool
down before each fork (a pthread_atfork handler) and each process restarts
it lazily on its next threaded call.  A worker may fork again; its own
workers are reaped before it returns."""

import os
import pickle
import signal
from contextlib import contextmanager


def _usable_cores() -> int:
    """Cores this process may run on; 1 where it cannot fork (Windows)."""
    if not hasattr(os, "fork"):
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_each(thunks: list) -> list:
    """[thunk() for thunk in thunks], the thunks split into one contiguous
    run per usable core.  This process runs the first run and forks a
    worker per further run; a worker pickles its results or exception into
    a pipe and leaves through os._exit, so inherited stdio buffers and exit
    handlers never run twice.  The results are unpickled as they stream
    in, so they are held once.  A worker's exception is raised here, one
    that dies raises RuntimeError, and no worker outlives the call."""
    n = len(thunks)
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
                        out = (True, [t() for t in thunks[bounds[i]:bounds[i + 1]]])
                    except BaseException as exc:
                        out = (False, exc)
                    with os.fdopen(w, "wb") as pipe:
                        pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers[pid] = os.fdopen(r, "rb")
        results = [t() for t in thunks[:bounds[1]]]
        for pid in list(workers):
            broken = None
            try:
                ok, value = pickle.load(workers[pid])
            except Exception as exc:  # a worker that died mid-pickle cuts it short
                broken = exc
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(pid).close()
            if code:
                raise RuntimeError(f"forked worker exited with code {code}") from broken
            if broken is not None:
                raise broken
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


@contextmanager
def one_core():
    """This thread's CPU affinity narrowed to one of its CPUs for the block,
    so _usable_cores reads 1 and nothing forks there; restored on exit.  A
    no-op where the affinity cannot be set."""
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if mask:
        os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        if mask:
            os.sched_setaffinity(0, mask)
