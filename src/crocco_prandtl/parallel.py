"""One fork helper for every caller that splits work across cores.  Two
forms share it: fork_map splits a range (the fields.csv writer and the
mean-value lattice by time level, the acceptance engine by criterion), and
fork_each splits a list of thunks (a run's independent marches and
measurements: SolveStore.solve_many, the sweep beside its refinement
proxy, and the two halves of the estimate battery).  Chunk 0, and so thunk
0, runs in the calling process, so what it stores stays in the caller's
memory; with one usable core nothing forks.  A worker may call BLAS and
LAPACK: OpenBLAS shuts its thread pool down before each fork (a
pthread_atfork handler) and each process restarts it lazily on its next
threaded call.  A worker may call fork_map again; its own workers are
reaped before it returns."""

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
    never run twice.  The result is unpickled as it streams in, so it is
    held once.  A worker's exception is raised here, one that dies raises
    RuntimeError, and no worker outlives the call."""
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
                        pickle.dump(out, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            workers[pid] = os.fdopen(r, "rb")
        results = [fn(bounds[0], bounds[1])]
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
            results.append(value)
        return results
    finally:
        for pid, pipe in workers.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def fork_each(thunks: list) -> list:
    """[thunk() for thunk in thunks], contiguous runs of the thunks split
    across the usable cores by fork_map, so thunk 0 runs in this process."""
    return [out for part in fork_map(lambda a, b: [t() for t in thunks[a:b]], len(thunks))
            for out in part]
