"""Shared-memory result slabs for pooled batch sweeps.

Pickling a ``JobResult`` per member back through the process pool is
pure overhead once the batch kernel made the simulations themselves
cheap: for a fig12-style sweep the parent deserializes hundreds of
thousands of tiny dicts.  This module gives the pool a second
transport: the parent allocates one ``multiprocessing.shared_memory``
segment holding a float64 slab with a row per job, workers write each
job's first-passage record in place, and the pickled payload shrinks
to a bare acknowledgement.

Layout
------
Row ``r`` of the ``(rows, n_max + 1)`` float64 slab holds job ``r``'s
outcome::

    col 0           commit flag — 0.0 while the row is unwritten or
                    torn, :data:`COMMIT` once the row is complete
    col k (1..n)    first-passage time for cluster size k, NaN when
                    the run never reached that size (censoring is
                    absence, exactly as in ``JobResult``)

The commit flag is written *last*.  A worker that dies mid-row leaves
the flag unset, so the parent can never surface a torn row as a
result — it re-runs exactly the uncommitted jobs in-process.  Float64
values round-trip through the slab bit for bit, so shm transport is
byte-identical to pickle transport.

Cleanup is the parent's job: :meth:`ResultSlab.destroy` runs in the
runner's ``finally`` so the segment is unlinked on normal exit, on an
``on_error="raise"`` drain, and when workers crash.  The parent is the
segment's only owner, in the ``resource_tracker`` too: workers attach
read-write without registering the segment, so no worker exit can
reap it and no worker can take the parent's registration away (pool
workers share the parent's tracker, so a worker-side ``unregister``
would, and the parent's unlink would then make the tracker print a
``KeyError`` traceback).
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "COMMIT",
    "ResultSlab",
    "shm_available",
    "run_jobs_shm",
]

#: Value of a row's commit flag once every payload column is written.
COMMIT = 1.0

_NAN = float("nan")


def shm_available() -> bool:
    """Whether shared-memory slabs can be used on this platform.

    Requires numpy (the slab is a float64 ndarray view) and a working
    ``multiprocessing.shared_memory`` (present on CPython >= 3.8, but
    creation can still fail on platforms without ``/dev/shm``).
    """
    try:
        import numpy  # noqa: F401
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:  # pragma: no cover - baked-in on the CI image
        return False
    return True


class ResultSlab:
    """One shared-memory first-passage slab (see module docstring).

    Create in the parent with :meth:`create`, attach in workers with
    :meth:`attach`.  The parent calls :meth:`destroy` exactly once;
    workers call :meth:`close` when done writing.
    """

    def __init__(self, shm, rows: int, n_max: int, owner: bool) -> None:
        import numpy as np

        self._shm = shm
        self.rows = rows
        self.n_max = n_max
        self._owner = owner
        self.array = np.ndarray(
            (rows, n_max + 1), dtype=np.float64, buffer=shm.buf
        )

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._shm.name

    @classmethod
    def create(cls, rows: int, n_max: int) -> "ResultSlab":
        """Allocate a zero-filled slab for ``rows`` jobs (parent side)."""
        from multiprocessing import shared_memory

        if rows < 1 or n_max < 1:
            raise ValueError("rows and n_max must be >= 1")
        size = rows * (n_max + 1) * 8
        shm = shared_memory.SharedMemory(create=True, size=size)
        slab = cls(shm, rows, n_max, owner=True)
        slab.array.fill(0.0)  # commit flags down, payload zeroed
        return slab

    @classmethod
    def attach(cls, name: str, rows: int, n_max: int) -> "ResultSlab":
        """Map an existing slab by name (worker side).

        The mapping is never registered with the resource tracker:
        the parent owns the segment's lifetime (see the module
        docstring).
        """
        from multiprocessing import resource_tracker, shared_memory

        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13 has no track=; attach registers
            register = resource_tracker.register
            resource_tracker.register = lambda name, rtype: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = register
        return cls(shm, rows, n_max, owner=False)

    # -- row protocol --------------------------------------------------------

    def write_row(
        self, row: int, first_passages: dict, commit: bool = True
    ) -> None:
        """Write one job's record; the commit flag goes down last.

        ``commit=False`` writes the payload but leaves the flag unset
        — the fault-injection hook for a torn write.
        """
        out = self.array[row]
        out[0] = 0.0
        for k in range(1, self.n_max + 1):
            out[k] = first_passages.get(k, _NAN)
        if commit:
            out[0] = COMMIT

    def read_row(self, row: int) -> dict | None:
        """One job's record, or None if the row was never committed."""
        out = self.array[row]
        if out[0] != COMMIT:
            return None
        return {
            k: float(out[k])
            for k in range(1, self.n_max + 1)
            if out[k] == out[k]  # NaN = size never reached
        }

    # -- lifetime ------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (leaves the segment alive)."""
        self.array = None
        self._shm.close()

    def destroy(self) -> None:
        """Close and unlink; only the creating parent calls this."""
        self.array = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def run_jobs_shm(
    specs,
    name: str,
    rows: int,
    n_max: int,
    row_indices: Sequence[int],
    faults=None,
    attempt: int = 0,
) -> int:
    """Pool-worker entry point for shm transport.

    Applies the same per-worker batching as :func:`.job.run_jobs` —
    byte-identity is inherited, not re-proven — but on the fault-free
    path the batch kernel streams first-passage rows straight into
    the slab (``run_batch(..., out=...)``), so no per-member result
    object is ever built, let alone pickled.  Returns only the number
    of rows committed; ``row_indices[i]`` is the slab row of
    ``specs[i]``.

    With a fault plan armed, jobs run one by one (matching
    ``run_jobs``) and the plan's shm hooks fire per row *after* the
    simulation: ``shm_torn`` skips the commit flag (the worker
    survives and the parent re-runs that job); ``shm_crash`` skips
    the flag and kills the worker mid-chunk (the parent sees
    ``BrokenProcessPool``).
    """
    from .job import batch_group_key, run_batch, run_job, run_jobs

    slab = ResultSlab.attach(name, rows, n_max)
    committed = 0
    try:
        if faults is None:
            jobs = list(specs)
            groups: dict = {}
            for i, job in enumerate(jobs):
                if job.engine == "batch":
                    groups.setdefault(batch_group_key(job), []).append(i)
                    continue
                result = run_job(job, None, attempt)
                slab.write_row(row_indices[i], result.first_passages)
                committed += 1
            for indices in groups.values():
                run_batch(
                    [jobs[i] for i in indices],
                    out=(slab, [row_indices[i] for i in indices]),
                )
                committed += len(indices)
            return committed
        results = run_jobs(specs, faults, attempt)
        for spec, result, row in zip(specs, results, row_indices):
            fault = faults.shm_fault(spec)
            if fault is not None:
                slab.write_row(row, result.first_passages, commit=False)
                if fault == "shm_crash":
                    import os

                    from .faults import CRASH_EXIT_STATUS, _in_pool_worker

                    if _in_pool_worker():
                        os._exit(CRASH_EXIT_STATUS)
                continue
            slab.write_row(row, result.first_passages)
            committed += 1
    finally:
        slab.close()
    return committed
