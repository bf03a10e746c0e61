"""The compiled provider for the batch cascade kernel.

:mod:`repro.core.batch` runs complete couplings through this kernel,
the fully-coupled cascade rule as machine code: ``_batch_kernel.c``
(same directory) implements the prose spec in its header over packed
flat arrays, with a fused cluster tracker; it is built on demand with
the system compiler and loaded through :mod:`ctypes`.  The build
forbids FP contraction (``-ffp-contract=off -fno-fast-math``) so no
fused multiply-adds can perturb the float stream — the kernel must
stay byte-identical to ``CascadeModel`` and the DES, which the
differential matrix (``tests/test_engine_differential.py``) checks.
:func:`resolve_compiled` returns the kernel callable or None, cached
for the process.  NumPy is required (the packed state lives in
ndarrays); environments without it, or without a C compiler, run
``CascadeModel`` per member instead.

State packing
-------------
Per member (see :class:`MemberState`): ``expiry``/``rng`` are the
router timers and Lehmer states; ``fstate = [now, open_time]``
(NaN = no open group) and ``istate`` (indices :data:`I_OPEN_SIZE` …
:data:`I_TOTAL_CASCADES`) carry the fused tracker's scalars; the
sliding window deque becomes a ring buffer of ``[size, count]``
columns with ``win_meta = [head, entries]``; the first-passage dicts
become dense arrays (their keys are contiguous frontiers); round and
group series are growable buffers with one-slot metas.  The kernel is
*resumable*: it reserves buffer headroom at the top of every cascade
(one round slot, two group slots) and returns
:data:`STATUS_ROUNDS_FULL` / :data:`STATUS_GROUPS_FULL` before
touching anything, so the Python driver can grow the buffer and call
again with no state ambiguity.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

try:
    import numpy as _np
except ImportError:  # pragma: no cover - compiled backend needs numpy
    _np = None

__all__ = [
    "MemberState",
    "drive_member",
    "resolve_compiled",
]

_NAN = float("nan")

# istate layout.
I_OPEN_SIZE = 0
I_WINDOW_RESETS = 1
I_WMAX = 2
I_FTAL_MAX = 3
I_FTAM_MIN = 4
I_ROUND_FILL = 5
I_ROUND_MAX = 6
I_TOTAL_RESETS = 7
I_TOTAL_CASCADES = 8

STATUS_HORIZON = 0
STATUS_STOPPED = 1
STATUS_ROUNDS_FULL = 2
STATUS_GROUPS_FULL = 3


class MemberState:
    """One member's packed arrays for the compiled kernel."""

    __slots__ = (
        "n",
        "keep_history",
        "expiry",
        "rng",
        "fstate",
        "istate",
        "win_sizes",
        "win_cnts",
        "win_meta",
        "ftal",
        "ftam",
        "round_times",
        "round_largest",
        "round_meta",
        "group_times",
        "group_sizes",
        "group_meta",
        "idx_scratch",
        "time_scratch",
    )

    def __init__(self, expiry, rng, n, keep_history, rounds_cap=64):
        np = _np
        self.n = n
        self.keep_history = 1 if keep_history else 0
        self.expiry = np.array(expiry, dtype=np.float64)
        self.rng = np.array(rng, dtype=np.int64)
        self.fstate = np.array([0.0, _NAN], dtype=np.float64)
        self.istate = np.zeros(9, dtype=np.int64)
        self.istate[I_FTAM_MIN] = n + 1
        self.win_sizes = np.zeros(n + 1, dtype=np.int64)
        self.win_cnts = np.zeros(n + 1, dtype=np.int64)
        self.win_meta = np.zeros(2, dtype=np.int64)
        self.ftal = np.full(n + 1, _NAN, dtype=np.float64)
        self.ftam = np.full(n + 1, _NAN, dtype=np.float64)
        self.round_times = np.empty(rounds_cap, dtype=np.float64)
        self.round_largest = np.empty(rounds_cap, dtype=np.int64)
        self.round_meta = np.zeros(1, dtype=np.int64)
        gcap = 64 if keep_history else 2
        self.group_times = np.empty(gcap, dtype=np.float64)
        self.group_sizes = np.empty(gcap, dtype=np.int64)
        self.group_meta = np.zeros(1, dtype=np.int64)
        self.idx_scratch = np.empty(n, dtype=np.int64)
        self.time_scratch = np.empty(n, dtype=np.float64)

    def _grow(self, values_attr, sizes_attr, meta):
        for attr in (values_attr, sizes_attr):
            old = getattr(self, attr)
            new = _np.empty(max(2 * old.shape[0], 16), dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, attr, new)

    def grow_rounds(self):
        self._grow("round_times", "round_largest", self.round_meta)

    def grow_groups(self):
        self._grow("group_times", "group_sizes", self.group_meta)

    def kernel_args(self, tc, low, span, tol, until, stop_sync, stop_unsync):
        """``repro_advance_member``'s arguments, in C order.

        Pointers are taken per call because growing a buffer replaces
        its array; the arrays themselves stay referenced by ``self``.
        """
        return (
            _dp(self.expiry),
            _lp(self.rng),
            self.n,
            tc,
            low,
            span,
            tol,
            until,
            1 if stop_sync else 0,
            1 if stop_unsync else 0,
            self.keep_history,
            _dp(self.fstate),
            _lp(self.istate),
            _lp(self.win_sizes),
            _lp(self.win_cnts),
            _lp(self.win_meta),
            _dp(self.ftal),
            _dp(self.ftam),
            _dp(self.round_times),
            _lp(self.round_largest),
            _lp(self.round_meta),
            self.round_times.shape[0],
            _dp(self.group_times),
            _lp(self.group_sizes),
            _lp(self.group_meta),
            self.group_times.shape[0],
            _lp(self.idx_scratch),
            _dp(self.time_scratch),
        )

    def sync_member(self, member):
        """Unpack this state into a ``BatchMember``'s public fields."""
        from .clusters import ClusterGroup  # local: avoid cycle at import

        member.now = float(self.fstate[0])
        member.total_resets = int(self.istate[I_TOTAL_RESETS])
        member.total_cascades = int(self.istate[I_TOTAL_CASCADES])
        # The first-passage keys are contiguous frontiers: at_least
        # holds {1..ftal_max}, at_most holds {ftam_min..n}.
        member.first_time_at_least = {
            s: float(self.ftal[s])
            for s in range(1, int(self.istate[I_FTAL_MAX]) + 1)
        }
        member.first_time_at_most = {
            s: float(self.ftam[s])
            for s in range(int(self.istate[I_FTAM_MIN]), self.n + 1)
        }
        rc = int(self.round_meta[0])
        member.round_times = self.round_times[:rc].tolist()
        member.round_largest = self.round_largest[:rc].tolist()
        if self.keep_history:
            gc = int(self.group_meta[0])
            times = self.group_times[:gc].tolist()
            sizes = self.group_sizes[:gc].tolist()
            member.groups = [
                ClusterGroup(t, s) for t, s in zip(times, sizes)
            ]


def drive_member(kernel, state, tc, low, span, tol, until, stop_sync, stop_unsync):
    """Run the kernel to completion, growing buffers as it asks."""
    while True:
        status = kernel(
            *state.kernel_args(tc, low, span, tol, until, stop_sync, stop_unsync)
        )
        if status == STATUS_ROUNDS_FULL:
            state.grow_rounds()
        elif status == STATUS_GROUPS_FULL:
            state.grow_groups()
        else:
            return status


# -- resolution ------------------------------------------------------------

_RESOLVED: object = "unset"


def resolve_compiled():
    """The C kernel callable, or None where it cannot be built or loaded.

    Cached for the process: the first call builds (or finds in the
    cache) and smoke-tests the shared library.
    """
    global _RESOLVED
    if _RESOLVED == "unset":
        _RESOLVED = _try_cmodule() if _np is not None else None
    return _RESOLVED


def _warmup(kernel):
    """Smoke-test a freshly loaded kernel on a tiny case."""
    state = MemberState([0.25, 0.75], [11, 12], 2, True, rounds_cap=4)
    status = drive_member(kernel, state, 0.1, 0.9, 0.2, 1e-7, 5.0, False, False)
    if status != STATUS_HORIZON:
        raise RuntimeError(f"warmup returned status {status}")


def _c_source_path():
    return os.path.join(os.path.dirname(__file__), "_batch_kernel.c")


def _cache_dir():
    override = os.environ.get("REPRO_CKERNEL_CACHE", "").strip()
    if override:
        return override
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME")
        or os.path.join(os.path.expanduser("~"), ".cache"),
        "repro-ckernel",
    )


def _build_clib():
    """Compile ``_batch_kernel.c`` into a cached shared library."""
    src = _c_source_path()
    with open(src, "rb") as fh:
        source = fh.read()
    tag = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    lib_path = os.path.join(cache, f"batch_kernel_{tag}.so")
    if os.path.exists(lib_path):
        return lib_path
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        raise RuntimeError("no C compiler on PATH")
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run(
            [
                cc,
                "-O2",
                "-fPIC",
                "-shared",
                # No FMA contraction, no fast-math value changes: the
                # kernel must round exactly like CascadeModel.
                "-ffp-contract=off",
                "-fno-fast-math",
                src,
                "-o",
                tmp,
                "-lm",
            ],
            check=True,
            capture_output=True,
        )
        os.replace(tmp, lib_path)  # atomic publish; racers converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib_path


def _try_cmodule():
    try:
        lib_path = _build_clib()
        kernel = _bind(ctypes.CDLL(lib_path))
        _warmup(kernel)
    except Exception:
        return None
    return kernel


_P_DOUBLE = ctypes.POINTER(ctypes.c_double)
_P_LONGLONG = ctypes.POINTER(ctypes.c_longlong)


def _dp(array):
    return array.ctypes.data_as(_P_DOUBLE)


def _lp(array):
    return array.ctypes.data_as(_P_LONGLONG)


def _bind(lib):
    """Declare the C entry point's signature (see ``kernel_args``)."""
    fn = lib.repro_advance_member
    c_ll = ctypes.c_longlong
    c_d = ctypes.c_double
    p_d = _P_DOUBLE
    p_ll = _P_LONGLONG
    fn.restype = c_ll
    fn.argtypes = [
        p_d,  # expiry
        p_ll,  # rng
        c_ll,  # n
        c_d,  # tc
        c_d,  # low
        c_d,  # span
        c_d,  # tol
        c_d,  # until
        c_ll,  # stop_sync
        c_ll,  # stop_unsync
        c_ll,  # keep_history
        p_d,  # fstate
        p_ll,  # istate
        p_ll,  # win_sizes
        p_ll,  # win_cnts
        p_ll,  # win_meta
        p_d,  # ftal
        p_d,  # ftam
        p_d,  # round_times
        p_ll,  # round_largest
        p_ll,  # round_meta
        c_ll,  # round_cap
        p_d,  # group_times
        p_ll,  # group_sizes
        p_ll,  # group_meta
        c_ll,  # group_cap
        p_ll,  # idx_scratch
        p_d,  # time_scratch
    ]
    return fn
