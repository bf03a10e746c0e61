"""The run record: what ran, where, and what the defaults resolved to.

A degraded environment (no numpy, no C compiler, fewer CPUs than the
pool width) is written into the record, never skipped silently.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path


def git_sha(root: Path) -> str:
    """The checkout's commit, or a note when it is not a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown (not a git checkout)"


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources: identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, workload: str, seed: int, why: str, pool_width: int) -> dict:
    """Everything a reader needs to trust (or discount) one result."""
    from repro.core import batch

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count() or 1
    degraded = []
    if numpy_version is None:
        degraded.append("numpy not importable")
    if shutil.which("cc") is None:
        degraded.append("no cc on PATH")
    if not batch.compiled_backend_available():
        degraded.append("compiled batch backend unavailable")
    if pool_width > nproc:
        degraded.append(f"pool width {pool_width} exceeds nproc {nproc}")
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src"),
        "nproc": nproc,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "batch_backend": batch.BACKEND,
        "compiled_backend_available": batch.compiled_backend_available(),
        "cc": shutil.which("cc") is not None,
        "pool_width": pool_width,
        "pool_exceeds_nproc": pool_width > nproc,
        "degraded": degraded,
    }
