"""The environment every result is stamped with."""

from __future__ import annotations

import os
import platform
import subprocess


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: str, *args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return done.stdout.strip()


def environment(root: str, workload: str, seed: int) -> dict:
    """Python/numpy versions, CPU count and model, git sha, seed."""
    import numpy

    # a checkout that is not itself a work tree has no sha of its own
    toplevel = _git(root, "rev-parse", "--show-toplevel")
    is_tree = bool(toplevel) and os.path.samefile(toplevel, root)
    sha = _git(root, "rev-parse", "HEAD") if is_tree else ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_sha": sha or "unknown",
        # without a sha there is nothing to be dirty against: unknown
        "git_dirty": (
            bool(_git(root, "status", "--porcelain")) if sha else None
        ),
        "workload": workload,
        "seed": seed,
    }
