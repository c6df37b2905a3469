"""The machine and build a result was measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from pathlib import Path


def _openblas() -> dict:
    import numpy as np

    info: dict = {"version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    if info["threads"] is None:
        env = os.environ.get("OPENBLAS_NUM_THREADS")
        info["threads"] = int(env) if env and env.isdigit() else None
    return info


def _git(root: Path) -> dict:
    # The ceiling stops git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        )
        if head.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=root, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(root: Path) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    cpu_count = os.cpu_count()
    return {
        "nproc": nproc,
        "os_cpu_count": cpu_count,
        # the CLI's default --workers is os.cpu_count(), not the usable cores
        "cpu_count_differs_from_nproc": nproc != cpu_count,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": _openblas(),
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "git": _git(root),
    }
