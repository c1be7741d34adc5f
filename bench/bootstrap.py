"""Process set-up shared by the benchmark's entry scripts.

Call `prepare()` before anything imports numpy: it pins BLAS to one thread
(the library documents itself as single-threaded, while OpenBLAS defaults to
one thread per core) and puts the checkout's `src/` first on `sys.path`, so
the benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make `import rigidflow` resolve to `src/`; exit 2 if it cannot."""
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rigidflow" / "__init__.py").is_file():
        print(f"error: no rigidflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Exit 2 unless `module` was loaded from this checkout's `src/`."""
    path = Path(module.__file__).resolve()
    if SRC not in path.parents:
        print(f"error: {module.__name__} was imported from {path}, not {SRC}", file=sys.stderr)
        sys.exit(2)
