"""Set-up probe: a fresh interpreter imports liftphase and builds the window.

    python3 perfbench/setup_probe.py SRC_DIR [--machine]

Prints ``ready`` once the window exists, so the caller can time set-up from
spawn to that line.  Exits 1 if the imported package is not the one under
SRC_DIR or the window's normalization is not a positive number.  With ``--machine`` it then
prints one JSON line describing the interpreter, numpy/scipy and BLAS.
"""

import sys

import liftphase
from liftphase import signals

window = signals.get_window("gaussian")
print("ready", flush=True)

import ctypes  # noqa: E402  (after the timed part)
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not OpenBLAS."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads": _blas_threads(),
    }


def main(argv) -> int:
    src = os.path.realpath(argv[0])
    where = os.path.realpath(os.path.dirname(liftphase.__file__))
    if os.path.dirname(where) != src:
        print(f"imported liftphase from {where}, expected it under {src}",
              file=sys.stderr)
        return 1
    if not math.isfinite(window.normalization) or window.normalization <= 0:
        print(f"window normalization {window.normalization!r} is not positive",
              file=sys.stderr)
        return 1
    if "--machine" in argv:
        importlib.import_module("liftphase.cli")  # fills the bytecode cache
        print(json.dumps(machine()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
