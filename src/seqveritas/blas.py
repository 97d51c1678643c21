"""The OpenBLAS that numpy loaded: the process's shard budget and its
runtime kernel.

The library is found among the shared objects this process has mapped
(`/proc/self/maps`) and opened with ctypes. Its exported names are spelled
`scipy_openblas_*64_` in the wheels numpy ships, `openblas_*` or
`openblas_*64_` in system builds.

On first import this module records OpenBLAS's thread count, which
`OPENBLAS_NUM_THREADS` sets, as the number of row shards an LSTM call may
run side by side (`threads()`), and then sets OpenBLAS to one thread for
the rest of the process. So no product runs threaded: a row's bits do not
depend on the thread count, and no idle OpenBLAS worker spins on a core
after a threaded product while the program's own shards run there.
Nothing changes the count again. Without an OpenBLAS, `threads()` is 1
and `core()` is None.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
from pathlib import Path
from types import SimpleNamespace

_SPELLINGS = (("scipy_openblas_", "64_"), ("openblas_", ""),
              ("openblas_", "64_"))


def _loaded_libraries():
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    return sorted({line.split()[-1] for line in maps
                   if "openblas" in line.lower() and ".so" in line})


def _lookup(paths):
    """The thread and kernel queries of the first of `paths` that exports
    them, as `get_threads`, `set_threads` and `core`; None if none does."""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SPELLINGS:
            names = [f"{prefix}{name}{suffix}" for name in
                     ("get_num_threads", "set_num_threads", "get_corename")]
            found = [getattr(lib, name, None) for name in names]
            if None in found:
                continue
            get_threads, set_threads, core = found
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            core.argtypes, core.restype = [], ctypes.c_char_p
            return SimpleNamespace(get_threads=get_threads,
                                   set_threads=set_threads, core=core)
    return None


@functools.cache
def _api():
    importlib.import_module("numpy")  # maps the BLAS that the lookup finds
    return _lookup(_loaded_libraries())


def _to_one_thread(api):
    """Sets `api`'s OpenBLAS to one thread; returns the count it had, 1
    without an OpenBLAS."""
    if api is None:
        return 1
    count = api.get_threads()
    api.set_threads(1)
    return count


_THREADS = _to_one_thread(_api())


def threads():
    """The shard budget: the number of threads OpenBLAS ran products on
    when this module was first imported; 1 without an OpenBLAS."""
    return _THREADS


def core():
    """The kernel OpenBLAS picked at run time (`SkylakeX`, `Haswell`), which
    a DYNAMIC_ARCH build's configuration string does not name; None
    without an OpenBLAS."""
    api = _api()
    return None if api is None else api.core().decode()
