"""The OpenBLAS that numpy loaded: its thread count and its runtime kernel.

The library is found among the shared objects this process has mapped
(`/proc/self/maps`) and opened with ctypes. Its exported names are spelled
`scipy_openblas_*64_` in the wheels numpy ships, `openblas_*` or
`openblas_*64_` in system builds. Without an OpenBLAS, `threads()` is 1,
`core()` is None and `single_thread()` changes nothing. The count is
process wide and only `single_thread()` changes it, under its own lock.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import threading
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


def threads():
    """The number of threads OpenBLAS runs a product on; 1 without one."""
    api = _api()
    return 1 if api is None else api.get_threads()


def core():
    """The kernel OpenBLAS picked at run time (`SkylakeX`, `Haswell`), which
    a DYNAMIC_ARCH build's configuration string does not name; None
    without an OpenBLAS."""
    api = _api()
    return None if api is None else api.core().decode()


# Held by a `single_thread` block and by a fork, so that no child starts
# inside another thread's block, with the count at 1 and the lock held by
# a thread it lacks. Reentrant: a block may nest, or fork, in its thread.
_lock = threading.RLock()
os.register_at_fork(before=_lock.acquire, after_in_parent=_lock.release,
                    after_in_child=_lock.release)


@contextlib.contextmanager
def single_thread():
    """Run OpenBLAS on one thread inside the block, then restore the count.
    A block waits until any other thread's block has ended."""
    with _lock:
        api = _api()
        if api is None:
            yield
            return
        before = api.get_threads()
        api.set_threads(1)
        try:
            yield
        finally:
            api.set_threads(before)
