"""The lookup of the OpenBLAS that numpy loaded."""

import _ctypes
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqveritas import blas

SRC = str(Path(blas.__file__).parents[1])


@pytest.fixture
def fresh_lookup():
    blas._api.cache_clear()
    yield
    blas._api.cache_clear()


def test_without_an_openblas_symbol_there_is_one_thread_and_no_core(
        monkeypatch, fresh_lookup):
    # ctypes' own extension is a loaded library with no OpenBLAS name
    monkeypatch.setattr(blas, "_loaded_libraries",
                        lambda: ["/nonexistent/libopenblas.so",
                                 _ctypes.__file__])
    assert blas._api() is None
    assert blas._to_one_thread(blas._api()) == 1
    assert blas.core() is None


def test_the_loaded_openblas_reports_its_threads_and_core(fresh_lookup):
    if blas._api() is None:
        pytest.skip("numpy loaded no OpenBLAS")
    assert blas.threads() >= 1
    assert isinstance(blas.core(), str) and blas.core()
    # the import left OpenBLAS on one thread, and nothing has changed it
    assert blas._api().get_threads() == 1


# In a fresh interpreter under OPENBLAS_NUM_THREADS=2: OpenBLAS's own
# count after `import seqveritas`, and the budget that `blas` recorded.
IMPORT_SETS_ONE_THREAD = """
import seqveritas
from seqveritas import blas
api = blas._api()
print(None if api is None else api.get_threads(), blas.threads())
"""


def test_importing_seqveritas_sets_one_thread_and_keeps_the_budget():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SETS_ONE_THREAD],
                          env=dict(os.environ, PYTHONPATH=path,
                                   OPENBLAS_NUM_THREADS="2"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    live, budget = proc.stdout.split()
    if live == "None":
        pytest.skip("numpy loaded no OpenBLAS")
    if os.cpu_count() < 2:
        pytest.skip("OpenBLAS caps its threads at the CPU count")
    assert (live, budget) == ("1", "2")


def test_each_symbol_spelling_is_found(monkeypatch):
    class Library:
        def __init__(self, names):
            for name in names:
                setattr(self, name, ctypes.CFUNCTYPE(ctypes.c_int)())

    for prefix, suffix in blas._SPELLINGS:
        names = [f"{prefix}{name}{suffix}" for name in
                 ("get_num_threads", "set_num_threads", "get_corename")]
        lib = Library(names)
        monkeypatch.setattr(ctypes, "CDLL", lambda path: lib)
        api = blas._lookup(["libopenblas.so"])
        assert (api.get_threads, api.set_threads, api.core) == tuple(
            getattr(lib, name) for name in names)
        # a library that lacks one of the three names is passed over
        monkeypatch.setattr(ctypes, "CDLL", lambda path: Library(names[:2]))
        assert blas._lookup(["libopenblas.so"]) is None
