"""The lookup of the OpenBLAS that numpy loaded."""

import _ctypes
import ctypes

import pytest

from seqveritas import blas


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
    assert blas.threads() == 1
    assert blas.core() is None
    with blas.single_thread():
        assert blas.threads() == 1


def test_the_loaded_openblas_reports_its_threads_and_core(fresh_lookup):
    if blas._api() is None:
        pytest.skip("numpy loaded no OpenBLAS")
    before = blas.threads()
    assert before >= 1
    assert isinstance(blas.core(), str) and blas.core()
    with blas.single_thread():
        assert blas.threads() == 1
    assert blas.threads() == before


def test_single_thread_restores_the_count_when_its_block_raises(fresh_lookup):
    before = blas.threads()
    with pytest.raises(KeyError):
        with blas.single_thread():
            raise KeyError("boom")
    assert blas.threads() == before


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
