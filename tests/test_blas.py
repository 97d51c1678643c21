"""The lookup of the OpenBLAS that numpy loaded."""

import _ctypes
import ctypes
import os
import threading

import pytest

from seqveritas import blas
from tests.conftest import wait_for_child


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


def test_a_second_thread_waits_for_the_first_to_leave_single_thread():
    before = blas.threads()
    entered, inside = threading.Event(), []

    def enter():
        with blas.single_thread():
            entered.set()
            inside.append(blas.threads())

    with blas.single_thread():
        other = threading.Thread(target=enter)
        other.start()
        assert not entered.wait(timeout=0.2)
    other.join(timeout=60)
    assert not other.is_alive()
    assert inside == [1]
    assert blas.threads() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_fork_waits_for_another_threads_single_thread_block():
    before = blas.threads()
    entered, leave, forked = threading.Event(), threading.Event(), []

    def hold():
        with blas.single_thread():
            entered.set()
            leave.wait(timeout=60)

    def fork():
        pid = os.fork()
        if pid == 0:
            try:  # the child has the count restored and the lock free
                ok = blas.threads() == before
                with blas.single_thread():
                    pass
                os._exit(0 if ok else 1)
            finally:
                os._exit(2)
        forked.append(pid)

    holder = threading.Thread(target=hold)
    holder.start()
    assert entered.wait(timeout=60)
    forker = threading.Thread(target=fork)
    forker.start()
    forker.join(timeout=0.2)
    assert forker.is_alive() and forked == []
    leave.set()
    for t in (holder, forker):
        t.join(timeout=60)
        assert not t.is_alive()
    assert wait_for_child(forked[0], "single_thread block") == 0


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
