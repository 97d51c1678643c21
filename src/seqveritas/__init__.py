"""From-scratch LSTM text classifier for fake-news detection.

Everything numeric is built on a small dense-matrix substrate (numpy arrays
plus a portable seeded PRNG); the layers, optimizer, and training loop are
implemented here rather than delegated to a deep-learning framework so that
every gradient can be checked against finite differences.

Importing the package imports `blas`, which records OpenBLAS's thread
count as the shard budget and sets OpenBLAS to one thread for the whole
process, before any of its products runs.
"""

import importlib

importlib.import_module(f"{__name__}.blas")

__version__ = "0.1.0"
