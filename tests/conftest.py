import base64
import csv
import json
import os
import signal
import struct
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from seqveritas import ingest, textprep

FIXTURES = Path(__file__).parent / "fixtures"

TOY_FAKE = str(FIXTURES / "toy_fake.csv")
TOY_TRUE = str(FIXTURES / "toy_true.csv")


@pytest.fixture(scope="session")
def toy_articles():
    return ingest.load_articles(TOY_FAKE), ingest.load_articles(TOY_TRUE)


@pytest.fixture(scope="session")
def toy_encoded(toy_articles):
    """The 20-example separable toy corpus, fully preprocessed and encoded."""
    fake, true_ = toy_articles
    merged = ingest.merge_shuffle(fake, true_, seed=42)
    token_lists = [textprep.preprocess(title, body)
                   for title, body, _ in merged]
    vocab = textprep.build_vocab(token_lists, max_size=100, min_freq=1)
    maxlen = 10
    x = np.array([textprep.encode(t, vocab, maxlen) for t in token_lists])
    y = np.array([label for _, _, label in merged], dtype=np.float64)
    return x, y, vocab, maxlen


@pytest.fixture
def default_csv_field_limit():
    """The csv module's field size limit at its default, 131,072, during
    the test, and as it was after it, whatever the test left it at."""
    before = csv.field_size_limit(131_072)
    yield 131_072
    csv.field_size_limit(before)


@pytest.fixture
def unzeroed_fill(monkeypatch):
    """Makes `numerics._aligned`, wherever seqveritas calls it, fill each
    array it is asked for unzeroed with one byte; returns the setter,
    `set_fill(byte)`, and the list of the shapes asked for unzeroed."""
    from seqveritas import layers, model_zoo, numerics
    aligned, unzeroed, fill = numerics._aligned, [], 0

    def filled(shape, dtype, zeroed=True):
        array = aligned(shape, dtype, zeroed)
        if not zeroed:
            unzeroed.append(shape)
            array.reshape(-1).view(np.uint8).fill(fill)
        return array

    def set_fill(byte):
        nonlocal fill
        fill = byte

    for module in (numerics, layers, model_zoo):
        monkeypatch.setattr(module, "_aligned", filled)
    return set_fill, unzeroed


def wait_for_child(pid, what, timeout=60):
    """The exit code of the forked child `pid`; kills it and fails the
    test, naming `what` it was doing, if it runs past `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.05)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"the forked child's {what} did not return")


def corpus_dir():
    """Optional path to the real Fake.csv/True.csv corpus (not shipped)."""
    return os.environ.get("SEQVERITAS_CORPUS_DIR")


needs_corpus = pytest.mark.skipif(
    corpus_dir() is None or not os.path.exists(
        os.path.join(corpus_dir() or "", "Fake.csv")),
    reason="set SEQVERITAS_CORPUS_DIR to the directory holding Fake.csv/True.csv")


# --- checkpoint reference reader and writer ----------------------------------
# Written from the version 6 layout alone, without model_zoo: an 8-byte
# little-endian header length n, n bytes of UTF-8 JSON, zero padding to the
# next multiple of 64, then the data section, where each tensor sits at its
# 64-aligned offset.

def read_container(path):
    """(header, byte position of the data section, the file's bytes)."""
    with open(path, "rb") as f:
        blob = f.read()
    (n,) = struct.unpack_from("<Q", blob)
    header = json.loads(blob[8:8 + n].decode("utf-8"))
    return header, 8 + n + (-(8 + n) % 64), blob


def container_bytes(header, data):
    """A container holding `header` and the data section `data`."""
    raw = json.dumps(header).encode("utf-8")
    return (struct.pack("<Q", len(raw)) + raw + bytes(-(8 + len(raw)) % 64)
            + data)


def write_bytes(path, data):
    with open(path, "wb") as f:
        f.write(data)


def edit_header(path, edit):
    """Rewrite the checkpoint at `path` with `edit` applied to its header
    and its data section unchanged."""
    header, start, blob = read_container(path)
    edit(header)
    write_bytes(path, container_bytes(header, blob[start:]))


def per_field_config(model):
    """`model`'s config as checkpoint versions 3 and 4 stored it: the
    values of its preset's `model_zoo.PRESETS` row spelled out beside the
    sizes, the vocabulary's among them, the seed and the dtype."""
    config = asdict(model.config)
    seed, dtype = config.pop("seed"), config.pop("dtype")
    return {**config, "vocab_size": len(model.vocab), **asdict(model.preset),
            "seed": seed, "dtype": dtype}


def json_checkpoint(model, version):
    """`model` as one JSON document, the layout of checkpoint versions 1-3:
    tensor data as decimal lists in version 1, base64 of the little-endian
    bytes after that."""
    def data(array):
        if version == 1:
            return array.reshape(-1).tolist()
        return base64.b64encode(array.astype("<f8").tobytes()).decode()

    return {
        "magic": "svchk", "version": version,
        "config": per_field_config(model),
        "vocab": {"tokens": model.vocab.tokens,
                  "max_size": textprep.DEFAULT_MAX_VOCAB,
                  "min_freq": textprep.DEFAULT_MIN_FREQ},
        "params": [{"name": p.name, "shape": list(p.value.shape),
                    "data": data(p.value)} for p in model.params],
        "running": {k: {"mean": data(r.mean), "var": data(r.var)}
                    for k, r in model.bn_running.items()},
    }
