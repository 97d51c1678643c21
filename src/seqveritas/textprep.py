"""Text preprocessing: clean, tokenize, stop-word removal, stemming,
vocabulary construction, and fixed-length integer encoding.

Model input is title + " " + body. The subject column is deliberately
excluded: in this corpus it nearly determines the label, so feeding it to
the model would be a distribution leak rather than a learned signal.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from importlib import resources
from itertools import filterfalse, repeat

import numpy as np

from . import porter

PAD_INDEX = 0
OOV_INDEX = 1

DEFAULT_MAXLEN = 200          # covers >80% of article bodies post-cleaning
DEFAULT_MAX_VOCAB = 20_000
DEFAULT_MIN_FREQ = 2

# Byte -> itself for [a-z0-9], else a space: `clean`'s one table.
_KEEP = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 0x20
              for b in range(256))

CACHE_MAGIC = b"SVEC1"
# The most bytes of records, N x (4 maxlen + 1), that `prepare` encodes:
# 1 GiB, 30 times the paper corpus' at maxlen 200. At its peak `prepare`
# holds about twice its records' bytes, the encoded rows and the records
# (tracemalloc, the 20 toy articles at maxlen 10^5 and 10^6: 2.03 and
# 2.00 times).
MAX_CACHE_BYTES = 1 << 30


class CacheFormatError(ValueError):
    pass


def load_stopwords():
    """The shipped 174-word English stop-list, one token per line."""
    text = resources.files("seqveritas.data").joinpath("stopwords.txt").read_text()
    return frozenset(text.split())


_STOPWORDS = load_stopwords()


def clean(raw):
    """`str.lower()`, then the maximal runs of ASCII [a-z0-9] joined by
    single spaces: every other code point separates, non-ASCII letters
    and digits included.

    Lowering comes first, so a code point whose lowercase is ASCII (the
    Kelvin sign) is kept; the ASCII encoding turns each other non-ASCII
    code point into one `?`, which the table maps to a space."""
    kept = raw.lower().encode("ascii", "replace").translate(_KEEP)
    return b" ".join(kept.split()).decode("ascii")


def tokenize(cleaned):
    return cleaned.split()


def remove_stopwords(tokens):
    return list(filterfalse(_STOPWORDS.__contains__, tokens))


# Token -> stem for every non-stop-word token seen in this process. Cleared
# when it reaches STEM_MEMO_CAP entries, so a long-lived process (say
# `predict --stdin`) holds at most that many: about 15 MB of 9-letter
# tokens.
STEM_MEMO_CAP = 1 << 17
_stems = {}


def preprocess(title, body):
    """Full pipeline for one article: clean -> tokenize -> de-stopword -> stem.

    Stems are memoised per process in `_stems`: one lookup of every token,
    then `porter.stem` for the tokens that missed."""
    tokens = remove_stopwords(tokenize(clean(title + " " + body)))
    out = list(map(_stems.get, tokens))
    if not all(out):  # a miss left a None; no stem is empty
        for i, s in enumerate(out):
            if s is None:
                # again: an earlier miss in this article may have memoised it
                t = tokens[i]
                s = _stems.get(t)
                if s is None:
                    if len(_stems) >= STEM_MEMO_CAP:
                        _stems.clear()
                    s = _stems[t] = porter.stem(t)
                out[i] = s
    return out


class Vocabulary:
    """Token-to-index map. Index 0 is PAD, index 1 is OOV; real tokens
    occupy contiguous indices starting at 2. A token that is not a str or
    that repeats raises TypeError."""

    def __init__(self, tokens_in_order):
        self._tokens = list(tokens_in_order)
        n = len(self._tokens)
        # empty unless every token is a str (a list is not hashable), and
        # shorter than the tokens when one repeats
        self._index = (dict(zip(self._tokens, range(2, n + 2)))
                       if set(map(type, self._tokens)) <= {str} else {})
        if len(self._index) != n:
            raise TypeError("a vocabulary is an object with a list of "
                            "distinct str tokens")

    def __len__(self):
        return len(self._index) + 2  # PAD and OOV

    def index_of(self, token):
        return self._index.get(token, OOV_INDEX)

    @property
    def tokens(self):
        """Real tokens in index order (index 2 first)."""
        return list(self._tokens)


def build_vocab(corpus, max_size=DEFAULT_MAX_VOCAB, min_freq=DEFAULT_MIN_FREQ):
    """Rank tokens by frequency desc, ties lexicographic asc; keep the top
    (max_size - 2) with frequency >= min_freq.

    `corpus` must be the training split only; building from validation data
    would leak vocabulary. A max_size below 2 (PAD and OOV), which the
    slice below would count from the end, or a min_freq below 1 raises
    ValueError, as the `prepare` flags refuse them.
    """
    if not (max_size >= 2 and min_freq >= 1):
        raise ValueError("build_vocab needs max_size >= 2 and min_freq >= 1")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    # Sorted by token, then stably by count desc: the order of the key
    # (-freq, token), with no Python call per key.
    kept = sorted([tok for tok, freq in counts.items() if freq >= min_freq])
    kept.sort(key=counts.__getitem__, reverse=True)
    return Vocabulary(kept[:max_size - 2])


def encode(tokens, vocab, maxlen):
    """Fixed-length index sequence: OOV -> 1, tail truncation, pre-padding.

    Maps the vocabulary dict's `get` over the tokens: the same answers as
    `Vocabulary.index_of`, without a Python call per token."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    idx = list(map(vocab._index.get, tokens[-maxlen:], repeat(OOV_INDEX)))
    return [PAD_INDEX] * (maxlen - len(idx)) + idx


# --- encoded-dataset cache file --------------------------------------------
# Layout: magic "SVEC1"; maxlen, V, N as little-endian u32; then N packed
# records of maxlen little-endian u32 indices, each below V, followed by
# one label byte, 0 (true) or 1 (fake).
_HEADER = struct.Struct("<5sIII")
CACHE_FIELD_LIMIT = 1 << 32  # maxlen, V and N are below it


def cache_record_bytes(maxlen):
    """The bytes of one record: maxlen u32 indices and a label byte."""
    return 4 * maxlen + 1


def _records(buffer, n, maxlen, offset=0):
    """(indices, labels): <u4 and u1 views of the n records at `offset`."""
    records = np.frombuffer(buffer, np.uint8, offset=offset).reshape(
        n, cache_record_bytes(maxlen))
    return records[:, :-1].view("<u4"), records[:, -1]


def write_cache(path, sequences, labels, vocab_size, maxlen):
    """A cache `read_cache` reads back; before `path` is opened, raises
    ValueError for a maxlen, V or N that a u32 cannot hold, indices not of
    an integer type or not all in [0, vocab_size), and a label other than
    0 or 1."""
    sequences = np.asarray(sequences)
    labels = np.asarray(labels)
    n = sequences.shape[0]
    if not all(0 <= v < CACHE_FIELD_LIMIT for v in (maxlen, vocab_size, n)):
        raise ValueError(f"{path}: a maxlen, V or N outside [0, 2^32)")
    if sequences.shape != (n, maxlen) or labels.shape != (n,):
        raise ValueError("sequences/labels shape mismatch")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    if sequences.size and not (sequences.dtype.kind in "iu"
                               and sequences.min() >= 0
                               and sequences.max() < vocab_size):
        raise ValueError(f"{path}: an index not an int in [0, {vocab_size})")
    header = _HEADER.pack(CACHE_MAGIC, maxlen, vocab_size, n)
    body = bytearray(n * cache_record_bytes(maxlen))
    indices, flags = _records(body, n, maxlen)
    indices[...], flags[...] = sequences, labels
    with open(path, "wb") as f:
        f.writelines((header, body))


def read_cache(path):
    """(sequences Nxmaxlen uint32, labels N uint8, vocab_size), the stored
    types as read-only strided views of the file's bytes; a label byte not
    0 or 1, or an index not below vocab_size, raises CacheFormatError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    if len(blob) < _HEADER.size:
        raise CacheFormatError(f"{path}: truncated header")
    _, maxlen, vocab_size, n = _HEADER.unpack_from(blob)
    if len(blob) != _HEADER.size + n * cache_record_bytes(maxlen):
        raise CacheFormatError(f"{path}: truncated or oversized cache")
    seqs, labels = _records(blob, n, maxlen, _HEADER.size)
    if (labels > 1).any():
        raise CacheFormatError(f"{path}: a label byte is not 0 or 1")
    if seqs.size and seqs.max() >= vocab_size:
        raise CacheFormatError(f"{path}: an index outside [0, {vocab_size})")
    return seqs, labels, vocab_size


# --- vocabulary document: a checkpoint's "vocab", and the file beside a cache

def vocab_to_doc(vocab):
    return {"tokens": vocab.tokens}


def vocab_from_doc(doc):
    """The vocabulary `vocab_to_doc` gave; anything but an object with a
    list of distinct str `tokens` raises TypeError. Other keys are
    ignored, such as the `max_size` and `min_freq` of files written
    before the document held only the tokens."""
    if not (isinstance(doc, dict) and isinstance(doc.get("tokens"), list)):
        raise TypeError("a vocabulary is an object with a list of tokens")
    return Vocabulary(doc["tokens"])


def save_vocab(path, vocab):
    # One json.dumps, which has a C encoder, where json.dump streams its
    # chunks from the Python one: 2.4 against 6.8 ms for 20,000 tokens.
    with open(path, "w") as f:
        f.write(json.dumps(vocab_to_doc(vocab)))


def load_vocab(path):
    """The vocabulary `save_vocab` wrote; a file that is not JSON, or
    that `vocab_from_doc` refuses, raises ValueError naming it."""
    with open(path) as f:
        try:  # RecursionError: JSON nested too deep to parse
            return vocab_from_doc(json.load(f))
        except (ValueError, RecursionError, TypeError) as e:
            raise ValueError(f"{path}: not a vocabulary file ({e})") from None
