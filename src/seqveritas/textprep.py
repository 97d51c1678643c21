"""Text preprocessing: clean, tokenize, stop-word removal, stemming,
vocabulary construction, and fixed-length integer encoding.

Model input is title + " " + body. The subject column is deliberately
excluded: in this corpus it nearly determines the label, so feeding it to
the model would be a distribution leak rather than a learned signal.
"""

from __future__ import annotations

import json
import re
import struct
from collections import Counter
from importlib import resources

import numpy as np

from . import porter

PAD_INDEX = 0
OOV_INDEX = 1

DEFAULT_MAXLEN = 200          # covers >80% of article bodies post-cleaning
DEFAULT_MAX_VOCAB = 20_000
DEFAULT_MIN_FREQ = 2

_NON_ALNUM = re.compile(r"[^a-z0-9]+")

CACHE_MAGIC = b"SVEC1"


class CacheFormatError(ValueError):
    pass


def load_stopwords():
    """The shipped 174-word English stop-list, one token per line."""
    text = resources.files("seqveritas.data").joinpath("stopwords.txt").read_text()
    return frozenset(text.split())


_STOPWORDS = load_stopwords()


def clean(raw):
    """Lowercase, replace every char outside [a-z0-9 ] with a space,
    collapse whitespace runs, strip."""
    return _NON_ALNUM.sub(" ", raw.lower()).strip()


def tokenize(cleaned):
    return cleaned.split()


def remove_stopwords(tokens):
    return [t for t in tokens if t not in _STOPWORDS]


# Token -> stem for every non-stop-word token seen in this process. Cleared
# when it reaches STEM_MEMO_CAP entries, so a long-lived process (say
# `predict --stdin`) holds at most that many: about 15 MB of 9-letter
# tokens.
STEM_MEMO_CAP = 1 << 17
_stems = {}


def preprocess(title, body):
    """Full pipeline for one article: clean -> tokenize -> de-stopword -> stem.

    Stems are memoised per process in `_stems`."""
    tokens = remove_stopwords(tokenize(clean(title + " " + body)))
    out = []
    for t in tokens:
        s = _stems.get(t)
        if s is None:
            if len(_stems) >= STEM_MEMO_CAP:
                _stems.clear()
            s = _stems[t] = porter.stem(t)
        out.append(s)
    return out


class Vocabulary:
    """Token-to-index map. Index 0 is PAD, index 1 is OOV; real tokens
    occupy contiguous indices starting at 2."""

    def __init__(self, tokens_in_order, max_size=DEFAULT_MAX_VOCAB,
                 min_freq=DEFAULT_MIN_FREQ):
        self.max_size = max_size
        self.min_freq = min_freq
        self._index = {tok: i + 2 for i, tok in enumerate(tokens_in_order)}
        self._tokens = list(tokens_in_order)

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
    would leak vocabulary.
    """
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, freq in ranked if freq >= min_freq][:max_size - 2]
    return Vocabulary(kept, max_size=max_size, min_freq=min_freq)


def encode(tokens, vocab, maxlen):
    """Fixed-length index sequence: OOV -> 1, tail truncation, pre-padding.

    Looks tokens up through the vocabulary's dict directly: the same
    answers as `Vocabulary.index_of`, without a method call per token."""
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    lookup = vocab._index.get
    idx = [lookup(t, OOV_INDEX) for t in tokens[-maxlen:]]
    return [PAD_INDEX] * (maxlen - len(idx)) + idx


# --- encoded-dataset cache file --------------------------------------------
# Layout: magic "SVEC1"; maxlen, V, N as little-endian u32; then N packed
# records of maxlen little-endian u32 indices followed by one label byte,
# 0 (true) or 1 (fake).

def _record_dtype(maxlen):
    return np.dtype([("seq", "<u4", (maxlen,)), ("label", "u1")])


def write_cache(path, sequences, labels, vocab_size, maxlen):
    sequences = np.asarray(sequences, dtype=np.uint32)
    labels = np.asarray(labels)
    n = sequences.shape[0]
    if sequences.shape != (n, maxlen) or labels.shape != (n,):
        raise ValueError("sequences/labels shape mismatch")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    records = np.empty(n, dtype=_record_dtype(maxlen))
    records["seq"] = sequences
    records["label"] = labels
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<III", maxlen, vocab_size, n))
        f.write(records.tobytes())


def read_cache(path):
    """Returns (sequences Nxmaxlen uint32, labels N uint8, vocab_size): the
    stored types, as read-only views of the file's bytes. A label byte
    other than 0 or 1, or an index not below vocab_size, raises
    CacheFormatError."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:5] != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic")
    if len(blob) < 5 + 12:
        raise CacheFormatError(f"{path}: truncated header")
    maxlen, vocab_size, n = struct.unpack_from("<III", blob, 5)
    record = _record_dtype(maxlen)
    if len(blob) != 5 + 12 + n * record.itemsize:
        raise CacheFormatError(f"{path}: truncated or oversized cache")
    records = np.frombuffer(blob, dtype=record, count=n, offset=17)
    seqs, labels = records["seq"], records["label"]
    if (labels > 1).any():
        raise CacheFormatError(f"{path}: a label byte is not 0 or 1")
    if seqs.size and seqs.max() >= vocab_size:
        raise CacheFormatError(
            f"{path}: a sequence index outside [0, {vocab_size})")
    return seqs, labels, vocab_size


# --- vocabulary document: a checkpoint's "vocab", and the file beside a cache

def vocab_to_doc(vocab):
    return {"tokens": vocab.tokens, "max_size": vocab.max_size,
            "min_freq": vocab.min_freq}


def vocab_from_doc(doc):
    """The vocabulary `vocab_to_doc` gave; anything but an object with a
    list of str `tokens` and int `max_size` and `min_freq` raises
    TypeError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("tokens"), list)
            and all(isinstance(t, str) for t in doc["tokens"])
            and type(doc.get("max_size")) is int
            and type(doc.get("min_freq")) is int):
        raise TypeError("a vocabulary is an object with a list of str "
                        "tokens and int max_size and min_freq")
    return Vocabulary(doc["tokens"], max_size=doc["max_size"],
                      min_freq=doc["min_freq"])


def save_vocab(path, vocab):
    # keys sorted: the order vocabulary files have always had. One
    # json.dumps, which has a C encoder, where json.dump streams its chunks
    # from the Python one: 2.4 against 6.8 ms for 20,000 tokens.
    with open(path, "w") as f:
        f.write(json.dumps(vocab_to_doc(vocab), sort_keys=True))


def load_vocab(path):
    """The vocabulary `save_vocab` wrote; a file that is not JSON, or
    that `vocab_from_doc` refuses, raises ValueError naming it."""
    with open(path) as f:
        try:  # RecursionError: JSON nested too deep to parse
            return vocab_from_doc(json.load(f))
        except (ValueError, RecursionError, TypeError) as e:
            raise ValueError(f"{path}: not a vocabulary file ({e})") from None
