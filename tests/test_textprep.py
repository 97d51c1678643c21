import hashlib
import json
import re
import struct
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqveritas import porter, textprep
from seqveritas.textprep import (OOV_INDEX, PAD_INDEX, Vocabulary,
                                 build_vocab, clean, encode, load_stopwords,
                                 read_cache, remove_stopwords, tokenize,
                                 write_cache)

# Pins the exact shipped stop-list; changing the file must fail this test.
STOPWORDS_SHA256 = "4fa1320294617a8c085f900e8b706a791fa9c2d461c273f419273aa5992a6a0a"


def test_clean_examples():
    assert clean("Hello, World!") == "hello world"
    assert clean("") == ""
    assert clean("U.S. 2024!!") == "u s 2024"


def test_clean_collapses_whitespace():
    assert clean("  a\t\n b   c ") == "a b c"


@given(st.text(max_size=200))
def test_clean_idempotent(s):
    assert clean(clean(s)) == clean(s)


@given(st.text(max_size=200))
def test_clean_alphabet(s):
    out = clean(s)
    assert all(c.islower() or c.isdigit() or c == " " for c in out)
    assert "  " not in out


def _regex_clean(s):
    """The regular expression `clean` once ran, kept as its oracle."""
    return re.sub("[^a-z0-9]+", " ", s.lower()).strip()


# Code points where lowering and ASCII meet: the Kelvin sign lowers to
# ASCII "k", "İ" to "i" and a combining dot, "ẞ" to "ß"; a fullwidth
# digit, a no-break space, combining marks, an emoji and lone surrogates
# must each separate tokens.
_TRICKY = st.text(alphabet=st.sampled_from(
    list("aZk9 .-_?\t\n") + ["\u212a", "\u0130", "\u00df", "\u1e9e",
                            "\uff11", "\uff21", "\u00a0", "\u0301",
                            "\u0307", "\u00e9", "\ud800", "\udfff",
                            "\U0001f600"]),
    max_size=60)


@given(st.one_of(st.text(), _TRICKY))
def test_clean_equals_the_regex_rule(s):
    assert clean(s) == _regex_clean(s)


def test_clean_keeps_what_lowers_to_ascii_and_splits_the_rest():
    assert clean("\u212aelvin") == "kelvin"              # Kelvin sign
    assert clean("\u0130stanbul") == "i stanbul"         # İ: i + U+0307
    assert clean("abc\uff11\uff12def") == "abc def"      # fullwidth digits
    assert clean("caf\u00e9 na\u00efve") == "caf na ve"
    assert clean("x\ud800y\U0001f600z") == "x y z"


def test_tokenize():
    assert tokenize("hello world") == ["hello", "world"]
    assert tokenize("") == []
    assert tokenize("a a a") == ["a", "a", "a"]


def test_stopword_removal():
    assert remove_stopwords(["the", "cat", "and", "dog"]) == ["cat", "dog"]
    assert remove_stopwords(["cat"]) == ["cat"]
    assert remove_stopwords([]) == []


def test_stoplist_size_and_hash():
    words = load_stopwords()
    assert len(words) == 174
    raw = resources.files("seqveritas.data").joinpath("stopwords.txt").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    assert digest == ("%s" % STOPWORDS_SHA256)


def test_build_vocab_capacity():
    corpus = [["a"] * 3 + ["b"] * 2 + ["c"]]
    v = build_vocab(corpus, max_size=4, min_freq=1)
    assert v.index_of("a") == 2
    assert v.index_of("b") == 3
    assert v.index_of("c") == OOV_INDEX  # evicted by capacity


def test_build_vocab_min_freq():
    v = build_vocab([["a"]], max_size=10, min_freq=2)
    assert len(v) == 2  # only PAD and OOV


def test_build_vocab_tie_break():
    v = build_vocab([["b", "b", "a", "a", "z"]], max_size=3, min_freq=1)
    # lexicographic tie-break, capacity 1
    assert v.index_of("a") == 2 and v.index_of("b") == OOV_INDEX


def test_build_vocab_deterministic():
    corpus = [["x", "y", "x"], ["z", "y"]]
    v1 = build_vocab(corpus, max_size=10, min_freq=1)
    v2 = build_vocab(corpus, max_size=10, min_freq=1)
    assert v1.tokens == v2.tokens


def _ranked(corpus, max_size, min_freq):
    """`build_vocab`'s tokens by the sort it once ran, kept as its oracle."""
    counts = Counter(t for tokens in corpus for t in tokens)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [tok for tok, freq in ranked if freq >= min_freq][:max_size - 2]


# Up to 39 distinct tokens over up to 200 draws: most counts are tied.
_TIED = st.lists(st.lists(st.text(alphabet="ab1", min_size=1, max_size=3),
                          max_size=20), max_size=10)


@given(_TIED, st.integers(min_value=2, max_value=45),
       st.integers(min_value=1, max_value=4))
def test_build_vocab_equals_the_keyed_sort(corpus, max_size, min_freq):
    v = build_vocab(corpus, max_size=max_size, min_freq=min_freq)
    assert v.tokens == _ranked(corpus, max_size, min_freq)


@pytest.mark.parametrize("tokens", [[1, 2, 3], ["a", b"b"], [["a"]]],
                         ids=["int_tokens", "bytes_token", "list_token"])
def test_vocabulary_refuses_what_no_vocabulary_file_holds(tokens):
    # no vocabulary file or checkpoint holds these
    with pytest.raises(TypeError, match="a vocabulary is an object"):
        Vocabulary(tokens)


@pytest.mark.parametrize("sizes", [
    {"max_size": 0}, {"max_size": 1}, {"min_freq": 0}, {"min_freq": -1}],
    ids=["max_size_0", "max_size_1", "min_freq_0", "min_freq_-1"])
def test_vocabulary_refuses_sizes_out_of_range(sizes):
    # before: build_vocab at max_size 1 kept tokens[:-1], a 4-entry
    # vocabulary from 3 tokens. The sizes choose the tokens and are not
    # stored, so a vocabulary file's are not read (see
    # test_load_vocab_reads_only_the_tokens).
    sizes = {"max_size": 10, "min_freq": 1, **sizes}
    with pytest.raises(ValueError, match="max_size >= 2 and min_freq >= 1"):
        build_vocab([["a", "b", "c"]], **sizes)


def test_vocabulary_refuses_a_repeated_token(tmp_path):
    # before: `len` 4 but "cat" at index 4, so a model built on it could
    # not score "cat"
    message = "a list of distinct str tokens"
    with pytest.raises(TypeError, match=message):
        Vocabulary(["cat", "dog", "cat"])
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"tokens": ["cat", "dog", "cat"]}))
    with pytest.raises(ValueError, match="not a vocabulary file.*" + message):
        textprep.load_vocab(str(path))


def test_encode_prepad():
    v = Vocabulary(["cat"])
    assert encode(["cat"], v, 3) == [PAD_INDEX, PAD_INDEX, 2]


def test_encode_oov():
    v = Vocabulary([])
    assert encode(["x"], v, 1) == [OOV_INDEX]


def test_encode_tail_truncation():
    v = Vocabulary(["a", "b", "c", "d"])
    assert encode(["a", "b", "c", "d"], v, 2) == [4, 5]


@pytest.mark.parametrize("maxlen", [0, -1])
def test_encode_refuses_a_maxlen_below_1(maxlen):
    with pytest.raises(ValueError, match="maxlen must be >= 1"):
        encode(["a"], Vocabulary(["a"]), maxlen)


@given(st.lists(st.sampled_from(["cat", "dog", "xyz"]), max_size=30),
       st.integers(min_value=1, max_value=12))
def test_encode_length_always_maxlen(tokens, maxlen):
    v = Vocabulary(["cat", "dog"])
    out = encode(tokens, v, maxlen)
    assert len(out) == maxlen
    assert all(i < len(v) for i in out)
    # pre-padding: PAD only as a contiguous prefix
    tail = [i for i in out if i != PAD_INDEX]
    assert out[len(out) - len(tail):] == tail


@given(st.lists(st.sampled_from(["cat", "dog", "xyz", "", "a b"]),
                max_size=30),
       st.lists(st.sampled_from(["cat", "dog", "a b", "emu"]), unique=True),
       st.integers(min_value=1, max_value=12))
def test_encode_matches_per_token_index_of(tokens, known, maxlen):
    v = Vocabulary(known)
    idx = [v.index_of(t) for t in tokens[-maxlen:]]
    assert encode(tokens, v, maxlen) == [PAD_INDEX] * (maxlen - len(idx)) + idx


def test_preprocess_pipeline():
    tokens = textprep.preprocess("The Running Mayor!", "cats and dogs, running.")
    assert tokens == ["run", "mayor", "cat", "dog", "run"]


@given(st.text(), st.text())
def test_preprocess_never_raises(title, body):
    assert all(isinstance(t, str) and t for t in textprep.preprocess(title, body))


def _unmemoised(title, body):
    return [porter.stem(t)
            for t in remove_stopwords(tokenize(clean(title + " " + body)))]


# Text over a small alphabet repeats words and stop-words often, so the
# memo is hit as well as missed.
_WORDY = st.text(alphabet="aeilnorstyz .,'", max_size=200)


@given(st.one_of(st.text(), _WORDY), st.one_of(st.text(), _WORDY))
def test_preprocess_equals_unmemoised_pipeline(title, body):
    assert textprep.preprocess(title, body) == _unmemoised(title, body)


def _count_stems(monkeypatch, on_call=lambda: None):
    calls = []
    real = porter.stem

    def counting(token):
        on_call()
        calls.append(token)
        return real(token)

    monkeypatch.setattr(porter, "stem", counting)
    monkeypatch.setattr(textprep, "_stems", {})
    return calls


TEXT = ("Running runners ran; the runner runs and running dogs ran to the "
        "dog's kennel, and the cats ran after the dogs")


def test_preprocess_stems_each_distinct_token_once(monkeypatch):
    calls = _count_stems(monkeypatch)
    first = textprep.preprocess("The runners", TEXT)
    second = textprep.preprocess("The runners", TEXT)
    distinct = set(remove_stopwords(tokenize(clean("The runners " + TEXT))))
    assert sorted(calls) == sorted(distinct)
    assert first == second == _unmemoised("The runners", TEXT)


def test_stem_memo_never_exceeds_its_cap(monkeypatch):
    expected = _unmemoised("", TEXT)
    monkeypatch.setattr(textprep, "STEM_MEMO_CAP", 3)
    sizes = []
    calls = _count_stems(monkeypatch, lambda: sizes.append(len(textprep._stems)))
    for _ in range(2):
        assert textprep.preprocess("", TEXT) == expected
        sizes.append(len(textprep._stems))
    distinct = len(set(calls))
    assert distinct > 3 and len(calls) > distinct  # cleared and refilled
    assert max(sizes) <= 3


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "c.svec")
    seqs = [[0, 1, 2], [3, 4, 5]]
    labels = [1, 0]
    write_cache(path, seqs, labels, vocab_size=6, maxlen=3)
    x, y, v = read_cache(path)
    assert np.array_equal(x, seqs)
    assert np.array_equal(y, labels)
    assert v == 6
    # the stored types, with no widening copy
    assert (x.dtype, y.dtype) == (np.uint32, np.uint8)


def test_cache_header_layout(tmp_path):
    path = str(tmp_path / "c.svec")
    write_cache(path, [[7, 8]], [1], vocab_size=9, maxlen=2)
    blob = Path(path).read_bytes()
    assert blob[:5] == b"SVEC1"
    assert int.from_bytes(blob[5:9], "little") == 2   # maxlen
    assert int.from_bytes(blob[9:13], "little") == 9  # vocab size
    assert int.from_bytes(blob[13:17], "little") == 1  # records


def test_cache_records_packed(tmp_path):
    # reference: each record written field by field, with no padding; the
    # largest vocabulary a u32 header holds, so every index below it reads
    path = str(tmp_path / "c.svec")
    seqs, labels = [[7, 8, 2**32 - 2], [0, 1, 65536]], [1, 0]
    write_cache(path, seqs, labels, vocab_size=2**32 - 1, maxlen=3)
    expected = b"".join(struct.pack("<3I", *row) + struct.pack("B", label)
                        for row, label in zip(seqs, labels))
    assert Path(path).read_bytes()[17:] == expected
    x, y, _ = read_cache(path)
    assert x.tolist() == seqs and y.tolist() == labels


def test_cache_truncation_detected(tmp_path):
    path = str(tmp_path / "c.svec")
    write_cache(path, [[7, 8]], [1], vocab_size=9, maxlen=2)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:-1])
    with pytest.raises(textprep.CacheFormatError):
        read_cache(path)


@pytest.mark.parametrize("labels", [[1, 2], [0, -1], [0.5, 1.0], [7, 200]])
def test_cache_write_refuses_labels_other_than_0_and_1(tmp_path, labels):
    path = tmp_path / "c.svec"
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        write_cache(str(path), [[7, 8], [2, 3]], labels, vocab_size=9,
                    maxlen=2)
    assert not path.exists()


@pytest.mark.parametrize("byte", [2, 7, 200, 255])
def test_cache_label_byte_other_than_0_and_1_detected(tmp_path, byte):
    path = str(tmp_path / "c.svec")
    write_cache(path, [[7, 8], [2, 3]], [1, 0], vocab_size=9, maxlen=2)
    blob = bytearray(Path(path).read_bytes())
    blob[-1] = byte  # the second record's label
    Path(path).write_bytes(blob)
    with pytest.raises(textprep.CacheFormatError, match="label"):
        read_cache(path)


@pytest.mark.parametrize("record", [0, 1])
def test_cache_index_at_the_vocabulary_size_detected(tmp_path, record):
    # write_cache refuses the index, so a valid cache is patched
    path = tmp_path / "c.svec"
    write_cache(str(path), [[0, 8], [2, 3]], [1, 0], vocab_size=9, maxlen=2)
    blob = bytearray(path.read_bytes())
    last = 17 + record * 9 + 4  # the record's last index
    blob[last:last + 4] = struct.pack("<I", 9)
    path.write_bytes(blob)
    with pytest.raises(textprep.CacheFormatError, match=r"outside \[0, 9\)"):
        read_cache(str(path))


@pytest.mark.parametrize("seqs", [[[0, 9]], np.array([[-1, 2]]),
                                  [[2.5, 2]]],
                         ids=["index_at_V", "int64_minus_1", "float"])
def test_cache_write_refuses_an_index_read_cache_refuses(tmp_path, seqs):
    # before: each was written: 9, and -1 as 4294967295, to a file that
    # read_cache refused, and 2.5 as 2
    path = tmp_path / "c.svec"
    with pytest.raises(ValueError, match=r"index not an int in \[0, 9\)"):
        write_cache(str(path), seqs, [1], vocab_size=9, maxlen=2)
    assert not path.exists()


def test_cache_refused_write_leaves_the_file_there(tmp_path):
    # before: the file was opened, and emptied, before the header was packed
    path = tmp_path / "c.svec"
    write_cache(str(path), [[1, 2]], [1], vocab_size=3, maxlen=2)
    written = path.read_bytes()
    with pytest.raises(ValueError):
        write_cache(str(path), [[1, 2]], [1], vocab_size=2**32, maxlen=2)
    assert path.read_bytes() == written


def test_header_only_cache_at_maxlen_2_31_reads_empty(tmp_path):
    # before: numpy refused to make a record dtype of more than 2^31 bytes
    path = tmp_path / "c.svec"
    path.write_bytes(struct.pack("<5sIII", b"SVEC1", 2**31, 5, 0))
    x, y, v = read_cache(str(path))
    assert (x.shape, y.shape, v) == ((0, 2**31), (0,), 5)
    assert (x.dtype, y.dtype) == (np.uint32, np.uint8)


@pytest.fixture(scope="module")
def old_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cache") / "c.svec"


# indices and V around the edges of [0, V) and of a u32
_EDGES = st.sampled_from([-1, 0, 1, 2, 3, 2**32 - 1, 2**32, 2**63 - 1])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), maxlen=st.integers(0, 3), n=st.integers(0, 3),
       vocab_size=_EDGES | st.integers(-2, 6),
       dtype=st.sampled_from([np.int64, np.float64]))
def test_write_cache_writes_what_read_cache_reads_or_nothing(
        old_file, data, maxlen, n, vocab_size, dtype):
    values = st.integers(-2, 6) | _EDGES
    if dtype is np.float64:
        values |= st.sampled_from([0.5, 2.5])
    seqs = np.array(data.draw(st.lists(
        st.lists(values, min_size=maxlen, max_size=maxlen),
        min_size=n, max_size=n)), dtype=dtype).reshape(n, maxlen)
    labels = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    # indices of an integer type, unless there are none
    valid = (0 <= vocab_size < 2**32 and set(labels) <= {0, 1}
             and (dtype is np.int64 or seqs.size == 0)
             and all(0 <= i < vocab_size for i in seqs.flat))
    old_file.write_bytes(b"an earlier file")
    try:
        write_cache(str(old_file), seqs, labels, vocab_size, maxlen)
    except ValueError:
        assert not valid
        assert old_file.read_bytes() == b"an earlier file"
        return
    assert valid
    x, y, v = read_cache(str(old_file))
    assert x.shape == seqs.shape and np.array_equal(x, seqs)
    assert y.tolist() == labels and v == vocab_size


def test_cache_indices_below_the_vocabulary_size_read(tmp_path):
    path = str(tmp_path / "c.svec")
    write_cache(path, [[0, 8], [8, 1]], [1, 0], vocab_size=9, maxlen=2)
    x, _, v = read_cache(path)
    assert x.tolist() == [[0, 8], [8, 1]] and v == 9


def test_empty_cache_reads(tmp_path):
    path = str(tmp_path / "c.svec")
    write_cache(path, np.zeros((0, 3)), [], vocab_size=2, maxlen=3)
    x, y, v = read_cache(path)
    assert (x.shape, y.shape, v) == ((0, 3), (0,), 2)


@pytest.mark.parametrize("size", range(5, 17))
def test_cache_short_header_detected(tmp_path, size):
    # the magic, then fewer than the 12 bytes of maxlen, V and N
    path = str(tmp_path / "c.svec")
    Path(path).write_bytes((b"SVEC1" + b"abc" * 4)[:size])
    with pytest.raises(textprep.CacheFormatError):
        read_cache(path)


@pytest.mark.parametrize("magic", [b"SVEC2", b"", b"\x00" * 8])
def test_cache_with_another_magic_detected(tmp_path, magic):
    path = tmp_path / "c.svec"
    path.write_bytes(magic + bytes(12))
    with pytest.raises(textprep.CacheFormatError, match="bad magic"):
        read_cache(str(path))


@pytest.mark.parametrize("seqs, labels", [
    ([[1, 2, 3]], [1]), ([[1, 2]], [1, 0]), ([1, 2], [1])],
    ids=["maxlen", "labels", "one_row"])
def test_cache_write_refuses_mismatched_shapes(tmp_path, seqs, labels):
    path = tmp_path / "c.svec"
    with pytest.raises(ValueError, match="shape mismatch"):
        write_cache(str(path), seqs, labels, vocab_size=9, maxlen=2)
    assert not path.exists()


@pytest.mark.parametrize("vocab_size, maxlen", [
    (2**32, 2), (-1, 2), (9, 2**32), (9, -1)])
def test_cache_write_refuses_a_header_field_a_u32_cannot_hold(
        tmp_path, vocab_size, maxlen):
    # before: struct.error, which is not a ValueError, so the CLI did not
    # turn it into exit 2
    path = tmp_path / "c.svec"
    with pytest.raises(ValueError, match=re.escape("outside [0, 2^32)")):
        write_cache(str(path), np.zeros((0, 2), np.int64), [],
                    vocab_size=vocab_size, maxlen=maxlen)
    assert not path.exists()


@pytest.mark.parametrize("vocab_size, maxlen", [
    (2.0, 2), (True, 2), (9, 2.0), (9, True)])
def test_cache_write_refuses_a_header_field_that_is_not_an_integer(
        tmp_path, vocab_size, maxlen):
    # before: 2.0 passed the range check and raised struct.error, and True
    # was written as 1
    path = tmp_path / "c.svec"
    with pytest.raises(ValueError, match="not an integer"):
        write_cache(str(path), np.zeros((0, 2), np.int64), [],
                    vocab_size=vocab_size, maxlen=maxlen)
    assert not path.exists()


def test_vocab_save_load(tmp_path):
    v = build_vocab([["cat", "cat", "dog"]], max_size=10, min_freq=1)
    path = str(tmp_path / "v.json")
    textprep.save_vocab(path, v)
    assert Path(path).read_text() == '{"tokens": ["cat", "dog"]}'
    v2 = textprep.load_vocab(path)
    assert v2.tokens == v.tokens
    assert v2.index_of("cat") == v.index_of("cat")


@pytest.mark.parametrize("doc", [
    {"max_size": 10}, [1, 2], "tokens", None,
    {"tokens": ["a", 2], "max_size": 10, "min_freq": 1},
    {"tokens": "ab", "max_size": 10, "min_freq": 1},
    {"tokens": ["a", "a"]},
    {"tokens": [["a"]]},
    {"tokens": {"a": 2}},
])
def test_load_vocab_refuses_malformed(tmp_path, doc):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not a vocabulary file"):
        textprep.load_vocab(str(path))


@pytest.mark.parametrize("sizes", [
    {"max_size": 10, "min_freq": 1}, {"max_size": "10", "min_freq": 1},
    {"max_size": 10, "min_freq": 1.0}, {"max_size": True, "min_freq": 1}])
def test_load_vocab_reads_only_the_tokens(tmp_path, sizes):
    # files written before the document held only the tokens carry the
    # sizes that chose them, which no code reads
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"tokens": ["b", "a"], **sizes},
                               sort_keys=True))
    vocab = textprep.load_vocab(str(path))
    assert vocab.tokens == ["b", "a"] and len(vocab) == 4
    assert textprep.vocab_to_doc(vocab) == {"tokens": ["b", "a"]}


def test_vocab_leakage_guard(toy_encoded):
    # A vocabulary built from a training slice never contains tokens that
    # appear only in the held-out slice.
    x, y, vocab, maxlen = toy_encoded
    from seqveritas import ingest, textprep as tp
    fake = ingest.load_articles("tests/fixtures/toy_fake.csv")
    token_lists = [tp.preprocess(title, body) for title, body in fake]
    train, val = token_lists[:7], token_lists[7:]
    v = build_vocab(train, max_size=100, min_freq=1)
    train_tokens = {t for toks in train for t in toks}
    for tok in v.tokens:
        assert tok in train_tokens


def test_stem_idempotent_over_toy_vocab(toy_encoded):
    _, _, vocab, _ = toy_encoded
    for tok in vocab.tokens:
        assert porter.stem(tok) == tok  # already stemmed by the pipeline
