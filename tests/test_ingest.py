import csv
from pathlib import Path

import numpy as np
import pytest

from seqveritas import textprep
from seqveritas.cli import TRAIN_FRAC, _load_data
from seqveritas.ingest import (EmptySplit, MalformedRow, MissingColumn,
                               load_articles, merge_shuffle)
from seqveritas.numerics import Prng
from tests.conftest import TOY_FAKE, TOY_TRUE


def write(tmp_path, text, name="x.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


HEADER = "title,text,subject,date\n"


def test_load_basic(tmp_path):
    path = write(tmp_path, HEADER + "t1,body one,news,2017\nt2,body two,news,2018\n")
    assert load_articles(path) == [("t1", "body one"), ("t2", "body two")]


def test_load_header_only(tmp_path):
    path = write(tmp_path, HEADER)
    assert load_articles(path) == []


def test_load_empty_file_is_a_missing_header(tmp_path):
    with pytest.raises(MissingColumn, match="empty file, no header"):
        load_articles(write(tmp_path, ""))


def test_load_header_the_csv_module_rejects_is_row_1(tmp_path):
    # strict: a quoted field must end at a delimiter
    path = write(tmp_path, '"title"x,text,subject,date\nt,b,s,2017\n')
    with pytest.raises(MalformedRow, match="row 1: "):
        load_articles(path)


def test_load_skips_a_blank_row(tmp_path):
    path = write(tmp_path, HEADER + "t1,b1,news,2017\n\nt2,b2,news,2017\n")
    assert load_articles(path) == [("t1", "b1"), ("t2", "b2")]


def test_load_rfc4180_quoting(tmp_path):
    path = write(tmp_path, HEADER + '"A, B title",body,news,2017\n')
    assert load_articles(path) == [("A, B title", "body")]


def test_load_quoted_newline(tmp_path):
    path = write(tmp_path, HEADER + '"line\nbreak",body,news,2017\n')
    assert load_articles(path) == [("line\nbreak", "body")]


def test_load_column_order_free(tmp_path):
    path = write(tmp_path, "date,subject,text,title\n2017,news,the body,the title\n")
    assert load_articles(path) == [("the title", "the body")]


def test_missing_column(tmp_path):
    path = write(tmp_path, "title,text,subject\nt,b,s\n")
    with pytest.raises(MissingColumn):
        load_articles(path)


def test_malformed_row_reports_row_number(tmp_path):
    path = write(tmp_path, HEADER + 'ok,b,s,2017\n"unbalanced,b\n')
    with pytest.raises(MalformedRow) as exc:
        load_articles(path)
    assert "row" in str(exc.value)


@pytest.mark.parametrize("row", [
    "A, B title,real body,news,2017",  # an unquoted comma: one field too many
    "t,b,s",                           # one field too few
], ids=["extra", "short"])
def test_row_with_another_field_count_is_refused(tmp_path, row):
    # before: the extra row loaded as title 'A', body ' B title'
    path = write(tmp_path, HEADER + "ok,b,s,2017\n" + row + "\n")
    with pytest.raises(MalformedRow) as exc:
        load_articles(path)
    assert "row 3" in str(exc.value)
    assert "expected 4 fields" in str(exc.value)


def test_degenerate_rows_kept(tmp_path):
    path = write(tmp_path, HEADER + "t1,,news,2017\nt2,real body,news,2017\n")
    assert load_articles(path) == [("t1", ""), ("t2", "real body")]


def _toy_pairs(n, prefix):
    return [(f"{prefix}t{i}", f"{prefix}b{i}") for i in range(n)]


def _labels(merged):
    return sorted(label for _, _, label in merged)


def test_merge_shuffle_counts_and_determinism():
    fake, true_ = _toy_pairs(5, "f"), _toy_pairs(7, "r")
    m1 = merge_shuffle(fake, true_, seed=9)
    m2 = merge_shuffle(fake, true_, seed=9)
    assert len(m1) == 12
    assert _labels(m1) == [0] * 7 + [1] * 5
    assert m1 == m2


@pytest.mark.parametrize("seed", [0, 1, 9, 42])
def test_merge_shuffle_is_the_seeded_permutation(seed):
    # fake rows get label 1 and true rows 0, and the order is exactly
    # Prng(seed)'s Fisher-Yates permutation of fake-then-true
    fake, true_ = _toy_pairs(6, "f"), _toy_pairs(9, "r")
    unshuffled = ([(t, b, 1) for t, b in fake]
                  + [(t, b, 0) for t, b in true_])
    order = list(range(len(unshuffled)))
    Prng(seed).shuffle(order)
    assert merge_shuffle(fake, true_, seed) == [unshuffled[i] for i in order]


def test_merge_shuffle_empty():
    assert merge_shuffle([], [], seed=1) == []


def test_merge_shuffle_seed_changes_order():
    fake, true_ = _toy_pairs(20, "f"), _toy_pairs(20, "r")
    assert merge_shuffle(fake, true_, seed=1) != merge_shuffle(fake, true_,
                                                               seed=2)


# The split is taken on the encoded cache by cli._load_data: the leading
# TRAIN_FRAC of prepare's shuffled order versus the tail.

def _cache(tmp_path, n, maxlen=3):
    path = str(tmp_path / "c.svec")
    seqs = np.arange(n * maxlen).reshape(n, maxlen) % 50
    textprep.write_cache(path, seqs, np.arange(n) % 2, 50, maxlen)
    textprep.save_vocab(path + ".vocab.json",
                        textprep.Vocabulary([f"t{i}" for i in range(48)]))
    return path


def test_split_floor_arithmetic(tmp_path):
    assert TRAIN_FRAC == 0.8
    splits, _ = _load_data(_cache(tmp_path, 10))
    (train_x, train_y), (val_x, val_y) = splits["train"], splits["val"]
    assert (len(train_x), len(train_y), len(val_x), len(val_y)) == (8, 8, 2, 2)


def test_split_partition(tmp_path):
    path = _cache(tmp_path, 25)
    splits, _ = _load_data(path)
    (train_x, train_y), (val_x, val_y) = splits["train"], splits["val"]
    assert len(train_x) == int(TRAIN_FRAC * 25)
    x, y, _ = textprep.read_cache(path)
    assert np.array_equal(np.concatenate([train_x, val_x]), x)
    assert np.array_equal(np.concatenate([train_y, val_y]), y)
    assert np.array_equal(splits["all"][0], x)
    assert np.array_equal(splits["all"][1], y)


def test_split_deterministic(tmp_path):
    path = _cache(tmp_path, 30)
    (a, vocab_a), (b, vocab_b) = _load_data(path), _load_data(path)
    assert vocab_a.tokens == vocab_b.tokens
    for split in ("train", "val", "all"):
        for u, v in zip(a[split], b[split]):
            assert np.array_equal(u, v)


def test_split_empty_side(tmp_path):
    with pytest.raises(EmptySplit):
        _load_data(_cache(tmp_path, 1))


def test_toy_fixture_counts(toy_articles):
    fake, true_ = toy_articles
    assert len(fake) == 10 and len(true_) == 10
    merged = merge_shuffle(fake, true_, seed=42)
    assert _labels(merged) == [0] * 10 + [1] * 10


@pytest.mark.parametrize("fixture", [TOY_FAKE, TOY_TRUE],
                         ids=["fake", "true"])
def test_a_byte_order_mark_before_the_header_is_skipped(tmp_path, fixture):
    # Excel's "CSV UTF-8" starts the file with the UTF-8 BOM
    plain = Path(fixture).read_bytes()
    assert not plain.startswith(b"\xef\xbb\xbf")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain)
    assert load_articles(str(bom)) == load_articles(fixture)


def test_a_field_longer_than_the_csv_default_limit_loads_whole(
        tmp_path, default_csv_field_limit):
    body = ("lorem ipsum " * 20_000)[:200_000]
    assert len(body) > default_csv_field_limit
    path = write(tmp_path, HEADER + f"t1,{body},news,2017\nt2,b,news,2018\n")
    assert load_articles(path) == [("t1", body), ("t2", "b")]
    assert csv.field_size_limit() == default_csv_field_limit
    # restored also when the read fails, here on a row of too few fields
    path = write(tmp_path, HEADER + f"t1,{body},news,2017\nt2,b\n")
    with pytest.raises(MalformedRow):
        load_articles(path)
    assert csv.field_size_limit() == default_csv_field_limit
