"""Corpus ingestion: read the two CSV files, attach labels, merge, and
shuffle deterministically. Splitting is done later on the encoded cache,
by `cli._load_data` (which raises `EmptySplit`).

Only each article's title and text leave the CSV reader. The subject and
date columns must be in the header, as in the corpus, but are never read:
subject nearly gives away the label, so no later stage can see it.

Label convention: fake = 1 (the positive class is the thing being
detected), true = 0.
"""

from __future__ import annotations

import csv
import os

from .numerics import Prng

REQUIRED_COLUMNS = ("title", "text", "subject", "date")


class MissingColumn(ValueError):
    pass


class MalformedRow(ValueError):
    pass


class EmptySplit(ValueError):
    pass


def load_articles(path):
    """One (title, body) pair per data row; rows with empty text are kept.
    CSV dialect is RFC 4180, UTF-8 with replacement on bad bytes; a
    byte-order mark before the header, as Excel writes, is skipped. A
    field may be as long as the file: the csv module's field size limit
    is raised to the file's size when that is larger."""
    articles = []
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as f:
        size = os.fstat(f.fileno()).st_size
        if size > csv.field_size_limit():
            csv.field_size_limit(size)
        reader = csv.reader(f, strict=True)
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise MalformedRow(f"{path}: row 1: {e}") from None
        if header is None:
            raise MissingColumn(f"{path}: empty file, no header")
        cols = {name.strip().lower(): i for i, name in enumerate(header)}
        for required in REQUIRED_COLUMNS:
            if required not in cols:
                raise MissingColumn(f"{path}: header lacks column '{required}'")
        try:
            for row in reader:
                if not row:
                    continue
                # More fields than the header means an unquoted comma
                # shifted the columns, as surely as fewer does.
                if len(row) != len(header):
                    raise MalformedRow(
                        f"{path}: row {reader.line_num}: expected "
                        f"{len(header)} fields, got {len(row)}")
                articles.append((row[cols["title"]], row[cols["text"]]))
        except csv.Error as e:
            raise MalformedRow(f"{path}: row {reader.line_num}: {e}") from None
    return articles


def merge_shuffle(fake, true_, seed):
    """(title, body, label) for every fake (label 1) then true (label 0)
    pair, Fisher-Yates shuffled with the engine PRNG; the permutation is a
    pure function of the seed."""
    records = ([(t, b, 1) for t, b in fake]
               + [(t, b, 0) for t, b in true_])
    Prng(seed).shuffle(records)
    return records
