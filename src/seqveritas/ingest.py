"""Corpus ingestion: read the two CSV files, attach labels, merge, and
shuffle deterministically. Splitting is done later on the encoded cache,
by `cli._load_data` (which raises `EmptySplit`).

Label convention: fake = 1 (the positive class is the thing being
detected), true = 0. The date column is carried through but never parsed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .numerics import Prng

REQUIRED_COLUMNS = ("title", "text", "subject", "date")


class MissingColumn(ValueError):
    pass


class MalformedRow(ValueError):
    pass


class EmptySplit(ValueError):
    pass


@dataclass(frozen=True)
class Article:
    title: str
    body: str
    subject: str
    date: str
    label: int
    degenerate: bool = False  # empty body; kept so corpus counts stay honest

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass
class Dataset:
    records: list = field(default_factory=list)

    def __len__(self):
        return len(self.records)

    def label_counts(self):
        fake = sum(1 for a in self.records if a.label == 1)
        return {"fake": fake, "true": len(self.records) - fake}


def load_articles(path, label):
    """One Article per data row; rows with empty text are kept but flagged
    degenerate. CSV dialect is RFC 4180, UTF-8 with replacement on bad bytes."""
    articles = []
    with open(path, encoding="utf-8", errors="replace", newline="") as f:
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
                body = row[cols["text"]]
                articles.append(Article(
                    title=row[cols["title"]],
                    body=body,
                    subject=row[cols["subject"]],
                    date=row[cols["date"]],
                    label=label,
                    degenerate=(body.strip() == ""),
                ))
        except csv.Error as e:
            raise MalformedRow(f"{path}: row {reader.line_num}: {e}") from None
    return articles


def merge_shuffle(fake, true_, seed):
    """Concatenate and Fisher-Yates shuffle with the engine PRNG; the
    permutation is a pure function of the seed."""
    records = list(fake.records) + list(true_.records)
    Prng(seed).shuffle(records)
    return Dataset(records)
