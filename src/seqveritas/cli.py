"""Operator surface: prepare | train | eval | predict | gradcheck.

Every subcommand writes exactly one JSON document to stdout (JSON lines
for streaming predict); diagnostics go to stderr. Exit codes: 0 success,
2 usage/config error, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import gradcheck as gradcheck_mod
from . import ingest, model_zoo, textprep
from .layers import IndexOutOfVocab
from .optim import TrainConfig, fit, predict_in_batches
from .objective import evaluate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFICATION = 4

TRAIN_FRAC = 0.8  # of prepare's shuffled records, the leading share trains


def _int_at_least(low, what, below=None):
    """An argparse type: an int of at least `low`, which `what` names, and
    below `below` when that is given."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"{text} is not below {below}")
        return value
    return integer


_positive_int = _int_at_least(1, "a positive integer")
# `Prng` takes its seed mod 2**64, so a seed outside [0, 2**64) would run
# exactly as another one under a different recorded config.
_seed = _int_at_least(0, "a non-negative integer", below=1 << 64)


def _emit(doc):
    """Print one JSON line and flush it; a NaN or infinity in `doc` would
    make invalid JSON, so it is a numerical failure instead."""
    try:
        line = json.dumps(doc, allow_nan=False)
    except ValueError as e:
        raise FloatingPointError(f"non-finite value in output: {e}") from None
    print(line, flush=True)


def _fail(msg, code=EXIT_USAGE):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _vocab_path(cache_path):
    return cache_path + ".vocab.json"


def _file_identity(path):
    """What two names of one file share: the (device, inode) of a file that
    exists, which a hard link or a symlink to it has too, else the real
    path its name resolves to."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(outputs, inputs):
    """Refuse an output path whose directory is missing, that is itself a
    directory, or that names an input or another output, before any input
    is read, not after the work whose result it would hold or destroy."""
    taken = {_file_identity(path): path for path in inputs}
    for path in outputs:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"output directory of {path} is missing")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output path {path} is a directory")
        identity = _file_identity(path)
        if identity in taken:
            raise ValueError(f"output path {path} names the same file as "
                             f"{taken[identity]}")
        taken[identity] = path


def cmd_prepare(args):
    _check_outputs([args.out, _vocab_path(args.out)], [args.fake, args.true])
    fake = ingest.load_articles(args.fake)
    true_ = ingest.load_articles(args.true)
    merged = ingest.merge_shuffle(fake, true_, args.seed)
    n = len(merged)
    print(f"loaded {len(fake)} fake + {len(true_)} true = {n} articles",
          file=sys.stderr)
    if n == 0:  # a cache that no split could train or score
        raise ValueError(f"no articles in {args.fake} or {args.true}")
    size = n * textprep.cache_record_bytes(args.maxlen)
    if size > textprep.MAX_CACHE_BYTES:
        raise ValueError(f"{n} articles at maxlen {args.maxlen} make "
                         f"{size} bytes of cache records, more than the "
                         f"{textprep.MAX_CACHE_BYTES} that prepare writes")

    token_lists = [textprep.preprocess(title, body)
                   for title, body, _ in merged]
    # Vocabulary comes from the training records only, so the validation
    # tail cannot leak tokens into it.
    vocab = textprep.build_vocab(token_lists[:int(TRAIN_FRAC * n)],
                                 max_size=args.vocab_size,
                                 min_freq=args.min_freq)
    sequences = np.empty((n, args.maxlen), np.uint32)
    for row, toks in zip(sequences, token_lists):
        row[:] = textprep.encode(toks, vocab, args.maxlen)
    labels = [label for _, _, label in merged]
    textprep.write_cache(args.out, sequences, labels, len(vocab), args.maxlen)
    textprep.save_vocab(_vocab_path(args.out), vocab)

    _emit({"config": _resolved(args),
           "fake": len(fake), "true": len(true_), "total": n,
           "vocab_size": len(vocab), "cache": args.out,
           "vocab_file": _vocab_path(args.out)})
    return EXIT_OK


def _load_data(path):
    """({"train", "val", "all"} -> (x, y float64), vocabulary) for a cache
    and the vocabulary file beside it. "train" holds the leading records
    prepare built the vocabulary from, "val" the tail."""
    x, y, vocab_size = textprep.read_cache(path)
    vocab = textprep.load_vocab(_vocab_path(path))
    if vocab_size != len(vocab):
        raise ValueError(f"{path} was encoded against {vocab_size} "
                         f"vocabulary entries, but {_vocab_path(path)} "
                         f"has {len(vocab)}")
    n_train = int(TRAIN_FRAC * len(x))
    if n_train == 0 or n_train == len(x):
        raise ingest.EmptySplit(f"cannot split {len(x)} records at {TRAIN_FRAC}")
    y = y.astype(np.float64)
    return {"train": (x[:n_train], y[:n_train]),
            "val": (x[n_train:], y[n_train:]), "all": (x, y)}, vocab


def cmd_train(args):
    if args.batch < 2 and model_zoo.PRESETS[args.preset].batchnorm:
        raise ValueError(f"preset {args.preset} uses batch norm, whose "
                         f"training needs --batch >= 2, not {args.batch}")
    history_path = args.history or args.out_checkpoint + ".history.jsonl"
    _check_outputs([args.out_checkpoint, history_path],
                   [args.data, _vocab_path(args.data)])
    splits, vocab = _load_data(args.data)
    (train_x, train_y), (val_x, val_y) = splits["train"], splits["val"]
    model = model_zoo.build(args.preset, vocab, maxlen=train_x.shape[1],
                            seed=args.seed, dtype=args.dtype)
    tc = TrainConfig(epochs=args.epochs, batch_size=args.batch,
                     seed=args.seed, patience=args.patience)
    print(f"training {args.preset}: {model.num_params()} parameters, "
          f"{train_x.shape[0]} train / {val_x.shape[0]} val",
          file=sys.stderr)
    history = fit(model, train_x, train_y, val_x, val_y, tc)
    # the history first: a checkpoint on disk has its history beside it
    with open(history_path, "w") as f:
        for entry in history.epochs:
            f.write(json.dumps(entry) + "\n")
    model.save(args.out_checkpoint)

    probs = predict_in_batches(model, val_x)
    _, report = evaluate(probs, val_y)
    _emit({"config": _resolved(args),
           "checkpoint": args.out_checkpoint, "history": history_path,
           "epochs_run": len(history.epochs),
           "metrics": asdict(report)})
    return EXIT_OK


def cmd_eval(args):
    model = model_zoo.load(args.checkpoint)
    splits, vocab = _load_data(args.data)
    x, y = splits[args.split]
    ours, theirs = vocab.tokens, model.vocab.tokens
    if ours != theirs:
        first = next((i for i, (a, b) in enumerate(zip(ours, theirs))
                      if a != b), min(len(ours), len(theirs)))
        return _fail(f"{args.data} was encoded against {len(vocab)} "
                     f"vocabulary entries, {args.checkpoint} has "
                     f"{len(model.vocab)}; they differ from index {first + 2}")
    if x.shape[1] != model.config.maxlen:
        return _fail(f"{args.data} has maxlen {x.shape[1]}, but "
                     f"{args.checkpoint} was trained at maxlen "
                     f"{model.config.maxlen}")
    probs = predict_in_batches(model, x)
    _, report = evaluate(probs, y)
    _emit({"config": _resolved(args),
           "split": args.split, "examples": int(x.shape[0]),
           "metrics": asdict(report)})
    return EXIT_OK


def cmd_predict(args):
    model = model_zoo.load(args.checkpoint)
    if args.text is not None:
        texts = [args.text]
    else:
        texts = (line.rstrip("\n") for line in sys.stdin)
    for text in texts:
        prob, label = model.predict(text)
        _emit({"probability": prob, "label": label})
    return EXIT_OK


def cmd_gradcheck(args):
    presets = [args.preset] if args.preset else list(model_zoo.PRESETS)
    results = gradcheck_mod.run_all(seed=args.seed, presets=presets)
    failed = [r for r in results if not r["pass"]]
    _emit({"config": _resolved(args), "checks": results,
           "passed": len(results) - len(failed), "failed": len(failed)})
    if failed:
        worst = max(failed, key=lambda r: r["rel_error"])
        print(f"gradcheck failed: worst tensor {worst['name']} "
              f"rel_error {worst['rel_error']:.3e}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _resolved(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqveritas",
        description="From-scratch LSTM fake-news classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="encode the corpus into a cache")
    p.add_argument("--fake", required=True, help="Fake.csv path")
    p.add_argument("--true", required=True, help="True.csv path")
    p.add_argument("--out", required=True, help="output cache path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--maxlen", default=textprep.DEFAULT_MAXLEN,
                   type=_int_at_least(1, "a positive integer",
                                      below=textprep.CACHE_FIELD_LIMIT))
    # two at least: PAD and OOV
    p.add_argument("--vocab-size", type=_int_at_least(2, "an integer >= 2"),
                   default=textprep.DEFAULT_MAX_VOCAB)
    # every token seen occurs at least once, so below 1 would mean 1
    p.add_argument("--min-freq", type=_positive_int,
                   default=textprep.DEFAULT_MIN_FREQ)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a preset on a prepared cache")
    p.add_argument("--data", required=True, help="cache from prepare")
    p.add_argument("--preset", required=True, choices=model_zoo.PRESETS)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--epochs", type=_positive_int,
                   default=TrainConfig.epochs)
    p.add_argument("--batch", type=_positive_int,
                   default=TrainConfig.batch_size)
    p.add_argument("--patience",
                   type=_int_at_least(0, "a non-negative integer"),
                   default=TrainConfig.patience)
    p.add_argument("--dtype", choices=model_zoo.DTYPES, default="float64")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--history", default=None,
                   help="history JSONL path (default: <checkpoint>.history.jsonl)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a cache")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "all"), default="val")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify raw text")
    p.add_argument("--checkpoint", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text")
    group.add_argument("--stdin", action="store_true",
                       help="one input per stdin line")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="finite-difference checks at miniature scale")
    p.add_argument("--preset", choices=model_zoo.PRESETS, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as e:  # NonFiniteGradient or non-finite output
        return _fail(str(e), EXIT_NUMERICAL)
    except (OSError, ValueError, IndexOutOfVocab) as e:
        return _fail(str(e), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
