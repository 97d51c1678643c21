import argparse
import csv
import hashlib
import json
import math
import os
import re
import struct
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seqveritas import cli, ingest, model_zoo, porter, textprep
from seqveritas.cli import main
from seqveritas.optim import TrainConfig
from tests.conftest import (TOY_FAKE, TOY_TRUE, container_bytes, edit_header,
                            json_checkpoint, read_container, write_bytes)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _prepare(capsys, tmp_path, seed="42", maxlen="10", vocab_size="100"):
    cache = str(tmp_path / "toy.svec")
    code, out, _ = run(capsys, [
        "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
        "--out", cache, "--seed", seed, "--maxlen", maxlen,
        "--vocab-size", vocab_size, "--min-freq", "1"])
    assert code == 0
    return cache, json.loads(out)


def _train(capsys, tmp_path, cache, preset="baseline", epochs="25"):
    ckpt = str(tmp_path / "model.svchk")
    code, out, _ = run(capsys, [
        "train", "--data", cache, "--preset", preset, "--seed", "42",
        "--epochs", epochs, "--batch", "8", "--patience", "50",
        "--out-checkpoint", ckpt])
    assert code == 0
    return ckpt, json.loads(out)


def test_prepare_reports_counts(capsys, tmp_path):
    cache, doc = _prepare(capsys, tmp_path)
    assert doc["fake"] == 10 and doc["true"] == 10 and doc["total"] == 20
    assert doc["config"]["seed"] == 42
    assert doc["vocab_size"] > 2


def test_prepare_deterministic_cache_bytes(capsys, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    c1, _ = _prepare(capsys, tmp_path / "a")
    c2, _ = _prepare(capsys, tmp_path / "b")
    assert Path(c1).read_bytes() == Path(c2).read_bytes()
    assert (Path(c1 + ".vocab.json").read_text()
            == Path(c2 + ".vocab.json").read_text())


def test_prepare_bytes_are_pinned(capsys, tmp_path):
    # prepare's output depends on nothing but its inputs, so these digests
    # hold across commits and platforms; only a deliberate change to the
    # text pipeline or the cache format may move them
    cache, _ = _prepare(capsys, tmp_path)
    assert hashlib.sha256(Path(cache).read_bytes()).hexdigest() == (
        "3f2df4d7b44b792643154afd20c299932dd9c16cb94d7c9f16cfd93f7144f22d")
    assert hashlib.sha256(
        Path(cache + ".vocab.json").read_bytes()).hexdigest() == (
        "e38d171391da2a4b34c25440c7f588641b69c37e5acfb142c4c74a7724ee1388")


def test_prepare_row_with_an_extra_field_exits_2(capsys, tmp_path):
    # an unquoted comma shifts every column after it
    fake = tmp_path / "fake.csv"
    fake.write_text("title,text,subject,date\n"
                    "A, B title,real body,news,2017\n")
    code, out, err = run(capsys, [
        "prepare", "--fake", str(fake), "--true", TOY_TRUE,
        "--out", str(tmp_path / "c.svec")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "row 2" in err
    assert not (tmp_path / "c.svec").exists()


def test_prepare_reads_csvs_with_a_byte_order_mark(capsys, tmp_path):
    (tmp_path / "plain").mkdir()
    plain, _ = _prepare(capsys, tmp_path / "plain")
    for name, fixture in (("fake", TOY_FAKE), ("true", TOY_TRUE)):
        (tmp_path / f"{name}.csv").write_bytes(
            b"\xef\xbb\xbf" + Path(fixture).read_bytes())
    bom = str(tmp_path / "bom.svec")
    code, _, _ = run(capsys, [
        "prepare", "--fake", str(tmp_path / "fake.csv"),
        "--true", str(tmp_path / "true.csv"), "--out", bom,
        "--seed", "42", "--maxlen", "10", "--vocab-size", "100",
        "--min-freq", "1"])
    assert code == 0
    assert Path(bom).read_bytes() == Path(plain).read_bytes()
    assert (Path(bom + ".vocab.json").read_bytes()
            == Path(plain + ".vocab.json").read_bytes())


def _never_called(*args, **kwargs):
    raise AssertionError("called before the output directory was checked")


def test_prepare_missing_out_directory_exits_2_before_reading(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.ingest, "load_articles", _never_called)
    out = str(tmp_path / "nodir" / "c.svec")
    code, stdout, err = run(capsys, [
        "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE, "--out", out])
    assert code == 2
    assert stdout == ""
    assert out in err


@pytest.mark.parametrize("which", ["cache", "vocab"])
def test_prepare_out_path_that_is_a_directory_exits_2_before_reading(
        capsys, tmp_path, monkeypatch, which):
    monkeypatch.setattr(cli.ingest, "load_articles", _never_called)
    directory = tmp_path / {"cache": "c.svec",
                            "vocab": "c.svec.vocab.json"}[which]
    directory.mkdir()
    code, stdout, err = run(capsys, [
        "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
        "--out", str(tmp_path / "c.svec")])
    assert code == 2
    assert stdout == ""
    assert str(directory) in err


@pytest.mark.parametrize("flag", ["--out-checkpoint", "--history", None],
                         ids=["--out-checkpoint", "--history", "default"])
def test_train_out_path_that_is_a_directory_exits_2_before_training(
        capsys, tmp_path, monkeypatch, flag):
    cache, _ = _prepare(capsys, tmp_path)
    monkeypatch.setattr(cli, "fit", _never_called)
    # with no flag, the default history path beside the checkpoint
    directory = tmp_path / ("m.svchk.history.jsonl" if flag is None else "d")
    directory.mkdir()
    argv = ["train", "--data", cache, "--preset", "baseline",
            "--out-checkpoint", str(tmp_path / "m.svchk")]
    if flag is not None:
        argv += [flag, str(directory)]  # the last of a repeated flag wins
    code, stdout, err = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert str(directory) in err


def test_prepare_reads_a_field_longer_than_the_csv_default_limit(
        capsys, tmp_path, default_csv_field_limit):
    body = ("lorem ipsum " * 20_000)[:200_000]
    assert len(body) > default_csv_field_limit
    fake = tmp_path / "fake.csv"
    fake.write_text(Path(TOY_FAKE).read_text() + f"long,{body},news,2017\n")
    code, out, err = run(capsys, [
        "prepare", "--fake", str(fake), "--true", TOY_TRUE,
        "--out", str(tmp_path / "c.svec")])
    assert code == 0, err
    assert json.loads(out)["fake"] == 11


@pytest.mark.parametrize("flag", ["--out-checkpoint", "--history"])
def test_train_missing_out_directory_exits_2_before_training(
        capsys, tmp_path, monkeypatch, flag):
    cache, _ = _prepare(capsys, tmp_path)
    monkeypatch.setattr(cli, "fit", _never_called)
    missing = str(tmp_path / "nodir" / "m")
    # the last of a repeated flag wins
    code, stdout, err = run(capsys, [
        "train", "--data", cache, "--preset", "baseline",
        "--out-checkpoint", str(tmp_path / "m.svchk"), flag, missing])
    assert code == 2
    assert stdout == ""
    assert missing in err


@pytest.mark.parametrize("out", ["fake", "true_by_a_link", "vocab_is_fake"])
def test_prepare_out_path_naming_an_input_exits_2_before_reading(
        capsys, tmp_path, monkeypatch, out):
    # before: the cache, or the vocabulary beside it, overwrote the input
    monkeypatch.setattr(cli.ingest, "load_articles", _never_called)
    fake, true_ = tmp_path / "c.vocab.json", tmp_path / "t.csv"
    inputs = {fake: Path(TOY_FAKE).read_bytes(),
              true_: Path(TOY_TRUE).read_bytes()}
    for path, data in inputs.items():
        path.write_bytes(data)
    (tmp_path / "link").symlink_to(true_)
    out_path = {"fake": fake, "true_by_a_link": tmp_path / "link",
                "vocab_is_fake": tmp_path / "c"}[out]
    code, stdout, err = run(capsys, [
        "prepare", "--fake", str(fake), "--true", str(true_),
        "--out", str(out_path)])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "names the same file as" in err
    assert {path: path.read_bytes() for path in inputs} == inputs


@pytest.mark.parametrize("collision", [
    "checkpoint_is_history", "checkpoint_is_data", "history_is_data",
    "history_is_vocab", "checkpoint_links_to_data",
    "checkpoint_is_a_hard_link_to_data"])
def test_train_out_path_naming_an_input_or_output_exits_2_before_training(
        capsys, tmp_path, monkeypatch, collision):
    # before: train wrote over its cache, its vocabulary or its checkpoint
    cache, _ = _prepare(capsys, tmp_path)
    monkeypatch.setattr(cli, "fit", _never_called)
    ckpt, link = str(tmp_path / "m.svchk"), tmp_path / "link"
    link.symlink_to(cache)
    hard = tmp_path / "hard.svec"
    os.link(cache, hard)
    out = {"checkpoint_is_history": ["--out-checkpoint", ckpt,
                                     "--history", ckpt],
           "checkpoint_is_data": ["--out-checkpoint", cache],
           "history_is_data": ["--out-checkpoint", ckpt, "--history", cache],
           "history_is_vocab": ["--out-checkpoint", ckpt,
                                "--history", cache + ".vocab.json"],
           "checkpoint_links_to_data": ["--out-checkpoint", str(link)],
           "checkpoint_is_a_hard_link_to_data": ["--out-checkpoint",
                                                 str(hard)],
           }[collision]
    inputs = {path: Path(path).read_bytes()
              for path in (cache, cache + ".vocab.json")}
    code, stdout, err = run(capsys, ["train", "--data", cache, "--preset",
                                     "baseline", *out])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and "names the same file as" in err
    assert {path: Path(path).read_bytes() for path in inputs} == inputs
    assert not (tmp_path / "m.svchk").exists()


_DEEP_JSON = b"[" * 10_000 + b"]" * 10_000


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("doc", [_DEEP_JSON, b"not json"],
                         ids=["nested_too_deep", "not_json"])
def test_vocab_file_that_is_not_json_exits_2_naming_it(capsys, tmp_path,
                                                       command, doc):
    # before: nested too deep, a RecursionError exited 1 with a traceback;
    # not JSON, the error named no file
    cache, _ = _prepare(capsys, tmp_path)
    if command == "eval":
        ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
        argv = ["eval", "--checkpoint", ckpt, "--data", cache]
    else:
        argv = ["train", "--data", cache, "--preset", "baseline",
                "--out-checkpoint", str(tmp_path / "m.svchk")]
    vocab_file = cache + ".vocab.json"
    write_bytes(vocab_file, doc)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and vocab_file in err
    assert "not a vocabulary file" in err


def test_prepare_missing_flag_exits_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--true", TOY_TRUE, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_prepare_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, [
        "prepare", "--fake", str(tmp_path / "absent.csv"), "--true", TOY_TRUE,
        "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in err


def test_train_eval_round_trip(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, train_doc = _train(capsys, tmp_path, cache)
    assert train_doc["metrics"]["accuracy"] >= 0.5
    assert train_doc["epochs_run"] >= 1

    code, out, _ = run(capsys, ["eval", "--checkpoint", ckpt,
                                "--data", cache, "--split", "val"])
    assert code == 0
    eval_doc = json.loads(out)
    # eval against the same validation slice reproduces training metrics
    assert eval_doc["metrics"] == train_doc["metrics"]


def test_train_writes_history_jsonl(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, doc = _train(capsys, tmp_path, cache, epochs="3")
    lines = Path(doc["history"]).read_text().strip().split("\n")
    assert len(lines) == doc["epochs_run"]
    rec = json.loads(lines[0])
    assert set(rec) == {"epoch", "train_loss", "val_loss", "val_accuracy"}


def test_train_whose_checkpoint_write_fails_still_writes_its_history(
        capsys, tmp_path, monkeypatch):
    cache, _ = _prepare(capsys, tmp_path)

    def full_disk(self, path):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(model_zoo.Model, "save", full_disk)
    ckpt = tmp_path / "model.svchk"
    code, stdout, err = run(capsys, [
        "train", "--data", cache, "--preset", "baseline", "--epochs", "2",
        "--out-checkpoint", str(ckpt)])
    assert code == 2
    assert stdout == "" and "No space left on device" in err
    assert not ckpt.exists()
    lines = (tmp_path / "model.svchk.history.jsonl").read_text().splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [1, 2]


@pytest.mark.parametrize("argv", [
    ["prepare", "--fake", "f", "--true", "t", "--out", "o"],
    ["train", "--data", "d", "--preset", "baseline", "--out-checkpoint", "m"],
    ["eval", "--checkpoint", "c", "--data", "d"]])
@pytest.mark.parametrize("frac", ["0", "1", "-0.5", "1.5"])
def test_train_frac_outside_open_unit_interval_exits_2(capsys, argv, frac):
    # a fraction outside (0, 1) would slice the cache from the wrong end; the
    # split is fixed now, so the flag is refused whatever its value
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--train-frac", frac])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: --train-frac {frac}" in out.err


@pytest.mark.parametrize("argv", [
    ["prepare", "--fake", "f", "--true", "t", "--out", "o"],
    ["train", "--data", "d", "--preset", "baseline", "--out-checkpoint", "m"],
    ["eval", "--checkpoint", "c", "--data", "d"]],
    ids=["prepare", "train", "eval"])
def test_train_frac_flag_exits_2(capsys, argv):
    # before: train --train-frac 0.9 then the default eval scored training
    # records as validation ones, and exited 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--train-frac", "0.9"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --train-frac 0.9" in out.err


# Every option of every subcommand. A new knob has to show up here.
OPTIONS = {
    "prepare": {"--fake", "--true", "--out", "--seed", "--maxlen",
                "--vocab-size", "--min-freq"},
    "train": {"--data", "--preset", "--seed", "--epochs", "--batch",
              "--patience", "--dtype", "--out-checkpoint", "--history"},
    "eval": {"--checkpoint", "--data", "--split"},
    "predict": {"--checkpoint", "--text", "--stdin"},
    "gradcheck": {"--preset", "--seed"},
}


def test_subcommand_option_sets_are_pinned():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {name: {o for a in p._actions for o in a.option_strings}
               - {"-h", "--help"} for name, p in sub.choices.items()}
    assert options == OPTIONS


@pytest.mark.parametrize("flag,value", [
    ("--batch", "-3"), ("--batch", "0"), ("--epochs", "0"),
    ("--epochs", "-1")])
def test_train_batch_and_epochs_must_be_positive(capsys, tmp_path, flag,
                                                 value):
    # before: --batch 0 died in range(), the others wrote an untrained
    # checkpoint and exited 0
    cache, _ = _prepare(capsys, tmp_path)
    ckpt = tmp_path / "m.svchk"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", cache, "--preset", "baseline",
              "--out-checkpoint", str(ckpt), flag, value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{value} is not a positive integer" in out.err
    assert not ckpt.exists()


@pytest.mark.parametrize("value", ["1", "0", "-5"])
def test_prepare_vocab_size_below_2_exits_2(capsys, tmp_path, value):
    # before: --vocab-size 1 sliced kept[:-1] and wrote a 26-entry vocabulary
    out = tmp_path / "toy.svec"
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
              "--out", str(out), "--vocab-size", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{value} is not an integer >= 2" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_prepare_maxlen_below_1_exits_2(capsys, tmp_path, value):
    # before: every article was loaded and stemmed before encode refused
    out = tmp_path / "toy.svec"
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
              "--out", str(out), "--maxlen", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{value} is not a positive integer" in captured.err
    assert "loaded" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_prepare_min_freq_below_1_exits_2(capsys, tmp_path, value):
    # before: every token occurs at least once, so these silently meant 1
    out = tmp_path / "toy.svec"
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
              "--out", str(out), "--min-freq", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{value} is not a positive integer" in captured.err
    assert "loaded" not in captured.err
    assert not out.exists()


def _no_encoding(*args, **kwargs):
    raise AssertionError("an article was preprocessed before the refusal")


@pytest.mark.parametrize("value", [str(2**32), str(10**30)])
def test_prepare_maxlen_past_the_u32_header_exits_2_before_reading(
        capsys, tmp_path, monkeypatch, value):
    monkeypatch.setattr(cli.ingest, "load_articles", _never_called)
    out = tmp_path / "toy.svec"
    with pytest.raises(SystemExit) as exc:
        main(["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
              "--out", str(out), "--maxlen", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{value} is not below {2**32}" in captured.err
    assert not out.exists()


# The 20 toy articles at maxlen 10 make 20 x (4 x 10 + 1) = 820 bytes of
# records.
@pytest.mark.parametrize("limit,code", [(819, 2), (820, 0)])
def test_prepare_cache_above_its_limit_exits_2_before_encoding(
        capsys, tmp_path, monkeypatch, limit, code):
    monkeypatch.setattr(textprep, "MAX_CACHE_BYTES", limit)
    if code:
        monkeypatch.setattr(textprep, "preprocess", _no_encoding)
    out = tmp_path / "toy.svec"
    got, stdout, err = run(capsys, [
        "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
        "--out", str(out), "--maxlen", "10"])
    assert got == code
    if code:
        assert stdout == ""
        assert "error: 20 articles at maxlen 10 make 820 bytes" in err
        assert not out.exists()
        assert not (tmp_path / "toy.svec.vocab.json").exists()
    else:
        assert json.loads(stdout)["total"] == 20


def test_prepare_largest_u32_maxlen_is_refused_by_the_size_limit(
        capsys, tmp_path, monkeypatch):
    # refused before encoding, which would ask for 2**32 entries a record
    monkeypatch.setattr(textprep, "preprocess", _no_encoding)
    out = tmp_path / "toy.svec"
    code, stdout, err = run(capsys, [
        "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
        "--out", str(out), "--maxlen", str(2**32 - 1)])
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[-1].startswith("error: 20 articles")
    assert not out.exists()


def test_prepare_of_no_articles_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("title,text,subject,date\n")
    out = tmp_path / "toy.svec"
    code, stdout, err = run(capsys, [
        "prepare", "--fake", str(empty), "--true", str(empty),
        "--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[-1] == f"error: no articles in {empty} or {empty}"
    assert not out.exists()


def test_prepare_peak_memory_is_under_three_times_its_records(capsys,
                                                              tmp_path):
    # at this maxlen the records, 20 x (4 maxlen + 1) bytes, are 8 MB,
    # and the text pipeline's own allocations are small beside them
    maxlen = 100_000
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, [
            "prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
            "--out", str(tmp_path / "toy.svec"), "--maxlen", str(maxlen)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 20 * (4 * maxlen + 1)


_SEED_ARGV = {
    "prepare": ["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
                "--out", "c.svec"],
    "train": ["train", "--data", "c.svec", "--preset", "baseline",
              "--out-checkpoint", "m.svchk"],
    "gradcheck": ["gradcheck", "--preset", "baseline"],
}


@pytest.mark.parametrize("seed,message", [
    ("-1", "-1 is not a non-negative integer"),
    (str(2**64), f"{2**64} is not below {2**64}")])
@pytest.mark.parametrize("command", sorted(_SEED_ARGV))
def test_seed_outside_0_to_2_pow_64_exits_2(capsys, monkeypatch, command,
                                            seed, message):
    # `Prng` takes its seed mod 2**64: -1 would run as 2**64 - 1
    monkeypatch.setattr(cli.ingest, "load_articles", _never_called)
    with pytest.raises(SystemExit) as exc:
        main(_SEED_ARGV[command] + ["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("command", sorted(_SEED_ARGV))
def test_seed_2_pow_64_minus_1_is_accepted(command):
    args = cli.build_parser().parse_args(
        _SEED_ARGV[command] + ["--seed", str(2**64 - 1)])
    assert args.seed == 2**64 - 1


# Accented, fullwidth, Kelvin-sign, dotted-capital, sharp-s and emoji text:
# what the toy fixtures and the golden manifest never show `prepare`.
_NON_ASCII = {
    "fake": [("Caf\u00e9 na\u00efvet\u00e9 \U0001f600 shocking",
              "The \u212aelvin scale, 300 \u212a, and \u0130stanbul's stra\u00dfe "
              "\u1e9eTRASSE \u00fcber-running stories\u2026 ZURICH Z\u00fcrich"),
             ("\uff21\uff22\uff23\uff11\uff12 secret\u00a0plot",
              "abc\uff11\uff12def running runners \u2014 caf\u00e9s \U0001f525\U0001f525 "
              "na\u00efve \u212aings fi\ufb01ne")],
    "true": [("Senate passes budget \u00e9l\u00e8ve",
              "Officials said the \u212a-12 budget passed; r\u00e9sum\u00e9 "
              "\u0130 \u0131 \u00df \u00c5ngstr\u00f6m \u212b 2017 budget"),
             ("Markets r\u00e9act \u00e0 la news",
              "Stocks rose 3\uff05 on \u00fcber news, \u212aelvin said, "
              "\U0001f4c8 markets markets")],
}


def _reference_prepare(fake, true_, seed, maxlen, vocab_size, min_freq):
    """The cache and vocabulary bytes `prepare` writes, by the regular
    expression, the keyed sort and per-token loops the pipeline once ran."""
    stop = textprep.load_stopwords()

    def tokens(title, body):
        cleaned = re.sub("[^a-z0-9]+", " ",
                         (title + " " + body).lower()).strip()
        return [porter.stem(t) for t in cleaned.split() if t not in stop]

    merged = ingest.merge_shuffle(fake, true_, seed)
    lists = [tokens(title, body) for title, body, _ in merged]
    counts = Counter(t for toks in lists[:int(cli.TRAIN_FRAC * len(lists))]
                     for t in toks)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [t for t, f in ranked if f >= min_freq][:vocab_size - 2]
    index = {t: i + 2 for i, t in enumerate(kept)}
    cache = b"SVEC1" + struct.pack("<III", maxlen, len(kept) + 2,
                                   len(merged))
    for toks, (_, _, label) in zip(lists, merged):
        idx = [index.get(t, 1) for t in toks][-maxlen:]
        cache += struct.pack(f"<{maxlen}I", *[0] * (maxlen - len(idx)), *idx)
        cache += bytes([label])
    return cache, json.dumps({"tokens": kept}).encode()


def test_prepare_non_ascii_text_matches_the_reference_pipeline(capsys,
                                                               tmp_path):
    for name, rows in _NON_ASCII.items():
        with open(tmp_path / f"{name}.csv", "w", newline="",
                  encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["title", "text", "subject", "date"])
            for title, text in rows * 3:
                writer.writerow([title, text, "news", "March 1, 2017"])
    fake, true_ = (ingest.load_articles(str(tmp_path / f"{name}.csv"))
                   for name in ("fake", "true"))
    out = tmp_path / "c.svec"
    code, _, _ = run(capsys, [
        "prepare", "--fake", str(tmp_path / "fake.csv"),
        "--true", str(tmp_path / "true.csv"), "--out", str(out),
        "--seed", "7", "--maxlen", "24", "--vocab-size", "40",
        "--min-freq", "1"])
    assert code == 0
    cache, vocab = _reference_prepare(fake, true_, seed=7, maxlen=24,
                                      vocab_size=40, min_freq=1)
    assert out.read_bytes() == cache
    assert (tmp_path / "c.svec.vocab.json").read_bytes() == vocab
    # what the text is there for: a Kelvin-sign word is a token, and a
    # fullwidth digit split "abc12def"
    tokens = json.loads(vocab)["tokens"]
    assert "kelvin" in tokens and "abc" in tokens and "def" in tokens


def test_prepare_vocab_holds_no_validation_only_token(capsys, tmp_path):
    # each article has a token no other article has; the ones in the
    # validation tail must all encode as OOV, the training ones never
    for name in ("fake", "true"):
        rows = "".join(f"story,market q{name}{i}z,news,2017\n"
                       for i in range(10))
        (tmp_path / f"{name}.csv").write_text("title,text,subject,date\n"
                                              + rows)
    cache = str(tmp_path / "c.svec")
    code, _, err = run(capsys, [
        "prepare", "--fake", str(tmp_path / "fake.csv"),
        "--true", str(tmp_path / "true.csv"), "--out", cache,
        "--seed", "3", "--vocab-size", "100", "--min-freq", "1"])
    assert code == 0, err
    splits, vocab = cli._load_data(cache)
    (train_x, _), (val_x, _) = splits["train"], splits["val"]
    assert (len(train_x), len(val_x)) == (16, 4)
    # "stori", "market" and the 16 training-only tokens
    assert len(vocab.tokens) == 18
    assert all(textprep.OOV_INDEX in row for row in val_x)
    assert not any(textprep.OOV_INDEX in row for row in train_x)


def test_prepare_vocab_size_2_keeps_pad_and_oov_only(capsys, tmp_path):
    cache, doc = _prepare(capsys, tmp_path, vocab_size="2")
    assert doc["vocab_size"] == 2
    x, _, vocab_size = textprep.read_cache(cache)
    assert vocab_size == 2 and set(np.unique(x)) <= {0, 1}


def test_train_negative_patience_exits_2(capsys, tmp_path):
    # before: --patience -1 stopped after the first epoch, whatever the loss
    cache, _ = _prepare(capsys, tmp_path)
    ckpt = tmp_path / "m.svchk"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", cache, "--preset", "baseline",
              "--out-checkpoint", str(ckpt), "--patience", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "-1 is not a non-negative integer" in out.err
    assert not ckpt.exists()


def test_train_cache_vocab_unlike_vocab_file_exits_2(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    (tmp_path / "small").mkdir()
    small, doc = _prepare(capsys, tmp_path / "small", vocab_size="10")
    assert doc["vocab_size"] == 10
    # the cache stays; the vocabulary beside it is another prepare's
    with open(small + ".vocab.json") as src:
        text = src.read()
    with open(cache + ".vocab.json", "w") as dst:
        dst.write(text)
    ckpt = tmp_path / "m.svchk"
    code, out, err = run(capsys, ["train", "--data", cache,
                                  "--preset", "baseline",
                                  "--out-checkpoint", str(ckpt)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not ckpt.exists()


@pytest.mark.parametrize("doc", [{"max_size": 10}, [1, 2]])
def test_train_malformed_vocab_file_exits_2(capsys, tmp_path, doc):
    cache, _ = _prepare(capsys, tmp_path)
    with open(cache + ".vocab.json", "w") as f:
        json.dump(doc, f)
    ckpt = tmp_path / "m.svchk"
    code, out, err = run(capsys, ["train", "--data", cache,
                                  "--preset", "baseline",
                                  "--out-checkpoint", str(ckpt)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not a vocabulary file" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cache_shorter_than_its_header_exits_2(capsys, tmp_path, command):
    # the magic, then 3 of the 12 bytes of maxlen, V and N
    cache = tmp_path / "short.svec"
    cache.write_bytes(b"SVEC1abc")
    ckpt = str(tmp_path / "m.svchk")
    if command == "eval":
        model_zoo.build("baseline", textprep.Vocabulary(["a"]), maxlen=3,
                        embed_dim=4, lstm_units=4).save(ckpt)
        argv = ["eval", "--checkpoint", ckpt, "--data", str(cache)]
    else:
        argv = ["train", "--data", str(cache), "--preset", "baseline",
                "--out-checkpoint", ckpt]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "truncated header" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_cache_label_outside_0_and_1_exits_2(capsys, tmp_path, command):
    # label bytes 7 and 200 in two records of a prepared cache
    cache, _ = _prepare(capsys, tmp_path)
    if command == "eval":
        ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
        argv = ["eval", "--checkpoint", ckpt, "--data", cache,
                "--split", "all"]
    else:
        argv = ["train", "--data", cache, "--preset", "baseline",
                "--out-checkpoint", str(tmp_path / "m.svchk")]
    blob = bytearray(Path(cache).read_bytes())
    record = 10 * 4 + 1  # maxlen u32 indices and a label byte
    blob[17 + record - 1], blob[17 + 2 * record - 1] = 7, 200
    Path(cache).write_bytes(blob)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "label byte" in err


@pytest.mark.parametrize("record", [0, 19], ids=["training", "validation"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_cache_index_at_its_vocabulary_size_exits_2_before_the_work(
        capsys, tmp_path, monkeypatch, command, record):
    # before: train ran until a batch reached the record, a whole epoch
    # for the last (validation) one
    cache, doc = _prepare(capsys, tmp_path)
    if command == "eval":
        ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
        argv = ["eval", "--checkpoint", ckpt, "--data", cache,
                "--split", "all"]
        monkeypatch.setattr(cli, "predict_in_batches", _never_called)
    else:
        argv = ["train", "--data", cache, "--preset", "baseline",
                "--out-checkpoint", str(tmp_path / "m.svchk")]
        monkeypatch.setattr(cli, "fit", _never_called)
    blob = bytearray(Path(cache).read_bytes())
    record_size = 10 * 4 + 1  # maxlen u32 indices and a label byte
    last = 17 + record * record_size + 9 * 4  # the record's last index
    blob[last:last + 4] = struct.pack("<I", doc["vocab_size"])
    Path(cache).write_bytes(blob)
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and cache in err
    assert f"index outside [0, {doc['vocab_size']})" in err


def test_train_on_a_header_only_cache_at_maxlen_2_31_exits_2(capsys,
                                                             tmp_path):
    # before: read_cache failed inside numpy, "dimension does not fit into
    # a C int", without naming the file
    cache = str(tmp_path / "empty.svec")
    vocab = textprep.Vocabulary(["a"])
    with open(cache, "wb") as f:
        f.write(struct.pack("<5sIII", b"SVEC1", 2**31, len(vocab), 0))
    textprep.save_vocab(cache + ".vocab.json", vocab)
    code, out, err = run(capsys, ["train", "--data", cache, "--preset",
                                  "baseline", "--out-checkpoint",
                                  str(tmp_path / "m.svchk")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cannot split 0 records" in err


def test_train_invalid_preset_exits_2(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", cache, "--preset", "gigantic",
              "--out-checkpoint", str(tmp_path / "m")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for name in ("baseline", "regularized", "optimized"):
        assert name in err


def test_predict_text_and_empty(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="2")
    code, out, _ = run(capsys, ["predict", "--checkpoint", ckpt,
                                "--text", "zorblat crumpet market"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"probability", "label"}

    code, out, _ = run(capsys, ["predict", "--checkpoint", ckpt,
                                "--text", ""])
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["probability"] <= 1.0


def test_prepare_stems_vowel_lle_words(capsys, tmp_path):
    # "Michelle" ends in vowel + "lle", the shape that once made the
    # stemmer index past the end of the word
    fake = tmp_path / "fake.csv"
    fake.write_text(Path(TOY_FAKE).read_text()
                    + 'toynews story 10,Michelle Obama spoke in Seville,'
                      'toynews,"January 11, 2017"\n')
    code, out, err = run(capsys, [
        "prepare", "--fake", str(fake), "--true", TOY_TRUE,
        "--out", str(tmp_path / "c.svec"), "--vocab-size", "100",
        "--min-freq", "1"])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["fake"] == 11 and doc["total"] == 21


def test_predict_text_with_vowel_lle_words(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    code, out, err = run(capsys, ["predict", "--checkpoint", ckpt, "--text",
                                  "Michelle Obama spoke in Seville"])
    assert code == 0, err
    assert set(json.loads(out)) == {"probability", "label"}


def test_predict_stdin_lines(capsys, tmp_path, monkeypatch):
    import io
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="2")
    monkeypatch.setattr("sys.stdin", io.StringIO("zorblat news\nquintar news\n"))
    code, out, _ = run(capsys, ["predict", "--checkpoint", ckpt, "--stdin"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        assert set(json.loads(line)) == {"probability", "label"}


def test_predict_stdin_streams(capsys, tmp_path, monkeypatch):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    out_before_second = []

    def stdin():
        yield "zorblat news\n"
        out_before_second.append(capsys.readouterr().out)
        yield "quintar news\n"

    monkeypatch.setattr("sys.stdin", stdin())
    code, out, _ = run(capsys, ["predict", "--checkpoint", ckpt, "--stdin"])
    assert code == 0
    # the first answer was written before the second line was read
    assert set(json.loads(out_before_second[0])) == {"probability", "label"}
    assert set(json.loads(out)) == {"probability", "label"}


def _write_data(path, sequences, vocab):
    """A two-record cache at maxlen 10 and its vocabulary file."""
    textprep.write_cache(path, sequences, [1, 0], len(vocab), 10)
    textprep.save_vocab(path + ".vocab.json", vocab)


def test_cache_with_the_sizes_in_its_vocabulary_file_trains_and_evals(
        capsys, tmp_path):
    # a vocabulary file as prepare wrote it while the document also held
    # the sizes that chose its tokens: read for its tokens alone
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    code, out, _ = run(capsys, ["eval", "--checkpoint", ckpt,
                                "--data", cache])
    assert code == 0
    sidecar = Path(cache + ".vocab.json")
    tokens = json.loads(sidecar.read_text())["tokens"]
    sidecar.write_text(json.dumps({"tokens": tokens, "max_size": 100,
                                   "min_freq": 1}, sort_keys=True))
    assert run(capsys, ["eval", "--checkpoint", ckpt,
                        "--data", cache]) == (0, out, "")


def test_eval_index_outside_checkpoint_vocab_exits_2(capsys, tmp_path):
    # the cache's vocabulary is the checkpoint's and 20 tokens more; an
    # index into those is refused by the vocabulary comparison
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    vocab = model_zoo.load(ckpt).vocab
    wide = str(tmp_path / "wide.svec")
    _write_data(wide, [[0] * 9 + [len(vocab) + 18], [0] * 9 + [2]],
                textprep.Vocabulary(vocab.tokens
                                    + [f"extra{i}" for i in range(20)]))
    code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                  "--data", wide, "--split", "all"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"they differ from index {len(vocab)}" in err


def test_eval_index_outside_cache_vocab_exits_2(capsys, tmp_path):
    # the cache's vocabulary is the checkpoint's, but one index is out of
    # range
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    vocab = model_zoo.load(ckpt).vocab
    bad = str(tmp_path / "bad.svec")
    # write_cache refuses the index, so a valid cache is patched
    _write_data(bad, [[0] * 9 + [2], [0] * 9 + [2]], vocab)
    with open(bad, "r+b") as f:  # record 0's last index
        f.seek(17 + 9 * 4)
        f.write(struct.pack("<I", len(vocab)))
    code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                  "--data", bad, "--split", "all"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"index outside [0, {len(vocab)})" in err


@pytest.mark.parametrize("split", ["val", "all"])
def test_eval_cache_vocab_same_size_unlike_checkpoint_exits_2(
        capsys, tmp_path, split):
    # before: only the sizes were compared, so a cache encoded against
    # another vocabulary of the same size was scored, and eval exited 0
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    vocab = textprep.load_vocab(cache + ".vocab.json")
    textprep.save_vocab(cache + ".vocab.json",
                        textprep.Vocabulary(vocab.tokens[::-1]))
    code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                  "--data", cache, "--split", split])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "they differ from index 2" in err


def test_eval_cache_vocab_unlike_checkpoint_exits_2(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    (tmp_path / "small").mkdir()
    small, _ = _prepare(capsys, tmp_path / "small", vocab_size="10")
    for split in ("val", "all"):
        code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                      "--data", small, "--split", split])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "10 vocabulary entries" in err


def test_eval_non_finite_metrics_exit_3(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    header, start, blob = read_container(ckpt)
    at = start + next(e["offset"] for e in header["tensors"]
                      if e["name"] == "dense0.W")
    write_bytes(ckpt, blob[:at] + struct.pack("<d", np.nan) + blob[at + 8:])
    code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                  "--data", cache])
    assert code == 3
    assert "NaN" not in out
    if out:
        json.loads(out)
    assert err.startswith("error:")


def test_train_whose_gradient_norm_overflows_exits_3(capsys, tmp_path,
                                                    monkeypatch, recwarn):
    # finite gradients of ~1e160 square past float64's range; clipping by
    # MAX_NORM / inf would zero every one and Adam would step on momentum
    cache, _ = _prepare(capsys, tmp_path)
    fused = model_zoo.bce_grad_fused
    monkeypatch.setattr(model_zoo, "bce_grad_fused",
                        lambda probs, labels: fused(probs, labels) * 1e160)
    ckpt = tmp_path / "model.svchk"
    code, out, err = run(capsys, [
        "train", "--data", cache, "--preset", "baseline", "--epochs", "1",
        "--batch", "8", "--out-checkpoint", str(ckpt)])
    assert code == 3
    assert out == ""
    banner, error = err.splitlines(keepends=True)
    assert banner.startswith("training baseline: ")
    assert error == "error: non-finite gradient norm in embedding\n"
    # numpy's overflow warning, which a shell would see on stderr too
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not ckpt.exists()


def test_eval_cache_maxlen_unlike_checkpoint_exits_2(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    (tmp_path / "long").mkdir()
    long_cache, _ = _prepare(capsys, tmp_path / "long", maxlen="40")
    for split in ("val", "all"):
        code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                      "--data", long_cache, "--split", split])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "maxlen 40" in err and "maxlen 10" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("how", [
    "wrong_length", "version_1", "version_2", "version_3", "version_5",
    "config_colour",
    "widths_not_a_list", "maxlen_not_an_int", "dtype_float16", "no_vocab",
    "no_params", "header_not_json", "misaligned_offset", "trailing_bytes",
    "header_nested_too_deep"])
def test_corrupt_checkpoint_exits_2(capsys, tmp_path, command, how):
    cache, _ = _prepare(capsys, tmp_path)
    ckpt = str(tmp_path / "model.svchk")
    model = model_zoo.build("baseline", textprep.load_vocab(
        cache + ".vocab.json"), maxlen=10, embed_dim=8, lstm_units=8)
    model.save(ckpt)
    header, start, blob = read_container(ckpt)
    data = blob[start:]
    if how == "wrong_length":  # the first tensor 8 bytes short
        first = header["tensors"][0]
        end = start + 8 * math.prod(first["shape"])
        raw = blob[:end - 8] + blob[end:]
    elif how == "version_5":  # the vocabulary's size in config and vocab
        header["version"] = 5
        header["config"]["vocab_size"] = len(model.vocab)
        header["vocab"].update(max_size=100, min_freq=1)
        raw = container_bytes(header, data)
    elif how.startswith("version_"):
        doc = json_checkpoint(model, int(how[-1]))
        if how == "version_2":
            _to_version_2(doc)
        raw = json.dumps(doc).encode()
    elif how == "header_not_json":
        raw = blob[:8] + b"x" + blob[9:]
    elif how == "header_nested_too_deep":  # before: a traceback, exit 1
        raw = struct.pack("<Q", len(_DEEP_JSON)) + _DEEP_JSON
    elif how == "trailing_bytes":
        raw = blob + bytes(64)
    else:
        config = header["config"]
        if how == "config_colour":
            config["colour"] = "red"
        elif how == "widths_not_a_list":  # a field only version 4 had
            config["dense_widths"] = 64
        elif how == "maxlen_not_an_int":
            config["maxlen"] = "x"
        elif how == "dtype_float16":
            config["dtype"] = "float16"
        elif how == "misaligned_offset":
            header["tensors"][1]["offset"] += 8
        else:
            del header[{"no_vocab": "vocab", "no_params": "tensors"}[how]]
        raw = container_bytes(header, data)
    write_bytes(ckpt, raw)
    argv = (["eval", "--checkpoint", ckpt, "--data", cache]
            if command == "eval"
            else ["predict", "--checkpoint", ckpt, "--text", "zorblat"])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and ckpt in err
    if how == "version_5":
        assert "version 5, expected 6" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
@pytest.mark.parametrize("entry,value", [("tokens", [7, 8]),
                                         ("tokens", "cat"),
                                         ("tokens", ["cat", "cat"])])
def test_checkpoint_vocab_of_wrong_type_exits_2(capsys, tmp_path, command,
                                                entry, value):
    # before: the checkpoint loaded, and predict scored every token as OOV
    # (a repeated token: predict raised IndexOutOfVocab on it)
    vocab = textprep.Vocabulary(["cat", "dog"])
    ckpt = str(tmp_path / "model.svchk")
    model_zoo.build("baseline", vocab, maxlen=10, embed_dim=8,
                    lstm_units=8).save(ckpt)
    edit_header(ckpt, lambda h: h["vocab"].update({entry: value}))
    data = str(tmp_path / "c.svec")
    _write_data(data, [[0] * 8 + [2, 3], [0] * 9 + [3]], vocab)
    argv = (["eval", "--checkpoint", ckpt, "--data", data, "--split", "all"]
            if command == "eval"
            else ["predict", "--checkpoint", ckpt, "--text", "cat dog"])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "a vocabulary is an object" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_is_a_directory_exits_2(capsys, tmp_path, command):
    cache, _ = _prepare(capsys, tmp_path)
    argv = (["eval", "--checkpoint", str(tmp_path), "--data", cache]
            if command == "eval"
            else ["predict", "--checkpoint", str(tmp_path), "--text", "x"])
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def _to_version_2(doc):
    """Rewrite a checkpoint document in the version 2 layout: one config
    entry per dense layer, the output layer included, and Adam's betas and
    epsilon in the config."""
    cfg = doc["config"]
    widths = cfg.pop("dense_widths")
    regs, bn = cfg.pop("dense_regularizers"), cfg.pop("batchnorm")
    cfg["dense_stack"] = ([[w, "relu", regs, bn] for w in widths]
                          + [[1, "sigmoid", [], False]])
    cfg.update(beta1=0.9, beta2=0.999, adam_eps=1e-8)
    doc["version"] = 2


def test_predict_bad_checkpoint_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.svchk"
    bad.write_text("not json at all {")
    code, _, err = run(capsys, ["predict", "--checkpoint", str(bad),
                                "--text", "x"])
    assert code == 2


def test_gradcheck_single_preset(capsys, tmp_path):
    code, out, _ = run(capsys, ["gradcheck", "--preset", "baseline",
                                "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert all(r["rel_error"] < 1e-4 for r in doc["checks"])


def test_gradcheck_failure_exits_4_naming_the_worst_tensor(capsys,
                                                          monkeypatch):
    results = [{"name": "dense0.W", "rel_error": 1e-9, "pass": True},
               {"name": "lstm.U", "rel_error": 3e-3, "pass": False}]
    monkeypatch.setattr(cli.gradcheck_mod, "run_all",
                        lambda seed, presets: results)
    code, out, err = run(capsys, ["gradcheck", "--seed", "5"])
    assert code == 4
    doc = json.loads(out)  # one document, the whole of stdout
    assert (doc["passed"], doc["failed"]) == (1, 1)
    assert doc["checks"] == results
    assert "worst tensor lstm.U rel_error 3.000e-03" in err


def test_eval_of_a_checkpoint_as_its_data_exits_2(capsys, tmp_path):
    # the cache's magic is checked before anything else is read from it
    cache, _ = _prepare(capsys, tmp_path)
    ckpt, _ = _train(capsys, tmp_path, cache, epochs="1")
    code, out, err = run(capsys, ["eval", "--checkpoint", ckpt,
                                  "--data", ckpt])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad magic" in err


def test_stdout_is_single_json_document(capsys, tmp_path):
    cache, _ = _prepare(capsys, tmp_path)
    # each command's stdout parses as exactly one JSON document
    code, out, err = run(capsys, ["eval", "--checkpoint", "/missing",
                                  "--data", cache])
    assert code == 2
    assert out == ""  # errors never pollute stdout


def test_train_defaults_are_train_config_and_dtypes():
    # each default is stated once: train's flags read TrainConfig, and
    # --dtype offers exactly the dtypes a model can have
    args = cli.build_parser().parse_args(
        ["train", "--data", "d", "--preset", "baseline",
         "--out-checkpoint", "m"])
    tc = TrainConfig()
    assert (args.epochs, args.batch, args.patience, args.seed) == (
        tc.epochs, tc.batch_size, tc.patience, tc.seed)
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    (dtype,) = [a for a in sub.choices["train"]._actions
                if a.dest == "dtype"]
    assert list(dtype.choices) == list(model_zoo.DTYPES)
    assert dtype.default in model_zoo.DTYPES
