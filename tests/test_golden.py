"""Golden run: the whole pipeline's output bytes, pinned.

A subprocess runs `prepare -> train -> eval (train, val, all) -> predict
--stdin` for every preset and dtype on two corpora, and `gradcheck --seed
0`, once under OPENBLAS_NUM_THREADS=1 and once under 2. Each prints a
manifest: the sha256 of every file written and of every stdout, with the
work directory's path replaced by `<work>`, beside the identity of the
numpy and BLAS build, the kernel OpenBLAS picked at run time and the
thread count. The tests compare both with the one `fixtures/golden.json`:
importing seqveritas runs every product on one BLAS thread and shards
the LSTM on its own threads, so no output depends on the count.

The corpora are the toy fixtures (V = 30, an embedding packed into the
arena of the other tensors) and a synthetic one from `perfbench/synth.py`
whose vocabulary gives the embedding an arena of its own in both dtypes,
with batches large enough for the embedding's 1-D scatter.

What `prepare` writes depends only on its inputs and is checked on every
build. Trained bytes depend on the BLAS kernels and numpy's SIMD paths, so
they are checked only when the build identity matches the fixture's,
whatever the thread count; otherwise the test skips and names both
identities.

Regenerate the fixture, only for a change that means to move a digest:

    python tests/test_golden.py > tests/fixtures/golden.json
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden.json"
THREADS = ("1", "2")

PRESETS = ("baseline", "regularized", "optimized")
DTYPES = ("float64", "float32")
# name -> (prepare options, train options); the synthetic corpus's batch of
# 16 x 40 tokens x E is more than layers.SCATTER_2D_ELEMENTS
CORPORA = {
    "toy": (["--seed", "42", "--maxlen", "10", "--vocab-size", "100",
             "--min-freq", "1"],
            ["--seed", "42", "--epochs", "3", "--batch", "8",
             "--patience", "50"]),
    "synth": (["--seed", "7", "--maxlen", "40", "--min-freq", "1"],
              ["--seed", "3", "--epochs", "2", "--batch", "16",
               "--patience", "50"]),
}
SYNTH_PER_CLASS = 30
SYNTH_MEDIAN_WORDS = 60
PREDICT_LINES = ("Shocking secret they do not want you to know!",
                 "The senate passed the budget bill on Tuesday.",
                 "")


def _identity():
    import numpy as np

    from seqveritas import blas

    config = np.show_config(mode="dicts")
    build = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {k: build.get(k) for k in
                     ("name", "version", "openblas configuration")},
            "core": blas.core(),
            "simd": config["SIMD Extensions"]}


def _corpus_files(name, work):
    """(fake, true) CSV paths of a corpus, written under `work`."""
    fake, true_ = work / f"{name}_fake.csv", work / f"{name}_true.csv"
    if name == "toy":
        fixtures = ROOT / "tests" / "fixtures"
        fake.write_bytes((fixtures / "toy_fake.csv").read_bytes())
        true_.write_bytes((fixtures / "toy_true.csv").read_bytes())
    else:
        from perfbench.synth import Synth, csv_bytes

        synth = Synth(1)
        fake.write_bytes(csv_bytes(synth.articles(
            1, SYNTH_PER_CLASS, median=SYNTH_MEDIAN_WORDS)))
        true_.write_bytes(csv_bytes(synth.articles(
            0, SYNTH_PER_CLASS, median=SYNTH_MEDIAN_WORDS)))
    return fake, true_


def manifest(work):
    """Run the golden pipeline in `work` (an empty directory) and return
    the manifest."""
    import contextlib
    import io

    from seqveritas import cli, model_zoo

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    def run(argv, stdin=""):
        out = io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        assert code == 0, (argv, code)
        return sha(out.getvalue().replace(str(work), "<work>").encode())

    def files(prefix):
        return {p.name: sha(p.read_bytes())
                for p in sorted(work.glob(prefix + "*"))}

    prepared, trained, embedding_alone = {}, {}, {}
    for name, (prepare_opts, train_opts) in CORPORA.items():
        fake, true_ = _corpus_files(name, work)
        cache = str(work / f"{name}.svec")
        prepared[f"{name}.prepare.stdout"] = run(
            ["prepare", "--fake", str(fake), "--true", str(true_),
             "--out", cache, *prepare_opts])
        prepared.update(files(f"{name}.svec"))
        for preset in PRESETS:
            for dtype in DTYPES:
                tag = f"{name}.{preset}.{dtype}"
                ckpt = str(work / f"{tag}.svchk")
                trained[f"{tag}.train.stdout"] = run(
                    ["train", "--data", cache, "--preset", preset,
                     "--dtype", dtype, *train_opts, "--out-checkpoint", ckpt])
                for split in ("train", "val", "all"):
                    trained[f"{tag}.eval.{split}.stdout"] = run(
                        ["eval", "--checkpoint", ckpt, "--data", cache,
                         "--split", split])
                trained[f"{tag}.predict.stdout"] = run(
                    ["predict", "--checkpoint", ckpt, "--stdin"],
                    "\n".join(PREDICT_LINES) + "\n")
                trained.update(files(tag))
                embedding_alone[tag] = (
                    model_zoo.load(ckpt).params[0].arena.count == 1)
    trained["gradcheck.seed0.stdout"] = run(["gradcheck", "--seed", "0"])
    return {"identity": _identity(),
            "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "embedding_alone": embedding_alone,
            "prepared": prepared, "trained": trained}


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """OPENBLAS_NUM_THREADS -> the manifest of a run under it."""
    runs = {}
    for threads in THREADS:
        proc = subprocess.run(
            [sys.executable, __file__, str(tmp_path_factory.mktemp("golden"))],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout)
    return runs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_prepared_bytes_match_golden(fresh, golden):
    for threads, run in fresh.items():
        assert run["threads"] == threads
        assert run["prepared"] == golden["prepared"], threads


def test_synth_embedding_is_alone_in_its_arena_and_toy_is_not(fresh, golden):
    for run in fresh.values():
        assert run["embedding_alone"] == golden["embedding_alone"]
        for tag, alone in run["embedding_alone"].items():
            assert alone == tag.startswith("synth."), tag


def test_trained_bytes_match_golden(fresh, golden):
    for threads, run in fresh.items():
        if run["identity"] != golden["identity"]:
            pytest.skip(f"build {run['identity']} is not the golden build "
                        f"{golden['identity']}")
        assert run["trained"] == golden["trained"], threads


if __name__ == "__main__":
    # the thread count must be set before numpy loads its BLAS; a
    # regenerated fixture records the first
    os.environ.setdefault("OPENBLAS_NUM_THREADS", THREADS[0])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if len(sys.argv) > 1:
        print(json.dumps(manifest(Path(sys.argv[1])), sort_keys=True))
    else:
        import tempfile

        with tempfile.TemporaryDirectory() as work:
            print(json.dumps(manifest(Path(work)), indent=1, sort_keys=True))
