"""Every name the traced benchmark reports still opens a span.

`perfbench/spans.py` names the wrapped functions as strings, and
`perfbench/metrics.py` names the per-layer metrics derived from them; a
rename in `src/`, or a function no longer called by its traced name,
would otherwise only show when a traced run fails to install its
wrappers or ends without its result line.
"""

import importlib
import importlib.util
from pathlib import Path

from seqveritas import cli, gradcheck, textprep
from tests.conftest import TOY_FAKE, TOY_TRUE

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_the_program():
    traced = _load("spans").TRACED
    assert traced
    for short, names in traced.items():
        module = importlib.import_module(f"seqveritas.{short}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                assert hasattr(owner, part), f"seqveritas.{short}.{dotted}"
                owner = getattr(owner, part)
            assert callable(owner), f"seqveritas.{short}.{dotted}"


def test_a_toy_pipeline_opens_a_span_for_every_reported_name(tmp_path,
                                                             capsys):
    spans, metrics = _load("spans"), _load("metrics")
    recorder = spans.SpanRecorder()
    tracer = spans.Tracer(recorder)
    cache, ckpt = str(tmp_path / "toy.svec"), str(tmp_path / "m.svchk")
    tracer.install()
    try:
        textprep._stems.clear()  # so that preprocessing calls porter.stem
        for argv in (
                ["prepare", "--fake", TOY_FAKE, "--true", TOY_TRUE,
                 "--out", cache, "--seed", "42", "--maxlen", "10",
                 "--vocab-size", "100", "--min-freq", "1"],
                ["train", "--data", cache, "--preset", "optimized",
                 "--epochs", "1", "--batch", "8", "--out-checkpoint", ckpt],
                ["eval", "--checkpoint", ckpt, "--data", cache],
                ["predict", "--checkpoint", ckpt, "--text",
                 "Shocking secret they do not want you to know!"]):
            assert cli.main(argv) == 0, argv
        gradcheck.run_all(presets=("baseline",))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    missing = set(metrics.TIMED) | set(metrics.COUNTED)
    missing -= set(recorder.names)
    assert not missing, sorted(missing)
