"""Tests of the benchmark's own machinery: input determinism, span self
times, calibrated intervals, tracer installation and BENCHMARK.json."""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from clock import REF_NOMINAL_S, Clock  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import SpanRecorder, Tracer  # noqa: E402
from synth import Synth, csv_bytes  # noqa: E402


def _inputs(seed):
    syn = Synth(seed)
    x, y = syn.sequences(16, 1000, 20)
    return (csv_bytes(syn.articles(1, 6)) + csv_bytes(syn.articles(0, 6)),
            x.tobytes() + y.tobytes(),
            "\n".join(syn.texts(4)).encode(),
            "\n".join(syn.vocab_tokens(1000)).encode())


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7) == _inputs(7)
    assert all(a != b for a, b in zip(_inputs(7), _inputs(8)))


def test_article_lengths_are_the_same_multiset_for_every_seed():
    assert (sorted(Synth(1).article_lengths(50))
            == sorted(Synth(2).article_lengths(50)))


def test_rescaled_lengths_keep_the_distribution_shape():
    syn = Synth(1)
    default, scaled = syn.article_lengths(101), syn.article_lengths(101, 40)
    assert np.median(default) == 330 and np.median(scaled) == 40
    assert scaled.min() >= 4 and np.median(Synth(1).article_lengths(101, 330)) == 330


def test_miniature_vocabulary_gets_sequences():
    x, _ = Synth(2).sequences(8, 50, 6)
    assert x.shape == (8, 6) and x.min() >= 1 and x.max() < 50


def test_sequences_are_pre_padded_indices_in_range():
    x, y = Synth(3).sequences(40, 1000, 25)
    assert x.shape == (40, 25) and set(np.unique(y)) == {0, 1}
    assert x.min() >= 0 and x.max() < 1000
    for row in x:
        nonzero = np.flatnonzero(row)
        assert nonzero.size and np.all(row[nonzero[0]:] > 0)


def test_self_time_is_duration_minus_children():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))

    def outer():
        inner()
        inner()
        return sum(range(20000))

    rec.wrap("outer", outer)()
    dur, self_t = rec.durations(), rec.self_times()
    assert rec.names == ["outer", "inner"]
    assert list(rec.parent) == [-1, 0, 0]
    assert np.isclose(self_t[0], dur[0] - dur[1] - dur[2])
    assert np.isclose(self_t.sum(), dur[0])


def test_calibrated_interval_excludes_handler_time_and_scales():
    clock = Clock()
    # four reference samples at twice the nominal duration: half speed
    clock.starts = [1.0, 1.1, 1.2, 1.3]
    clock.ends = [s + 2 * REF_NOMINAL_S for s in clock.starts]
    raw, calibrated = clock.interval(1.05, 1.25)
    assert np.isclose(raw, 0.2 - 2 * 2 * REF_NOMINAL_S)
    assert np.isclose(calibrated, raw / 2)


def test_tracer_patches_imported_names_and_restores_them():
    from seqveritas import layers, model_zoo, numerics, optim, objective
    originals = (model_zoo.lstm_forward, optim.bce, numerics.Prng.uniform)
    tracer = Tracer(SpanRecorder())
    tracer.install()
    try:
        assert model_zoo.lstm_forward is layers.lstm_forward
        assert model_zoo.lstm_forward is not originals[0]
        assert optim.bce is objective.bce is not originals[1]
        numerics.Prng(1).uniform(0.0, 1.0, (3, 4))
        assert tracer.rec.names == ["numerics.Prng.uniform"]
        assert tracer.draws == {"": 12}
    finally:
        tracer.uninstall()
    assert (model_zoo.lstm_forward, optim.bce,
            numerics.Prng.uniform) == originals


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_benchmark_json_names_every_workload():
    from workloads import SCALES
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(SCALES)
