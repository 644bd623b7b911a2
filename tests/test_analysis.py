import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abel_sched import (
    NormTrace,
    classify_trace,
    decay_alignment,
    detect_bounce,
    post_decay_drops,
    top_layer_contribution,
)
from abel_sched.analysis import analyze_trace, growth_rate_deciles


def trace_of(values, decays=(), per_layer=None):
    return NormTrace.from_values(values, decay_epochs=decays, per_layer=per_layer)


def test_v_shape_bounces_at_the_minimum():
    assert detect_bounce(trace_of([10, 8, 6, 7, 8.5]), 0.0) == [3]


def test_monotone_segments_have_no_bounce():
    assert detect_bounce(trace_of([1, 2, 3, 4, 5, 6]), 0.0) == []
    assert detect_bounce(trace_of([6, 5, 4, 3, 2, 1]), 0.0) == []
    assert detect_bounce(trace_of([2, 2, 2, 2, 2, 2]), 0.0) == []


def test_wiggle_within_tolerance_still_one_bounce():
    # a 0.1% upward wiggle right before the minimum, analyzed at 0.5% tolerance
    values = [10.0, 9.0, 8.0, 7.0, 7.007, 6.5, 7.3, 8.2, 9.0]
    strict = detect_bounce(trace_of(values), 0.0)
    tolerant = detect_bounce(trace_of(values), 0.005)
    assert strict == []  # the wiggle cuts the strict down-run to one step
    assert tolerant == [6]


def test_short_segment_gives_no_verdict():
    assert detect_bounce(trace_of([10, 8, 6, 7]), 0.0) == []
    # segmentation at a decay epoch can leave both pieces too short
    assert detect_bounce(trace_of([10, 8, 6, 7, 8.5], decays=(2,)), 0.0) == []


def test_segmentation_at_decay_epochs():
    # one V per fixed-lr segment
    values = [10, 8, 6, 7, 8.5, 50, 40, 30, 35, 41]
    hits = detect_bounce(trace_of(values, decays=(5,)), 0.0)
    assert hits == [3, 8]
    # a V straddling a decay boundary is not a bounce: each fixed-lr piece
    # is monotone on its own
    values = [10, 9, 8, 7, 6, 7, 8, 9, 10, 11]
    assert detect_bounce(trace_of(values), 0.0) == [5]
    assert detect_bounce(trace_of(values, decays=(5,)), 0.0) == []


def test_segment_additivity_of_classification():
    values = [10, 8, 6, 7, 8.5, 50, 40, 30, 35, 41]
    whole = detect_bounce(trace_of(values, decays=(5,)), 0.0)
    first = detect_bounce(trace_of(values[:5]), 0.0)
    second = [e + 5 for e in detect_bounce(trace_of(values[5:]), 0.0)]
    assert whole == first + second


def test_classify_trace_labels():
    assert classify_trace(trace_of([10, 8, 6, 7, 8.5, 9, 9.5])) == "bouncing"
    assert classify_trace(trace_of([1, 1.2, 1.4, 1.6, 1.8, 2.0])) == "monotone_increasing"
    assert classify_trace(trace_of([2.0, 1.8, 1.6, 1.4, 1.2, 1.0])) == "monotone_decreasing"
    assert classify_trace(trace_of([1, 1, 1, 1, 1, 1])) == "flat"
    # non-monotone wiggles without a tolerance-visible bounce stay flat
    assert classify_trace(trace_of([1, 1.001, 0.999, 1.0005, 1, 1.0002])) == "flat"


def test_decay_alignment_verdicts():
    # bounce at 3, decays at 6 (after it) and far later
    values = [10, 8, 6, 7, 8.5, 9, 9.5, 10, 10.5, 11]
    verdicts = decay_alignment(trace_of(values, decays=(6, 9)))
    assert [(v.epoch, v.alignment) for v in verdicts] == [
        (6, "after_bounce"), (9, "no_bounce_segment")]
    assert verdicts[0].epochs_since_bounce == 3

    # decay before any bounce
    values = [10, 9, 8, 7, 6, 5, 4, 3, 4, 5, 6, 7]
    verdicts = decay_alignment(trace_of(values, decays=(3,)))
    assert [(v.epoch, v.alignment) for v in verdicts] == [(3, "before_bounce")]

    # no bounce anywhere
    verdicts = decay_alignment(trace_of([9, 8, 7, 6, 5, 4, 3, 2], decays=(4,)))
    assert [v.alignment for v in verdicts] == ["no_bounce_segment"]


def test_post_decay_drops_monotone_finding():
    errors = [0.30, 0.25, 0.20, 0.17, 0.14, 0.13, 0.12, 0.118, 0.117, 0.1168]
    epochs = list(range(1, 11))
    drops, monotone = post_decay_drops(errors, epochs, [3, 6], window=3)
    assert [d.epoch for d in drops] == [3, 6]
    assert drops[0].drop == pytest.approx(0.20 - 0.13)
    assert drops[1].drop == pytest.approx(0.13 - 0.117)
    assert monotone is True

    errors = [0.3, 0.29, 0.28, 0.27, 0.20, 0.19, 0.10, 0.09, 0.09, 0.09]
    drops, monotone = post_decay_drops(errors, epochs, [3, 6], window=3)
    assert monotone is False  # the second drop is larger: reported, not an error


def test_post_decay_drops_partial_window():
    errors = [0.3, 0.2, 0.1, 0.09, 0.08]
    drops, _ = post_decay_drops(errors, [1, 2, 3, 4, 5], [4], window=3)
    assert drops[0].partial  # only one epoch remains after the decay
    drops, _ = post_decay_drops(errors, [1, 2, 3, 4, 5], [5], window=3)
    assert np.isnan(drops[0].drop) and drops[0].partial
    with pytest.raises(ValueError):
        post_decay_drops(errors, [1, 2, 3, 4, 5], [7], window=3)


def test_top_layer_contribution_shares():
    n = 8
    per_layer = {"a": tuple([4.0] * n), "b": tuple([4.0] * n)}
    trace = trace_of([8.0] * n, per_layer=per_layer)
    shares = top_layer_contribution(trace, k=1)
    assert len(shares) == 1
    assert shares[0].mean_share == pytest.approx(0.5)
    assert shares[0].matches_total  # both flat

    shares = top_layer_contribution(trace, k=5)  # k > layer count uses all
    assert sum(s.mean_share for s in shares) == pytest.approx(1.0)


def test_top_layer_classification_match_flag():
    n = 10
    up = tuple(1.0 + 0.2 * i for i in range(n))
    down = tuple(3.0 - 0.2 * i for i in range(n))
    trace = trace_of([a + b for a, b in zip(up, down)],
                     per_layer={"up": up, "down": down})
    shares = top_layer_contribution(trace, k=2)
    by_name = {s.name: s for s in shares}
    assert by_name["down"].classification == "monotone_decreasing"
    assert by_name["up"].classification == "monotone_increasing"
    # total is flat: 4.0 throughout, so neither layer matches it
    assert not by_name["up"].matches_total


def test_growth_rate_deciles():
    trace = trace_of(list(np.linspace(100, 120, 21)))
    deciles = growth_rate_deciles(trace)
    assert len(deciles) == 11
    assert all(b >= a for a, b in zip(deciles, deciles[1:]))
    assert all(d > 0 for d in deciles)


def test_analyze_trace_full_report():
    values = [10, 8, 6, 7, 8.5, 9, 9.5, 10, 10.5, 11]
    errors = [0.5, 0.4, 0.3, 0.25, 0.2, 0.18, 0.17, 0.16, 0.155, 0.15]
    report = analyze_trace(trace_of(values, decays=(6,)), errors=errors)
    assert report.classification == "bouncing"
    assert report.bounce_epochs == [3]
    assert report.decays[0].alignment == "after_bounce"
    assert len(report.drops) == 1
    assert len(report.growth_rate_deciles) == 11


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.floats(-0.2, 0.2), min_size=0, max_size=60),
       decays=st.sets(st.integers(1, 61), max_size=4),
       noise_tol=st.sampled_from([0.0, 0.005, 0.05]), layered=st.booleans())
def test_analyze_trace_is_its_public_parts(steps, decays, noise_tol, layered):
    """analyze_trace shares one computation of the segment reports between
    its parts; each part still equals the public function it stands for."""
    values = list(np.exp(np.cumsum([0.0, *steps])))
    decays = tuple(d for d in sorted(decays) if d <= len(values))
    per_layer = ({"a": [v / 3 for v in values], "b": [2 * v / 3 for v in values]}
                 if layered else None)
    trace = trace_of(values, decays=decays, per_layer=per_layer)
    report = analyze_trace(trace, noise_tol=noise_tol)
    assert report.classification == classify_trace(trace, noise_tol)
    assert report.bounce_epochs == detect_bounce(trace, noise_tol)
    assert report.decays == decay_alignment(trace, noise_tol)
    assert report.bounce_epochs == [b for seg in report.segments for b in seg.bounce_epochs]
    if layered:
        assert report.top_layers == top_layer_contribution(trace, 2, noise_tol)
    for part in (analyze_trace, decay_alignment):
        with pytest.raises(ValueError, match="noise_tol must be >= 0"):
            part(trace, noise_tol=-0.1)


def test_trace_validation():
    with pytest.raises(ValueError):
        NormTrace(epochs=(1, 2), wsq=(1.0,))
    with pytest.raises(ValueError):
        NormTrace(epochs=(2, 1), wsq=(1.0, 1.0))
    with pytest.raises(ValueError):
        NormTrace(epochs=(1, 2), wsq=(1.0, -1.0))
    with pytest.raises(ValueError):
        NormTrace(epochs=(1, 2), wsq=(1.0, 2.0), per_layer={"a": (1.0,)})
    with pytest.raises(ValueError):
        detect_bounce(trace_of([1, 2, 3, 4, 5]), -0.1)
