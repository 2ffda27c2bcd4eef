"""Tests of the benchmark's own helpers: spans, percentiles, failure
accounting, input generators and the independent geometry check.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import random

import pytest

import host
import inputs
import workloads
from host import HostSpeed
from spans import Instrumentation, Span, Target, Tracer, self_times, totals
from stats import MIN_BEYOND, Tally, percentile, summarize, tail_percentile


# -- spans ------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 5.0, 6.0, 0),
        Span(3, "leaf", 2.0, 3.0, 1),
    ]
    got = self_times(spans)
    assert got == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_counts_overlapping_cover_once():
    spans = [Span(0, "root", 0.0, 10.0, None), Span(1, "a", 1.0, 5.0, 0), Span(2, "b", 3.0, 12.0, 0)]
    # Children cover [1, 10] of the root: the overlap and the overhang count once.
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_totals_sum_inclusive_and_self_by_name():
    spans = [
        Span(0, "op", 0.0, 4.0, None),
        Span(1, "f", 0.5, 1.5, 0),
        Span(2, "f", 2.0, 3.0, 0),
        Span(3, "op", 4.0, 5.0, None),
    ]
    table = totals(spans)
    assert table["f"] == (2, 2.0, 2.0)
    assert table["op"] == (2, 5.0, 3.0)


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == outer
    assert by_name["outer"].parent is None
    assert by_name["outer"].start <= by_name["inner"].start <= by_name["inner"].end <= by_name["outer"].end


def test_instrumentation_traces_internal_calls_and_restores():
    from su3poly import classifier, polytope

    original = classifier.classify_n3
    tracer = Tracer()
    targets = [
        Target("su3poly.polytope", "build_polytope", "build"),
        Target("su3poly.classifier", "classify_n3", "classify"),
    ]
    with Instrumentation(tracer, targets):
        polytope.build_polytope((4, 2, -1))
    assert classifier.classify_n3 is original
    assert polytope.classify_n3 is original
    build = next(s for s in tracer.spans if s.name == "build")
    classify = next(s for s in tracer.spans if s.name == "classify")
    assert classify.parent == build.id


# -- percentiles ------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9


def test_percentile_enforces_the_rule_but_always_allows_the_median():
    values = list(range(1, 6))
    assert percentile(values, 50.0) == 3.0
    with pytest.raises(ValueError):
        percentile(values, 90.0)
    values = list(range(1, 101))
    assert percentile(values, 90.0) == 90.0
    with pytest.raises(ValueError):
        percentile(values, 99.0)


def test_summary_reports_count_and_highest_allowed_tail():
    s = summarize([float(i) for i in range(1, 1001)])
    assert (s.n, s.tail_p, s.tail) == (1000, 99.0, 990.0)
    assert "n=1000" in s.describe("s")
    assert summarize([1.0, 2.0]).tail is None
    assert MIN_BEYOND == 10


# -- failure accounting -----------------------------------------------------


def test_tally_counts_failures_against_attempts():
    t = Tally()
    for ok in (True, True, False, True):
        t.record("verify", ok, "bad")
    t.record("empirical", False, "deficit")
    assert (t.attempted, t.failed) == (5, 2)
    assert t.failed_ratio == pytest.approx(0.4)
    assert t.by_kind == {"verify": [4, 1], "empirical": [1, 1]}
    assert "2 failed of 5 attempted" in t.describe()
    assert Tally().failed_ratio == 0.0


def test_failed_operation_is_counted_not_fatal():
    def raises(run):
        raise ValueError("boom")

    def wrong(run):
        return lambda: (False, "wrong answer")

    def right(run):
        return lambda: (True, "")

    run = workloads.Run()
    for op in (raises, wrong, right):
        run.execute("op", op, traced=False)
    assert (run.tally.attempted, run.tally.failed) == (3, 2)


# -- host speed -------------------------------------------------------------


def test_slowdown_is_the_time_weighted_mean_of_smoothed_readings():
    speed = HostSpeed()
    for at, reading in [(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (4.0, 2.0)]:
        speed.record(at, reading * host.FULL_SPEED_S)
    assert speed.slowdown(0.0, 1.0) == pytest.approx(1.0)
    assert speed.slowdown(3.0, 4.0) == pytest.approx(2.0)
    # Linear between the readings at 1 s and 2 s: the mean over [1, 2] is 1.5,
    # and over [0, 2] it is (1 + 1.5) / 2.
    assert speed.slowdown(1.0, 2.0) == pytest.approx(1.5)
    assert speed.slowdown(0.0, 2.0) == pytest.approx(1.25)
    # Outside the readings the nearest one holds.
    assert speed.slowdown(-5.0, -4.0) == pytest.approx(1.0)
    assert speed.slowdown(2.5, 2.5) == pytest.approx(2.0)


def test_slowdown_smooths_away_one_outlying_reading():
    speed = HostSpeed()
    for at, reading in enumerate([1.0, 1.0, 9.0, 1.0, 1.0]):
        speed.record(float(at), reading * host.FULL_SPEED_S)
    assert speed.slowdown(0.0, 4.0) == pytest.approx(1.0)


def test_probe_time_inside_a_call_is_taken_out_of_its_timing():
    run = workloads.Run()

    def call():
        run.host.probe()  # as the timer signal would, in the middle of the call
        return 7

    assert run.time("call", call) == 7
    t0, t1, elapsed = run.plain.stamps["call"][0]
    assert len(run.host.readings) == 1
    assert elapsed == pytest.approx(t1 - t0 - run.host.probing_s)
    assert run.scaled("call")[0] == pytest.approx(elapsed / run.host.slowdown(t0, t1))


# -- input generators -------------------------------------------------------


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, inputs.HELDOUT_SEED])
def test_generators_are_deterministic_per_seed(seed):
    def make(s):
        rnd = random.Random(s)
        return inputs.mc_weights(rnd), inputs.atlas_weights(rnd, 200), inputs.sweeps(rnd, 5), inputs.mixed_lambdas(rnd)

    assert make(seed) == make(seed)
    assert make(seed) != make(seed + 1)


@pytest.mark.parametrize("seed", range(5))
def test_generated_weights_classify_as_their_type(seed):
    rnd = random.Random(seed)
    labelled = inputs.mc_weights(rnd) + inputs.atlas_weights(rnd, 300)
    labelled += [inputs.Labelled(lab, inputs.typed_weight(rnd, lab)) for lab in inputs.CONSTRUCTIONS]
    workloads.check_labels((x.label, x.weight) for x in labelled)
    for s in inputs.sweeps(rnd, 10):
        workloads.check_labels(zip(s.labels, s.points()))


def test_atlas_mix_is_one_fifth_transitions():
    weights = inputs.atlas_weights(random.Random(3), 1000)
    on_walls = sum(1 for x in weights if x.label not in inputs.GENERIC)
    assert on_walls == 200


def test_convex_targets_lie_in_the_hull_of_the_vertices():
    from su3poly import eigen_bounds

    rnd = random.Random(4)
    for _ in range(20):
        lams = inputs.mixed_lambdas(rnd)
        region = eigen_bounds.sum_bounds_three(*lams)
        target, _ = inputs.convex_target(rnd, [v.astuple() for v in region.vertices])
        assert region.contains(target, 0)


# -- independent geometry check ---------------------------------------------


def test_distance_to_polygon():
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert workloads.distance_to_polygon((0.5, 0.5), square) == 0.0
    assert workloads.distance_to_polygon((2.0, 0.5), square) == pytest.approx(1.0)
    assert workloads.distance_to_polygon((2.0, 2.0), square[::-1]) == pytest.approx(2 ** 0.5)
    assert workloads.distance_to_polygon((0.5, 1.0), [(0, 0), (1, 0)]) == pytest.approx(1.0)
    assert workloads.distance_to_polygon((3.0, 4.0), [(0, 0)]) == pytest.approx(5.0)
