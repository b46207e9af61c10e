"""Property tests: folding snapshots into a registry ignores order and grouping.

Cross-process aggregation folds worker snapshots into the coordinator in
whatever order the pipes drain, so `MetricsRegistry.merge_snapshot` must
not care about grouping or order. Observations are integer-valued so
floating-point sums are exact and equality is meaningful.
"""

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry

_BOUNDS = (10.0, 100.0, 1000.0)
_KINDS = ("encode", "count", "reduce")


@st.composite
def snapshots(draw):
    """A registry snapshot with a shared schema and arbitrary values."""
    reg = MetricsRegistry("prop")
    c = reg.counter("done", "tasks done", labelnames=("kind",))
    for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=6)):
        c.labels(kind=kind).inc(draw(st.integers(0, 1000)))
    reg.gauge("depth").set(draw(st.integers(0, 100)))
    h = reg.histogram("lat", "latency", buckets=_BOUNDS)
    for v in draw(st.lists(st.integers(0, 2000), max_size=20)):
        h.observe(v)
    return reg.snapshot()


def _fold(*snaps):
    """The snapshot of a fresh registry with ``snaps`` merged in, in order."""
    reg = MetricsRegistry("prop")
    for snap in snaps:
        reg.merge_snapshot(snap)
    return reg.snapshot()


def _canon(snap):
    """Order-independent view: series keyed by (metric, sorted labels)."""
    out = {}
    for m in snap["metrics"]:
        for s in m["series"]:
            key = (m["name"], tuple(sorted(s["labels"].items())))
            out[key] = {k: v for k, v in s.items() if k != "labels"}
    return out


@given(snapshots(), snapshots())
@settings(max_examples=50, deadline=None)
def test_merge_is_commutative(a, b):
    assert _canon(_fold(a, b)) == _canon(_fold(b, a))


@given(snapshots(), snapshots(), snapshots())
@settings(max_examples=50, deadline=None)
def test_merge_is_associative(a, b, c):
    left = _fold(_fold(a, b), c)
    right = _fold(a, _fold(b, c))
    assert _canon(left) == _canon(right)


@given(snapshots())
@settings(max_examples=25, deadline=None)
def test_empty_registry_is_identity_for_counters_and_histograms(a):
    empty = MetricsRegistry("prop").snapshot()
    assert _canon(_fold(a, empty)) == _canon(_fold(empty, a)) == _canon(a)


@given(st.lists(snapshots(), min_size=1, max_size=5), st.randoms())
@settings(max_examples=25, deadline=None)
def test_fold_order_and_grouping_do_not_matter(snaps, rnd):
    """Any permutation, folded through any split into two partial
    registries, gives the same snapshot as folding the list in order."""
    shuffled = list(snaps)
    rnd.shuffle(shuffled)
    cut = rnd.randint(0, len(shuffled))
    regrouped = _fold(_fold(*shuffled[:cut]), _fold(*shuffled[cut:]))
    assert _canon(regrouped) == _canon(_fold(*snaps))
