"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import sys
import types

import pytest

import check
import run
import stats
import tracer
import workloads as W


# -- the tail percentile rule -------------------------------------------------

def test_tail_has_ten_samples_beyond():
    value, pct, n = stats.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(x > value for x in range(1, 101)) == 10


def test_tail_smallest_sample_count():
    assert stats.tail(range(11)) == (0, 100 / 11, 11)


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_omitted_with_too_few_samples(count):
    assert stats.tail(range(count)) is None


# -- self time from nested spans ----------------------------------------------

def test_self_time_from_nested_spans():
    spans = [
        tracer.Span(0, None, "root", 0.0, 20.0),
        tracer.Span(1, 0, "outer", 0.0, 10.0,
                    {("hot",): [3, 2.0], ("hot", "leaf"): [5, 0.5]}),
        tracer.Span(2, 1, "inner", 1.0, 4.0),
        tracer.Span(3, 1, "inner", 5.0, 6.0),
        tracer.Span(4, 0, "outer", 12.0, 13.0),
    ]
    out = tracer.summarize(spans)
    assert out["outer"] == pytest.approx([2, 11.0, 4.0 + 1.0])   # 10 - 3 - 1 - 2, and 1
    assert out["inner"] == pytest.approx([2, 4.0, 4.0])
    assert out["hot"] == pytest.approx([3, 2.0, 1.5])
    assert out["leaf"] == pytest.approx([5, 0.5, 0.5])
    assert "root" not in out


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")

    def leaf(x):
        return x + 1

    def hot(x):
        return mod.leaf(x) * 2

    def outer(n):
        return sum(mod.hot(i) for i in range(n))

    mod.leaf, mod.hot, mod.outer = leaf, hot, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_wraps_at_lookup_site_and_marks_absent(fake_module):
    t = tracer.Tracer()
    t.install([("fake.outer", False, None, ("perfbench_fake.outer",)),
               ("fake.hot", True, None, ("perfbench_fake.hot",)),
               ("fake.leaf", True, None, ("perfbench_fake.leaf",)),
               ("fake.gone", False, None, ("perfbench_fake.gone",))])
    assert fake_module.outer(4) == 2 * (1 + 2 + 3 + 4)
    rep = t.report()
    assert rep["status"] == {"fake.outer": "wrapped", "fake.hot": "wrapped",
                             "fake.leaf": "wrapped", "fake.gone": "absent"}
    names = rep["names"]
    assert names["fake.outer"][0] == 1
    assert names["fake.hot"][0] == 4 and names["fake.leaf"][0] == 4
    # hot calls are aggregated under the one span, not kept per call
    assert len(t.spans) == 2
    for calls, total, self_s in names.values():
        assert 0 <= self_s <= total
    assert names["fake.hot"][2] == pytest.approx(names["fake.hot"][1] - names["fake.leaf"][1])


def test_tracer_does_not_wrap_twice(fake_module):
    t = tracer.Tracer()
    target = [("fake.outer", False, None, ("perfbench_fake.outer",))]
    t.install(target)
    t.install(target)
    fake_module.outer(2)
    assert t.report()["names"]["fake.outer"][0] == 1


# -- the correctness checker --------------------------------------------------

def test_checker_flags_sign_flip():
    assert check.check_value(-5, 1, math.log(5)) == "sign_flip"
    assert check.check_value(-5, -1, math.log(5)) is None


def test_checker_flags_nonzero_sign_on_exact_zero():
    assert check.check_value(0, 1, 10.0) == "zero_sign"
    assert check.check_value(0, -1, -30.0) == "zero_sign"
    assert check.check_value(0, 0, -math.inf) is None


def test_checker_relative_tolerance():
    exact = 10 ** 40
    assert check.check_value(exact, 1, math.log(exact) + 1e-8) is None
    assert check.check_value(exact, 1, math.log(exact) + 1e-5) == "tolerance"
    assert check.check_value(exact, 1, math.log(exact), 1e-3) == "imag_noise"


def test_check_asym_document():
    doc = '{"K":79,"imag_over_real":"0","log_abs":"%r","n":1000,"sign":1}'
    assert check.check_asym(doc % math.log(12345), 12345, 79) is None
    assert check.check_asym(doc % math.log(12345), -12345, 79) == "sign_flip"
    assert check.check_asym(doc % math.log(12345), 12345, 80) == "field_mismatch"
    assert check.check_asym("not json", 12345, 79) == check.BAD_OUTPUT


# -- plans draw only inputs that have references --------------------------------

@pytest.mark.parametrize("workload", W.WORKLOADS + W.PROBES)
def test_plans_are_seeded_and_referenced(workload):
    doc = W.load_reference(workload)
    ref = doc["expected"]
    for seed in range(40):
        plan = W.plan_round(workload, seed, doc)
        assert plan == W.plan_round(workload, seed, doc)
        for q in plan:
            if workload == "expand":
                assert f"{q['spec']}@{q['N']}" in ref
            elif q["check"] == "asym":
                assert str(q["n"]) in ref["asym"][q["spec"]]["g"]
            elif q["check"] == "transform":
                assert q["spec"] in ref["transform"]


def test_known_defects_only_in_the_probe():
    doc = W.load_reference("oneshot")
    g = doc["expected"]["asym"]
    exact = lambda q: int(g[q["spec"]]["g"][str(q["n"])])
    probe = W.plan_round("defects", 0, doc)
    assert sum(exact(q) == 0 for q in probe) == 11
    assert [q["n"] for q in probe if exact(q) != 0] == [1445]
    for seed in range(40):
        assert all(exact(q) != 0 for q in W.plan_round("oneshot", seed, doc)
                   if q["check"] == "asym")


# -- end-to-end metrics ----------------------------------------------------------

def test_timings_use_each_slots_best():
    acc = run.Acc()
    for latency, slot in ((0.3, "0"), (0.1, "1"), (0.2, "0"), (0.4, "1")):
        acc.query(latency, None, slot)
    for spawn_cost, slot in ((0.05, "a"), (0.07, "b"), (0.04, "a"), (0.09, "b"), (0.2, "c")):
        acc.worker({"ready_at": 1.0 + spawn_cost, "import_s": 0.0, "rss_kb": 2048}, 1.0, slot)
    e2e = run.end_to_end(acc)
    assert e2e["wall_s"] == pytest.approx(0.3)
    assert e2e["query_p50_ms"] == pytest.approx(150.0)
    assert e2e["setup_s"] == pytest.approx(0.07)
    assert e2e["peak_rss_mb"] == 2.0


def test_timings_left_out_when_every_query_failed():
    acc = run.Acc()
    for _ in range(3):
        acc.query(None, check.TIMEOUT)
    assert run.end_to_end(acc) == {}
    assert acc.failures == {check.TIMEOUT: 3}


def test_designated_layers_named_in_benchmark():
    designated = run.load_metric_specs()["designated"]
    assert set(designated) == set(W.WORKLOADS)
    assert all(m in run.LAYER_SOURCES for ms in designated.values() for m in ms)
