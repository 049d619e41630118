"""Tests of the benchmark itself: self-time arithmetic, the output checks, the
count guard, and a tiny-size pass of every workload.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end}


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        tree = [
            span(0, "sim.run", 0.0, 10.0),
            span(1, "sim.build_for_gap", 1.0, 4.0, parent=0),
            span(2, "markov.conditional_table", 1.5, 2.5, parent=1),
            span(3, "sim.build_for_gap", 6.0, 7.0, parent=0),
        ]
        assert spans.self_times(tree, []) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_their_union(self):
        tree = [
            span(0, "a", 0.0, 10.0),
            span(1, "b", 2.0, 6.0, parent=0),
            span(2, "c", 4.0, 8.0, parent=0),
            span(3, "d", 9.0, 12.0, parent=0),  # runs past its parent's end
        ]
        assert spans.self_times(tree, [])[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_aggregated_calls_cover_their_parent(self):
        tree = [span(0, "sim.run", 0.0, 5.0)]
        aggs = [{"name": "scheme.sample", "parent": 0, "calls": 100, "total": 1.5}]
        assert spans.self_times(tree, aggs) == pytest.approx([3.5])

    def test_layer_metrics_account_for_the_wall_time(self):
        trace = {
            "spans": [
                span(0, "cli.import", 0.0, 1.0),
                span(1, "sim.run", 1.0, 5.0),
                span(2, "sim.build_for_gap", 1.5, 2.5, parent=1),
                span(3, "markov.conditional_table", 1.6, 1.9, parent=2),
                span(4, "markov.matrix_power", 1.7, 1.8, parent=3),
            ],
            "aggregates": [
                {"name": "scheme.sample", "parent": 1, "calls": 7, "total": 2.0}
            ],
            "counters": {"markov.matrix_power.mults": 3, "sim.steps": 7},
        }
        m = spans.layer_metrics(trace, wall_s=6.0)
        assert m["cli.self.s"] == pytest.approx(1.0)
        assert m["sim.run.s"] == pytest.approx(4.0)
        assert m["sim.loop_self.s"] == pytest.approx(1.0)
        assert m["scheme.sample.s"] == pytest.approx(2.0)
        assert m["scheme.sample.calls"] == 7
        assert m["sim.schemes_built"] == 1
        assert m["markov.matrix_power.mults"] == 3
        assert spans.self_seconds(m) == pytest.approx(6.0)
        assert set(m) <= set(spans.PER_LAYER)


class TestTracer:
    def test_wrapped_calls_nest_and_count(self):
        t = spans.Tracer()
        inner = spans._wrap(t, "markov.matrix_power", lambda P, delta: delta)
        outer = spans._wrap(t, "verify.check", lambda: inner(None, 4) + inner(None, 2))
        with t.span(spans.IMPORT_SPAN):
            pass
        assert outer() == 6
        dump = t.dump()
        names = [(s["name"], s["parent"]) for s in dump["spans"]]
        assert names == [
            ("cli.import", None), ("verify.check", None),
            ("markov.matrix_power", 1), ("markov.matrix_power", 1),
        ]
        assert dump["counters"]["markov.matrix_power.mults"] == 6

    def test_aggregated_name_records_no_spans(self):
        t = spans.Tracer()
        sample = spans._wrap(t, "scheme.sample", lambda: 1)
        with t.span("sim.run"):
            for _ in range(5):
                sample()
        (agg,) = t.dump()["aggregates"]
        assert (agg["name"], agg["parent"], agg["calls"]) == ("scheme.sample", 0, 5)
        assert len(t.spans) == 1


    def test_a_missing_function_is_listed_not_fatal(self, monkeypatch):
        monkeypatch.setattr(
            spans, "LAYER_FUNCTIONS", {("onoffpriv.lp", "solve_lp"): "lp.solve"}
        )
        t = spans.Tracer()
        spans.install(t)
        assert t.dump()["untraced"] == ["onoffpriv.lp.solve_lp"]


def output(tmp_path, obj, code=0):
    return workloads.Output(
        exit_code=code, stdout=json.dumps(obj).encode(), workdir=tmp_path
    )


class TestChecks:
    def sim_stats(self, **change):
        want = workloads.expected_set_cost(workloads.SIM_N, workloads.SIM_ALPHA, 1)
        stats = {
            "decode_failures": 0,
            "pass": True,
            "delta_buckets": {
                "0": {"count": 5000, "mean_q_size": 3.0},
                "1": {"count": 5000, "mean_q_size": want + 0.005},
                "2": {"count": 10, "mean_q_size": 1.0},
            },
        }
        stats.update(change)
        return stats

    def test_simulate_accepts_a_good_run(self, tmp_path):
        problems, counts = workloads.check_simulate(
            output(tmp_path, self.sim_stats()), 10, None
        )
        assert problems == [] and counts == {"distinct_gaps": 3}

    @pytest.mark.parametrize("change", [
        {"decode_failures": 2},
        {"pass": False},
        {"delta_buckets": {"1": {"count": 1000, "mean_q_size": 2.0}}},
    ])
    def test_simulate_flags_bad_runs(self, tmp_path, change):
        problems, _ = workloads.check_simulate(
            output(tmp_path, self.sim_stats(**change)), 10, None
        )
        assert len(problems) == 1

    def test_simulate_checks_the_trace_length(self, tmp_path):
        (tmp_path / "t.csv").write_text("t,x\n0,1\n")
        problems, _ = workloads.check_simulate(
            output(tmp_path, self.sim_stats()), 2, "t.csv"
        )
        assert problems == ["trace CSV has 1 rows, horizon is 2"]

    @pytest.mark.parametrize("value,ok", [
        (1.5, True), (1.0 - 0.5e-7, True), (1.0 - 2e-7, False), (2.0 + 2e-8, False),
    ])
    def test_lp_value_must_sit_between_the_bounds(self, tmp_path, value, ok):
        obj = {"value": value, "status": "optimal", "iterations": 9,
               "inv_r_outer": 1.0, "inv_r_inner": 2.0}
        problems, counts = workloads.check_lp(output(tmp_path, obj))
        assert (problems == []) == ok and counts == {"iterations": 9}

    def test_wrong_exit_code_is_a_failure(self, tmp_path):
        problems, _ = workloads.check_verify(output(tmp_path, {"entry_count": 3}, 1))
        assert problems == ["exit code 1, expected 0"]

    def test_scheme_summary_is_read_from_the_tail(self, tmp_path):
        obj = {"multiset": {"entries": [{"p": 0.5}] * 5000}, "summary": {
            "achievable_cost": 2.0, "expected_size_multiset": 2.0 + 5e-9,
            "multiset_entries": 5000}, "theta": [0.1] * 40}
        (tmp_path / "s.json").write_text(json.dumps(obj, indent=2, sort_keys=True))
        problems, counts = workloads.check_scheme(output(tmp_path, {}), "s.json")
        assert problems == ["multiset expected size is 5e-09 off the achievable cost"]
        assert counts == {"entries": 5000}


class TestCountGuard:
    def test_counts_must_repeat_within_and_across_runs(self, tmp_path):
        store = tmp_path / "counts.json"
        assert run.guard_counts("k", "outputs", [{"a": 1}, {"a": 1}], store) == [None]
        assert run.guard_counts("k", "outputs", [{"a": 1}], store) == [None]
        (problem,) = run.guard_counts("k", "outputs", [{"a": 2}], store)
        assert "earlier run" in problem
        (problem,) = run.guard_counts("j", "outputs", [{"a": 1}, {"a": 2}], store)
        assert "differ" in problem
        assert "j" not in json.loads(store.read_text())

    def test_inputs_repeat_for_a_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        sizes = workloads.TINY_SIZES["scheme-lp"]
        argv_a = [c.argv for c in workloads.build("scheme-lp", 4, a, sizes)]
        argv_b = [c.argv for c in workloads.build("scheme-lp", 4, b, sizes)]
        assert argv_a == argv_b
        assert (a / "chain.json").read_text() == (b / "chain.json").read_text()


def test_wall_rel_sums_each_commands_median_ratio_to_the_reference():
    def seq(walls, reference, gen, imports):
        return run.Sequence(traced=False, gen_s=gen, wall_s=sum(walls.values()),
                            walls=walls, reference_s=reference, import_s=imports)

    metrics = run.end_to_end([
        seq({"a": 3.0, "b": 6.0}, 1.5, 0.02, [1.1, 1.3]),
        seq({"a": 4.0, "b": 1.0}, 1.0, 0.01, [0.9, 1.2]),
        seq({"a": 5.0, "b": 2.0}, 1.0, 0.03, [1.0]),
    ])
    assert metrics["wall_rel"] == pytest.approx(4.0 + 2.0)
    # gen over reference: 0.0133, 0.01, 0.03; imports: 0.733, 0.867, 0.9, 1.2, 1.0
    assert metrics["setup_s"] == pytest.approx(run.REFERENCE_S * (0.0133333 + 0.9))


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in spans.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_of_each_workload(tmp_path, workload):
    sizes = workloads.TINY_SIZES[workload]
    deadline = run.time.monotonic() + 120
    plain = run.run_sequence(workload, 1, sizes, tmp_path, False, deadline)
    traced = run.run_sequence(workload, 1, sizes, tmp_path, True, deadline)
    for seq in (plain, traced):
        assert seq.problems == [] and seq.failed_commands == 0
    assert plain.counts == traced.counts
    assert set(traced.layers) <= set(spans.PER_LAYER)
    assert spans.self_seconds(traced.layers) == pytest.approx(traced.wall_s)
