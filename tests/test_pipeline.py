"""Throughput model: latency composition, buffering, contention, devices."""

import json

import numpy as np
import pytest

from fdas.pipeline import (DeviceModel, ModelError, PipelinePlan, StageTiming,
                           choose_buffering, contended_period, ideal_period,
                           load_timing_rows, multi_device_period,
                           plan_pipeline, simulate_overlap, sweep,
                           total_latency, write_report_csv, write_report_json)

MS = 1e-3


def totals(t_ft, t_fop, t_hm, demands=None):
    return StageTiming.from_totals(t_ft, t_fop, t_hm, demands)


# measured single-device latencies for the evaluated kernel combinations:
# (serial latency ms, pipelined period ms, buffering depth used)
REFERENCE_ROWS = [
    ("ola-128+naive-multi", 2121, 1698, 2),
    ("ola-256+naive-multi", 1278, 854, 2),
    ("ola-128+multi-n", 2916, 2219, 2),
    ("ola-128+multi-r", 3917, 1935, 2),
    ("ola-128+multi-r-host", 2727, 2052, 2),
    ("ola-128+single", 2662, 1966, 2),
    ("aols-2048+naive-multi", 856, 570, 2),
    ("aols-2048+multi-n", 976, 661, 2),
    ("aols-2048+multi-r", 8780, 6630, 2),
    ("aols-2048+multi-r-host", 972, 633, 2),
    ("aols-2048+single", 786, 682, 2),
    ("aols-2048+third-naive-multi", 523, 307, 3),
    ("aols-2048+third-multi-n", 587, 334, 3),
]


def reference_timing(t_fdas, period, buffering):
    """Stage split consistent with a (serial latency, period, depth) row.

    Rows run at depth 2 split as (T-P, P, 0) (note max(T-P, P) >= T/2 always);
    depth-3 rows split the period across two stages so the longest stage
    stays under half the total.
    """
    if buffering == 2:
        return totals(t_fdas - period, period, 0.0)
    return totals(t_fdas - period, period / 2, period / 2)


class TestStageTiming:
    def test_launch_decomposition(self):
        st = StageTiming(per_launch=[0.1, 0.2, 0.3], t_klo=0.05)
        assert st.n_ft_launch == 3
        assert st.t_ft == pytest.approx(0.6 + 3 * 0.05)

    def test_boolean_composition(self):
        st = StageTiming(per_launch=[1.0], t_discard=0.2, t_transpose=0.3,
                         t_reorder=0.4, b_discard=True, b_transpose=False,
                         b_reorder=True)
        assert st.t_fop == pytest.approx(0.6)

    @pytest.mark.parametrize("fields", [
        dict(per_launch=[True]), dict(t_hm=False), dict(demands={"hm": True}),
        dict(b_reorder=1), dict(demands=None), dict(t_klo=float("nan"))],
        ids=["bool-launch", "bool-time", "bool-demand", "int-flag",
             "null-demands", "nan-time"])
    def test_wrong_type_rejected(self, fields):
        with pytest.raises(ModelError):
            StageTiming(**fields)

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            StageTiming(per_launch=[-1.0])
        for name in ("t_klo", "t_input_transform", "t_discard", "t_transpose",
                     "t_reorder", "t_hm"):
            with pytest.raises(ModelError):
                StageTiming(**{name: -0.1})

    def test_dict_round_trip(self):
        st = StageTiming(per_launch=[0.1, 0.2], t_klo=0.01, t_discard=0.3,
                         b_discard=True, t_hm=0.5, demands={"ft": 1e9})
        back = StageTiming.from_dict(json.loads(json.dumps(st.to_dict())))
        assert back.to_dict() == st.to_dict()

    def test_record_keys_and_order(self):
        # the timing.json keys: the fields in order, then the derived totals
        assert list(StageTiming().to_dict()) == [
            "per_launch", "t_klo", "t_input_transform", "t_discard",
            "t_transpose", "t_reorder", "b_discard", "b_transpose", "b_reorder",
            "t_hm", "demands", "input_transforms", "points_read",
            "plane_writes", "t_ft", "t_fop", "t_fdas"]

    def test_reads_record_with_retired_prep_path(self):
        raw = {"per_launch": [0.25, 0.5], "t_klo": 0.0,
               "t_input_transform": 0.125, "t_discard": 0.0625,
               "t_transpose": 0.0, "t_reorder": 0.0, "b_discard": True,
               "b_transpose": False, "b_reorder": False, "t_hm": 1.0,
               "demands": {"ft": 2e9, "hm": 1e9}, "prep_path": "host",
               "input_transforms": 3, "points_read": 4096,
               "plane_writes": 0, "t_ft": 0.875, "t_fop": 0.0625,
               "t_fdas": 1.9375}
        st = StageTiming.from_dict(raw)
        assert st.to_dict() == {k: v for k, v in raw.items() if k != "prep_path"}

    def test_totals_form(self):
        st = totals(1.0, 2.0, 3.0)
        assert (st.t_ft, st.t_fop, st.t_hm) == (1.0, 2.0, 3.0)


class TestTotalLatency:
    def test_reference_platform_rows(self):
        # two platform measurements: stage sums must reproduce the totals
        assert total_latency(totals(347, 560, 122)) == 1029
        assert total_latency(totals(190, 633, 149)) == 972

    def test_zero(self):
        assert total_latency(StageTiming()) == 0.0


class TestChooseBuffering:
    def test_balanced_goes_triple(self):
        assert choose_buffering(totals(1, 1, 1)) == 3

    def test_dominant_stage_goes_double(self):
        assert choose_buffering(totals(3, 1, 1)) == 2

    def test_measured_combination_goes_double(self):
        assert choose_buffering(totals(190, 633, 149)) == 2

    def test_threshold_rule_over_random_triples(self, rng):
        stages = rng.uniform(0.001, 10.0, size=(10_000, 3))
        for a, b, c in stages:
            st = totals(a, b, c)
            expected = 3 if max(a, b, c) < (a + b + c) / 2 else 2
            assert choose_buffering(st) == expected

    def test_scale_invariance(self, rng):
        for _ in range(200):
            a, b, c = rng.uniform(0.001, 10.0, 3)
            scale = float(rng.uniform(0.01, 1000.0))
            assert choose_buffering(totals(a, b, c)) == \
                choose_buffering(totals(a * scale, b * scale, c * scale))

    def test_zero_total_rejected(self):
        with pytest.raises(ModelError):
            choose_buffering(StageTiming())


class TestIdealPeriod:
    def test_triple_balanced(self):
        st = totals(1, 1, 1)
        assert ideal_period(st, 3) == 1
        assert total_latency(st) / ideal_period(st, 3) == 3

    def test_double_balanced(self):
        st = totals(1, 1, 1)
        assert ideal_period(st, 2) == 2
        assert total_latency(st) / ideal_period(st, 2) == 1.5

    def test_double_period_bounds_measured_row(self):
        # serial latency 856 ms with a measured 570 ms period: the double
        # buffering window is [T/2, T], i.e. speedup capped at 2
        t_fdas, period = 856, 570
        assert t_fdas / 2 <= period <= t_fdas
        st = reference_timing(t_fdas, period, 2)
        assert ideal_period(st, 2) == period

    def test_bounds_property(self, rng):
        for _ in range(500):
            a, b, c = rng.uniform(0.001, 10.0, 3)
            st = totals(a, b, c)
            total = total_latency(st)
            for buffering in (2, 3):
                p = ideal_period(st, buffering)
                assert total / buffering - 1e-12 <= p <= total + 1e-12

    def test_serial(self):
        assert ideal_period(totals(1, 2, 3), 1) == 6

    @pytest.mark.parametrize("buffering", [0, 4])
    def test_unknown_buffering_rejected(self, buffering):
        with pytest.raises(ModelError, match="buffering must be 1, 2 or 3"):
            ideal_period(totals(1, 2, 3), buffering)


class TestSimulateOverlap:
    def test_no_contention_returns_durations(self):
        comp = simulate_overlap([[(2.0, 0.3)], [(3.0, 0.3)]], bandwidth=1.0)
        assert comp == [2.0, 3.0]

    def test_full_bandwidth_pair_stretches_twice(self):
        comp = simulate_overlap([[(1.0, 1.0)], [(3.0, 1.0)]], bandwidth=1.0)
        # while both run the rate halves; the survivor then runs alone
        assert comp[0] == pytest.approx(2.0)
        assert comp[1] == pytest.approx(4.0)

    def test_saturating_task_serializes_partner(self):
        comp = simulate_overlap([[(2.0, 1.5)], [(3.0, 0.5)]], bandwidth=1.0)
        # the first task exceeds the bandwidth alone: it runs exclusively
        assert comp[0] == pytest.approx(2.0)
        assert comp[1] == pytest.approx(5.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ModelError):
            simulate_overlap([[(1.0, 1.0)]], bandwidth=0.0)


def step_oracle(streams, bandwidth, dt=1e-4):
    """Independent time-stepped rate-sharing simulation."""
    queues = [list(s) for s in streams]
    remaining = [q[0][0] if q else 0.0 for q in queues]
    eligible = [0.0] * len(queues)
    completion = [0.0] * len(queues)
    t = 0.0
    guard = 0
    while any(queues) and guard < 10_000_000:
        guard += 1
        heads = [(s, queues[s][0][1]) for s in range(len(queues)) if queues[s]]
        over = [(eligible[s], s) for s, dem in heads if dem > bandwidth]
        if over:
            active = [min(over)[1]]
            factor = 1.0
        else:
            active = [s for s, _ in heads]
            factor = max(1.0, sum(d for _, d in heads) / bandwidth)
        t += dt
        for s in active:
            remaining[s] -= dt / factor
            if remaining[s] <= 0:
                queues[s].pop(0)
                eligible[s] = t
                if queues[s]:
                    remaining[s] = queues[s][0][0]
                else:
                    completion[s] = t
    return completion


class TestContendedPeriod:
    def test_below_bandwidth_equals_ideal(self):
        st = totals(1.0, 2.0, 3.0, demands={"ft": 0.2, "discard": 0.2, "hm": 0.2})
        dev = DeviceModel(1.0, 1e9, 1e9, 1.0)
        for buffering in (2, 3):
            assert contended_period(st, dev, buffering) == \
                pytest.approx(ideal_period(st, buffering))

    def test_two_full_bandwidth_stages_double_the_period(self):
        st = totals(1.0, 1.0, 0.0, demands={"ft": 1.0, "discard": 1.0})
        dev = DeviceModel(1.0, 1e9, 1e9, 1.0)
        assert contended_period(st, dev, 3) == pytest.approx(2 * ideal_period(st, 3))

    def test_never_below_ideal(self, rng):
        dev = DeviceModel(1.0, 1e9, 1e9, 1.0)
        for _ in range(300):
            a, b, c = rng.uniform(0.01, 5.0, 3)
            d = dict(zip(("ft", "discard", "hm"), rng.uniform(0.0, 2.0, 3)))
            st = totals(a, b, c, demands=d)
            for buffering in (1, 2, 3):
                assert contended_period(st, dev, buffering) >= \
                    ideal_period(st, buffering) - 1e-9

    def build_case_study(self):
        """Launch stream overlapping a discard then a saturating transpose."""
        st = StageTiming(
            per_launch=[10 * MS] * 21,
            t_discard=40 * MS, b_discard=True,
            t_transpose=30 * MS, b_transpose=True,
            t_hm=60 * MS,
            demands={"ft": 0.6, "discard": 0.6, "transpose": 1.5, "hm": 0.1})
        return st, DeviceModel(1.0, 1e9, 1e9, 1.0)

    def test_case_study_launch_stretch_ordering(self):
        st, dev = self.build_case_study()
        streams = [[(t, st.demands["ft"]) for t in st.per_launch],
                   [(st.t_discard, st.demands["discard"]),
                    (st.t_transpose, st.demands["transpose"])],
                   [(st.t_hm, st.demands["hm"])]]
        # per-launch completion times from the event simulation
        finish = []
        for n in range(1, 22):
            partial = [streams[0][:n], list(streams[1]), list(streams[2])]
            finish.append(simulate_overlap(partial, dev.global_memory_bandwidth)[0])
        durations = np.diff([0.0] + finish)
        # launches running against the discard stage are stretched ...
        assert durations[0] > 10 * MS * 1.2
        # ... the launch caught by the saturating transpose waits it out and
        # is by far the longest ...
        blocked = int(np.argmax(durations))
        assert durations[blocked] > 3 * 10 * MS
        # ... and launches after the preparation stage run clean
        assert durations[-1] == pytest.approx(10 * MS, rel=1e-6)
        assert np.mean(durations[:blocked + 1]) > np.mean(durations[blocked + 1:])

    def test_case_study_matches_step_oracle_within_one_percent(self):
        st, dev = self.build_case_study()
        got = contended_period(st, dev, 3)
        streams = [[(t, st.demands["ft"]) for t in st.per_launch],
                   [(st.t_discard, st.demands["discard"]),
                    (st.t_transpose, st.demands["transpose"])],
                   [(st.t_hm, st.demands["hm"])]]
        oracle = max(step_oracle(streams, dev.global_memory_bandwidth, dt=1e-5))
        assert abs(got - oracle) / oracle < 0.01


class TestMultiDevicePeriod:
    def test_single_device_all_schemes_equal(self):
        st = totals(3.0, 2.0, 7.0)
        dev = DeviceModel.nominal()
        values = {s: multi_device_period(st, 1, s, dev=dev, plane_bytes=1e6)
                  for s in ("single-input", "multi-input", "multi-config")}
        assert set(values.values()) == {7.0}

    def test_worked_example(self):
        st, dev = totals(100.0, 50.0, 600.0), DeviceModel.nominal()
        assert multi_device_period(st, 3, "single-input", dev) == 200.0
        assert multi_device_period(st, 3, "multi-input", dev) == 200.0

    def test_partitioning_inequality_over_random_triples(self, rng):
        stages = rng.uniform(0.001, 10.0, size=(10_000, 3))
        for n in (2, 3, 4):
            lhs = stages.max(axis=1) / n
            rhs = np.maximum(stages[:, 0],
                             np.maximum(stages[:, 1], stages[:, 2] / n))
            assert (lhs <= rhs + 1e-15).all()

    def test_measured_three_device_period(self):
        # 570 ms pipelined period across three devices, one array per device
        st = reference_timing(856, 570, 2)
        assert multi_device_period(st, 3, "multi-input",
                                   DeviceModel.nominal()) == 190.0

    def test_handoff_cost(self):
        st = totals(3.0, 2.0, 7.0)
        dev = DeviceModel(1e9, 1e12, 2.0, 1.0)
        assert multi_device_period(st, 3, "multi-config", dev=dev,
                                   plane_bytes=10.0) == 7.0 + 5.0

    def test_bad_inputs(self):
        st, dev = totals(1, 1, 1), DeviceModel.nominal()
        with pytest.raises(ModelError):
            multi_device_period(st, 0, "multi-input", dev)
        with pytest.raises(ModelError):
            multi_device_period(st, 2, "sideways", dev)
        with pytest.raises(TypeError):  # no period without the device's host link
            multi_device_period(st, 2, "multi-config")


class TestPlanPipeline:
    def test_capacity_degrades_triple_to_double(self):
        st = totals(1.0, 1.0, 1.0)
        dev = DeviceModel(1e9, 2.5, 1e9, 1.0)  # room for two planes only
        plan = plan_pipeline(st, dev, plane_bytes=1.0)
        assert plan.buffering == 2 and plan.degraded
        assert any("degraded" in n for n in plan.notes)
        assert plan.period == 2.0

    def test_capacity_can_force_serial(self):
        st = totals(1.0, 1.0, 1.0)
        dev = DeviceModel(1e9, 1.5, 1e9, 1.0)
        plan = plan_pipeline(st, dev, plane_bytes=1.0)
        assert plan.buffering == 1 and plan.period == 3.0

    def test_reconfiguration_rejected_when_over_limit(self):
        st = totals(1.0, 1.0, 1.0)
        dev = DeviceModel.nominal()  # reconfig takes ~1 s
        plan = plan_pipeline(st, dev, plane_bytes=1.0, t_limit=0.1)
        assert any("reconfig" in n for n in plan.notes)

    @pytest.mark.parametrize("fields,message", [
        (dict(buffering=4), "buffering must be 1, 2 or 3, got 4"),
        (dict(n_devices=0), "n_devices must be >= 1"),
        (dict(scheme="ring"), "scheme must be one of")],
        ids=["buffering-4", "no-devices", "unknown-scheme"])
    def test_record_checks(self, fields, message):
        record = dict(buffering=2, n_devices=1, scheme="multi-input",
                      period=5.0, t_fdas=10.0, period_contended=5.0,
                      period_multidevice={})
        PipelinePlan(**record)  # the record is valid but for each field
        with pytest.raises(ModelError, match=message):
            PipelinePlan(**(record | fields))

    def test_plan_invariant(self):
        with pytest.raises(ModelError):
            PipelinePlan(buffering=2, n_devices=1, scheme="multi-input",
                         period=10.0, t_fdas=5.0, period_contended=10.0,
                         period_multidevice={})


class TestSweep:
    def test_single_synthetic_combination(self):
        report = sweep([("balanced", totals(1.0, 1.0, 1.0))], DeviceModel.nominal())
        assert len(report) == 1
        row = report[0]
        assert row["buffering"] == 3
        assert row["period_ideal"] == 1.0
        assert row["t_fdas"] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            sweep([], DeviceModel.nominal())

    @pytest.mark.parametrize("n_devices", [1, 3])
    @pytest.mark.parametrize("dev", [DeviceModel(40.0, 1e3, 2.0, 1.0)],
                             ids=["device"])
    def test_rows_are_plan_pipeline_evaluations(self, dev, n_devices):
        # demands above the 40 B/s bandwidth make the contended period differ
        rows = [(f"r{i}", totals(*t, demands={"ft": 30.0, "discard": 25.0,
                                              "hm": 50.0}))
                for i, t in enumerate([(1.0, 2.0, 0.5), (3.0, 0.2, 0.4),
                                       (0.7, 0.7, 0.7)])]
        plane_bytes = 64.0
        report = sweep(rows, dev, n_devices=n_devices, plane_bytes=plane_bytes,
                       t_limit=0.5)
        for name, st in rows:
            row = next(r for r in report if r["combination"] == name)
            plan = plan_pipeline(st, dev, plane_bytes, n_devices, t_limit=0.5)
            assert row["period_ideal"] == plan.period
            assert row["period_contended"] == plan.period_contended
            assert row["period_multidevice"] == plan.period_multidevice
        assert any(r["period_contended"] > r["period_ideal"] for r in report)

    def test_identical_rows_stable_order(self):
        rows = [("a", totals(1, 1, 1)), ("b", totals(1, 1, 1))]
        report = sweep(rows, DeviceModel.nominal())
        assert [r["combination"] for r in report] == ["a", "b"]

    def test_reference_families_rank_chunked_fd_naive_multi_first(self):
        families = [(name, reference_timing(t, p, b))
                    for name, t, p, b in REFERENCE_ROWS[:11]]
        report = sweep(families, DeviceModel.nominal())
        assert report[0]["combination"] == "aols-2048+naive-multi"
        assert report[0]["period_ideal"] == 570

    def test_buffering_labels_consistent_with_reference_rows(self):
        for name, t_fdas, period, buffering in REFERENCE_ROWS:
            st = reference_timing(t_fdas, period, buffering)
            assert choose_buffering(st) == buffering, name

    def test_report_files(self, tmp_path):
        report = sweep([("one", totals(2.0, 1.0, 4.0))], DeviceModel.nominal(),
                       n_devices=3)
        write_report_json(report, tmp_path / "report.json")
        write_report_csv(report, tmp_path / "report.csv")
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded[0]["combination"] == "one"
        assert loaded[0]["period_multidevice"]["multi-input"] == pytest.approx(4 / 3)
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header.startswith("combination,t_ft,t_fop,t_hm,t_fdas,buffering")

    def test_load_timing_rows(self, tmp_path):
        path = tmp_path / "timings.json"
        path.write_text(json.dumps([
            {"combination": "x", "t_ft": 347, "t_fop": 560, "t_hm": 122}]))
        rows = load_timing_rows(path)
        assert rows[0][0] == "x"
        assert total_latency(rows[0][1]) == 1029
        path.write_text("{}")
        with pytest.raises(ModelError):
            load_timing_rows(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize("row", [
        '{{"combination": "x", "t_ft": {}}}',
        '{{"combination": "x", "per_launch": [{}]}}',
        '{{"combination": "x", "per_launch": [1], "demands": {{"hm": {}}}}}'],
        ids=["time", "launch", "demand"])
    def test_non_finite_row_rejected(self, tmp_path, row, value):
        # Python's json reads all three as floats; the model would never end
        path = tmp_path / "timings.json"
        path.write_text("[" + row.format(value) + "]")
        with pytest.raises(ModelError, match="row 0: .*finite number >= 0"):
            load_timing_rows(path)


class TestDeviceModel:
    def test_validation(self):
        with pytest.raises(ModelError):
            DeviceModel(0, 1, 1, 1)

    def test_nominal_is_valid(self):
        dev = DeviceModel.nominal()
        assert dev.global_memory_bandwidth > 0
