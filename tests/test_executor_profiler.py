"""Ground-truth executor and the profiling phase."""

import re

import pytest

from repro.common.errors import OutOfMemoryError, ScheduleError
from repro.gpusim import Engine, TaskKind
from repro.hw import CostModel
from repro.models import build_model, linear_chain, poster_example, small_cnn
from repro.runtime import (
    Classification,
    SwapInPolicy,
    execute,
    images_per_second,
    iteration_time,
    run_profiling,
)
from repro.runtime import profiler as profiler_mod
from repro.runtime.durations import CostModelDurations
from repro.runtime.schedule import ScheduleOptions, build_schedule
from tests.conftest import tiny_machine
from tests.test_search_pruning import _ZOO


class TestExecute:
    def test_in_core_runs(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert r.makespan > 0
        assert r.device_peak > 0

    def test_in_core_fails_on_tiny_machine(self, poster):
        m = tiny_machine(mem_mib=224)
        with pytest.raises(OutOfMemoryError):
            execute(poster, Classification.all_keep(poster), m)

    def test_swap_fits_tiny_machine(self, poster):
        m = tiny_machine(mem_mib=224)
        r = execute(poster, Classification.all_swap(poster), m)
        assert r.device_peak <= m.usable_gpu_memory

    def test_swap_slower_than_keep(self, poster, x86):
        keep = execute(poster, Classification.all_keep(poster), x86)
        swap = execute(poster, Classification.all_swap(poster), x86)
        assert swap.makespan > keep.makespan

    def test_recompute_slower_than_keep(self, poster, x86):
        keep = execute(poster, Classification.all_keep(poster), x86)
        rec = execute(poster, Classification.all_recompute(poster), x86)
        assert rec.makespan > keep.makespan

    def test_policy_changes_timeline(self, poster):
        # eager prefetch usually wins, but its memory headroom can cost a few
        # percent on very small devices — assert it is at least competitive
        m = tiny_machine(mem_mib=224, link_gbps=4.0)
        cls = Classification.all_swap(poster)
        eager = execute(poster, cls, m,
                        options=ScheduleOptions(policy=SwapInPolicy.EAGER))
        naive = execute(poster, cls, m,
                        options=ScheduleOptions(policy=SwapInPolicy.NAIVE))
        assert eager.makespan != naive.makespan  # the policy matters
        assert eager.makespan <= naive.makespan * 1.1

    def test_deterministic(self, poster, x86):
        cls = Classification.all_swap(poster)
        a = execute(poster, cls, x86)
        b = execute(poster, cls, x86)
        assert a.makespan == b.makespan
        assert [r.tid for r in a.records] == [r.tid for r in b.records]

    def test_metrics_helpers(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert iteration_time(r) == r.makespan
        assert images_per_second(r, 64) == pytest.approx(64 / r.makespan)

    def test_host_memory_tracked_for_swaps(self, poster, x86):
        r = execute(poster, Classification.all_swap(poster), x86)
        assert r.host_peak > 0

    def test_update_task_present(self, poster, x86):
        r = execute(poster, Classification.all_keep(poster), x86)
        assert len(r.records_by_kind(TaskKind.UPDATE)) == 1


_BAD_OPTIONS = [
    # a string policy used to fail late, with an AttributeError in finalize
    ("policy", "eager", TypeError),
    # True planned like 1 and -3 like 0
    ("forward_refetch_gap", True, TypeError),
    ("forward_refetch_gap", -3, ValueError),
    ("forward_refetch_gap", 1.5, TypeError),
]


class TestScheduleOptionsValidation:
    """ScheduleOptions rejects a bad policy or re-fetch gap at construction,
    naming the value, whichever entry point it is headed for."""

    @pytest.mark.parametrize("field,value,error", _BAD_OPTIONS)
    def test_bad_field_named(self, field, value, error):
        with pytest.raises(error, match=f"{field}.*got {re.escape(repr(value))}"):
            ScheduleOptions(**{field: value})

    @pytest.mark.parametrize("field,value,error", _BAD_OPTIONS)
    def test_bad_field_never_reaches_profiling(self, poster, x86, field,
                                               value, error, monkeypatch):
        runs = []
        monkeypatch.setattr(profiler_mod, "build_schedule",
                            lambda *a, **k: runs.append(a))
        with pytest.raises(error, match=f"{field}.*got {re.escape(repr(value))}"):
            run_profiling(poster, x86,
                          options=ScheduleOptions(**{field: value}))
        assert not runs

    def test_good_values_accepted(self):
        for gap in (None, 0, 3):
            opts = ScheduleOptions(policy=SwapInPolicy.NAIVE,
                                   forward_refetch_gap=gap)
            assert opts.forward_refetch_gap == gap


class TestProfiler:
    def test_profile_covers_all_layers(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert set(prof.fwd) == set(range(len(poster)))
        classifiable = set(poster.classifiable_maps())
        assert set(prof.swap_out) == classifiable
        assert set(prof.swap_in) == classifiable

    def test_backward_only_for_backward_layers(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert 0 not in prof.bwd  # INPUT has no backward
        assert len(poster) - 1 in prof.bwd

    def test_baseline_timeline_attached(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.baseline is not None
        assert prof.baseline.makespan > 0

    def test_map_bytes_recorded(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.map_bytes[1] == poster[1].out_spec.nbytes

    def test_deterministic_profile_matches_ground_truth(self, poster, x86):
        prof = run_profiling(poster, x86)
        gt = execute(poster, Classification.all_swap(poster), x86)
        assert prof.baseline.makespan == pytest.approx(gt.makespan, rel=1e-12)

    def test_profile_durations_raise_for_unknown_layer(self, poster, x86):
        prof = run_profiling(poster, x86)
        dur = prof.durations()
        with pytest.raises(ScheduleError, match="no forward"):
            dur.fwd(9999)

    def test_profile_lookup_error_carries_diagnostics(self, poster, x86):
        from repro.common.errors import ProfileLookupError

        dur = run_profiling(poster, x86).durations()
        with pytest.raises(ProfileLookupError) as exc:
            dur.swap_in(9999)
        err = exc.value
        assert err.key == 9999
        assert err.table == "swap-in"
        assert err.nearest  # names the closest profiled map ids
        assert all(isinstance(k, int) for k in err.nearest)
        # still catchable as the legacy types
        assert isinstance(err, ScheduleError)
        assert isinstance(err, KeyError)

    def test_update_time_profiled(self, poster, x86):
        prof = run_profiling(poster, x86)
        assert prof.update_time > 0


_MACHINES = [tiny_machine(mem_mib=224, link_gbps=3.0),
             tiny_machine(mem_mib=160, link_gbps=2.0, name="tiny-slow")]

#: every profiling case: zoo models x machines x swap-in policies x
#: forward re-fetch gaps
_CASES = pytest.mark.parametrize("name,batch,machine,policy,gap", [
    pytest.param(name, batch, machine, policy, gap,
                 id=f"{name}-{batch}-{machine.name}-{policy.value}-"
                    f"{'refetch2' if gap else 'no-refetch'}")
    for name, batch in _ZOO for machine in _MACHINES
    for policy in SwapInPolicy for gap in (None, 2)
])


def _replayed_baseline(g, machine, prof, options):
    """The all-swap schedule built from the profile, run fresh."""
    schedule = build_schedule(g, Classification.all_swap(g),
                              prof.durations(), options)
    return Engine(schedule, device_capacity=machine.usable_gpu_memory,
                  host_capacity=machine.host_swap_capacity).run()


def _assert_same_run(a, b):
    assert ([(r.tid, r.start, r.end) for r in a.records]
            == [(r.tid, r.start, r.end) for r in b.records])
    assert a.makespan == b.makespan
    assert (a.device_peak, a.host_peak) == (b.device_peak, b.host_peak)


def _count_profiling_work(monkeypatch) -> dict[str, int]:
    """Count the schedule builds and engine runs ``run_profiling`` makes."""
    calls = {"build_schedule": 0, "Engine.run": 0}
    real_build, real_run = profiler_mod.build_schedule, Engine.run

    def build(*args, **kwargs):
        calls["build_schedule"] += 1
        return real_build(*args, **kwargs)

    def run(self, *args, **kwargs):
        calls["Engine.run"] += 1
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(profiler_mod, "build_schedule", build)
    monkeypatch.setattr(Engine, "run", run)
    return calls


class TestBaselineIdentity:
    """``profile.baseline`` is the profiling iteration's own all-swap run,
    and equals a fresh replay of that schedule from the profile."""

    @_CASES
    def test_baseline_equals_fresh_replay(self, name, batch, machine, policy,
                                          gap):
        g = build_model(name, batch=batch)
        options = ScheduleOptions(policy=policy, forward_refetch_gap=gap)
        prof = run_profiling(g, machine, options=options)
        _assert_same_run(prof.baseline,
                         _replayed_baseline(g, machine, prof, options))

    @_CASES
    def test_deterministic_profiling_runs_the_schedule_once(
        self, monkeypatch, name, batch, machine, policy, gap
    ):
        g = build_model(name, batch=batch)
        options = ScheduleOptions(policy=policy, forward_refetch_gap=gap)
        calls = _count_profiling_work(monkeypatch)
        prof = run_profiling(g, machine, options=options)
        assert calls == {"build_schedule": 1, "Engine.run": 1}
        monkeypatch.undo()
        # every profiled duration is its ground-truth task's, bit for bit
        # (a re-fetched map's several swap-ins included)
        truth = build_schedule(g, Classification.all_swap(g),
                               CostModelDurations(g, CostModel(machine)),
                               options)
        tables = {TaskKind.FWD: prof.fwd, TaskKind.BWD: prof.bwd,
                  TaskKind.SWAP_OUT: prof.swap_out,
                  TaskKind.SWAP_IN: prof.swap_in}
        for task in truth.tasks.values():
            if task.kind is TaskKind.UPDATE:
                assert prof.update_time == task.duration
            else:
                assert tables[task.kind][task.layer] == task.duration, task.tid
