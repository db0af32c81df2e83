import time

import refspeed
import run
import worker

KINDS = ("loop", "pairwise", "text")


def test_probe_samples_while_the_operations_run():
    with refspeed.SpeedProbe(KINDS) as probe:
        end = time.perf_counter() + 3 * refspeed.TICK_S
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(probe.samples) >= 3
    assert 0.0 < probe.probe_s < 3 * refspeed.TICK_S
    assert probe.slowdown() > 0.0


def test_the_probe_takes_one_sample_at_least():
    with refspeed.SpeedProbe(KINDS) as probe:
        pass
    assert len(probe.samples) == 1


def test_slowdown_weights_each_sample_by_the_interval_it_stands_for():
    probe = refspeed.SpeedProbe(KINDS)
    probe.samples = [(0.3, 1.0), (0.1, 2.0)]
    assert probe.slowdown() == 1.25


def test_a_slow_phase_is_scaled_back_to_reference_seconds():
    rep = {"wall_s": 3.2, "setup_s": 0.6, "probe_s": 0.2, "slowdown": 2.0}
    assert run.at_reference_speed(rep, "wall_s") == 1.5
    assert run.at_reference_speed(rep, "setup_s") == 0.3


def test_every_workload_names_known_speed_samples():
    assert set(worker.SPEED_SAMPLES) == set(worker.WORKLOADS)
    for kinds in worker.SPEED_SAMPLES.values():
        assert kinds and set(kinds) <= set(refspeed.NOMINAL_S)
