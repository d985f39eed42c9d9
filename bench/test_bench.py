"""Self-tests of the benchmark's checks and span arithmetic.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from artbank.errors import ArtBankError, NumericError  # noqa: E402
from artbank.metrics import ConvergenceReport  # noqa: E402
from tracing import Tracer, layer_table, self_times  # noqa: E402


def ledger():
    return checks.Ledger((ArtBankError,))


def test_nan_pixel_counts_the_operation_failed():
    content = np.full((16, 16, 3), 0.5)
    good = content.copy()
    bad = content.copy()
    bad[3, 4, 1] = np.nan
    led = ledger()
    with led.op("good"):
        checks.stylized_image(good, content)
    with led.op("bad"):
        checks.stylized_image(bad, content)
    assert (led.attempted, led.failed) == (2, 1)
    assert "non-finite pixel" in led.messages[0]


@pytest.mark.parametrize("pixels", [np.full((16, 16, 1), 0.5), np.full((16, 16, 3), 1.5)])
def test_wrong_shape_or_range_fails(pixels):
    with pytest.raises(checks.CheckFailed):
        checks.stylized_image(pixels, np.zeros((16, 16, 3)))


def test_program_errors_count_but_other_errors_propagate():
    led = ledger()
    with led.op("numeric"):
        raise NumericError("boom")
    with led.op("loss"):
        checks.losses_finite([0.1, float("inf")])
    assert (led.attempted, led.failed) == (2, 2)
    with pytest.raises(KeyError):
        with led.op("benchmark defect"):
            raise KeyError("not a program error")


def test_round_trip_mismatch_fails():
    checks.bit_exact(b"ISPB\x01", b"ISPB\x01", "ISPB")
    with pytest.raises(checks.CheckFailed):
        checks.bit_exact(b"ISPB\x01", b"ISPB\x02", "ISPB")


def test_malformed_convergence_report_fails():
    good = [ConvergenceReport(v, [1, 2, 3], [100, None, 250], 0.85, 250)
            for v in ("ssam", "sanet")]
    checks.convergence_reports(good, ("ssam", "sanet"), 3, 500, 100)
    short = [ConvergenceReport("ssam", [1, 2], [100, 120], 0.85, 110), good[1]]
    with pytest.raises(checks.CheckFailed):
        checks.convergence_reports(short, ("ssam", "sanet"), 3, 500, 100)
    early = [ConvergenceReport("ssam", [1, 2, 3], [5, 120, 130], 0.85, 120), good[1]]
    with pytest.raises(checks.CheckFailed):
        checks.convergence_reports(early, ("ssam", "sanet"), 3, 500, 100)


def test_self_time_subtracts_children():
    spans = [("op", 0.0, 10.0, -1, "a"),
             ("outer", 1.0, 9.0, 0, "a"),
             ("inner", 2.0, 5.0, 1, "a"),
             ("inner", 6.0, 7.0, 1, "a"),
             ("other", 0.0, 4.0, -1, "b")]
    assert self_times(spans) == [2.0, 4.0, 3.0, 1.0, 4.0]
    table = layer_table(spans, ["a"])
    assert table["inner"] == {"calls_per_op": 2.0, "self_ms_per_op": 4000.0}
    assert "other" not in table


def test_instrument_records_calls_and_restores():
    import artbank.diffusion as diffusion
    import artbank.inversion as inversion

    original = diffusion.q_sample
    tracer = Tracer()
    tracer.instrument()
    try:
        assert inversion.q_sample is diffusion.q_sample is not original
        tracer.op = "x"
        sched = diffusion.make_schedule(10)
        from artbank.tensor import Tensor
        z = Tensor(np.zeros((3, 4, 4)))
        diffusion.q_sample(z, 3, z, sched)
    finally:
        tracer.restore()
    assert diffusion.q_sample is original and inversion.q_sample is original
    names = [s[0] for s in tracer.spans]
    assert names == ["diffusion.q_sample"]
    assert tracer.spans[0][4] == "x"


def test_speed_sampler_uses_samples_near_the_operation():
    from speed import SpeedSampler

    sampler = SpeedSampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0, 10.0]
    sampler.ref_ms = [1.0, 2.0, 3.0, 4.0, 9.0]
    assert sampler.around(1.6, 2.4) == 3.0  # only the sample at 2 s is near
    assert sampler.around(6.0, 6.1) == 4.0  # none near: the closest one


def test_speed_sampler_excludes_its_own_time():
    import time

    from speed import SpeedSampler, clock

    with SpeedSampler() as sampler:
        t0, c0 = time.perf_counter(), clock()
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        t1, c1 = time.perf_counter(), clock()
    assert len(sampler.times) >= 3
    assert (c1 - c0) < (t1 - t0)
