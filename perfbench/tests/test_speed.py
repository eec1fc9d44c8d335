import time

import pytest

from perfbench import speed


def test_reference_takes_a_few_milliseconds():
    assert 0.0005 < speed.reference() < 0.1


def test_pieces_are_scaled_by_the_readings_beside_them(monkeypatch):
    slow, fast = 2 * speed.REFERENCE_S, speed.REFERENCE_S / 2
    readings = iter([slow] * 6 + [fast] * 6)
    monkeypatch.setattr(speed, "reference", lambda: next(readings))
    meter = speed.Meter()
    for _ in range(12):
        meter.mark()
    assert len(meter) == 12 and len(meter.raw()) == 11
    # the host sped up between marks 5 and 6: the piece between them is
    # scaled by the mean of a slow and a fast reading, the others by their
    # own side's readings
    assert meter.scales() == pytest.approx([0.5] * 5 + [0.8] + [2.0] * 5)
    assert meter.scaled() == [t * s for t, s in zip(meter.raw(), meter.scales())]


def test_the_fixed_part_of_a_piece_is_not_scaled(monkeypatch):
    monkeypatch.setattr(speed, "reference", lambda: 4 * speed.REFERENCE_S)
    model = [0.0]
    meter = speed.Meter(fixed=lambda: model[0])
    meter.mark()
    time.sleep(0.02)
    model[0] = 0.01
    meter.mark()
    (raw,), (scaled,) = meter.raw(), meter.scaled()
    assert meter.fixed() == [0.01]
    assert abs(scaled - (0.01 + (raw - 0.01) / 4)) < 1e-12
    assert meter.host_speed() == 0.25
