import numpy as np
import pytest

from uavmec.replay import ReplayBuffer


def push(buf, i):
    """Push transition i into a buffer of 2-dim states and 1-dim actions."""
    buf.push(np.full(2, float(i)), np.full(1, float(i)), float(i),
             np.full(2, float(i) + 0.5), 0.0)


def test_size_capped_at_capacity():
    buf = ReplayBuffer(10, 2, 1, np.random.default_rng(0))
    for i in range(25):
        push(buf, i)
    assert buf.size == 10


def test_oldest_entries_evicted():
    buf = ReplayBuffer(8, 2, 1, np.random.default_rng(0))
    for i in range(8 + 3):
        push(buf, i)
    stored = set(buf.r[:buf.size])
    assert stored == {float(i) for i in range(3, 11)}


def test_sample_shapes_and_membership():
    buf = ReplayBuffer(50, 2, 1, np.random.default_rng(1))
    for i in range(30):
        push(buf, i)
    s, a, r, s2, d = buf.sample(16)
    assert s.shape == (16, 2) and a.shape == (16, 1) and r.shape == (16,)
    assert set(r).issubset({float(i) for i in range(30)})


def test_sample_without_replacement_within_batch():
    buf = ReplayBuffer(20, 2, 1, np.random.default_rng(2))
    for i in range(20):
        push(buf, i)
    for _ in range(20):
        _, _, r, _, _ = buf.sample(20)
        assert len(set(r)) == 20


def test_sampling_is_near_uniform():
    buf = ReplayBuffer(10, 2, 1, np.random.default_rng(3))
    for i in range(10):
        push(buf, i)
    counts = np.zeros(10)
    draws = 40_000
    for _ in range(draws):
        _, _, r, _, _ = buf.sample(1)
        counts[int(r[0])] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 0.1) < 0.005)  # within 5% of uniform


def test_oversized_batch_rejected():
    buf = ReplayBuffer(10, 2, 1, np.random.default_rng(0))
    push(buf, 0)
    with pytest.raises(ValueError):
        buf.sample(2)
