"""Uniform-sampling ring-buffer experience replay."""

from __future__ import annotations

import numpy as np


class ReplayBuffer:
    def __init__(self, capacity: int, state_dim: int, action_dim: int,
                 rng: np.random.Generator):
        self.capacity = capacity
        self.rng = rng
        self.s = np.zeros((capacity, state_dim))
        self.a = np.zeros((capacity, action_dim))
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, state_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self._head = 0

    def push(self, s: np.ndarray, a: np.ndarray, r: float, s_next: np.ndarray,
             done: float) -> None:
        i = self._head
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s_next[i] = s_next
        self.done[i] = done
        self._head = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int):
        """Uniform minibatch without replacement within the batch."""
        idx = self.rng.choice(self.size, size=batch_size, replace=False)
        return (self.s[idx], self.a[idx], self.r[idx],
                self.s_next[idx], self.done[idx])
