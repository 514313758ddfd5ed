"""Multi-UAV D2D edge-computing video-offloading simulator with a
from-scratch TD3/DDPG/PPO training stack."""

import os

# One BLAS thread, set before this package imports numpy: the nets are too
# small for BLAS threads to pay, and PPO's update already runs a worker
# thread. A value the user set is kept. BLAS reads these when numpy is first
# imported, so a program that imports numpy before uavmec keeps its default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import (ExperimentConfig, SimConfig, Td3Config, PpoConfig,
                     load_experiment)
from .env import OffloadEnv, decode, episode_return

__all__ = [
    "ExperimentConfig", "SimConfig", "Td3Config", "PpoConfig",
    "load_experiment", "OffloadEnv", "decode", "episode_return",
]

__version__ = "0.1.0"
