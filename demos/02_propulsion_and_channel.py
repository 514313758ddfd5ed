"""Physical building blocks: rotary-wing propulsion power and link rates.

Prints the propulsion power bowl (hover costs more than slow forward
flight) and how the uplink Shannon rate decays with distance under both
the deterministic line-of-sight gain and averaged Rician fading draws.
"""

import numpy as np

from uavmec import channel, compute_energy as ce
from uavmec.config import ChannelParams, EnergyParams

ep = EnergyParams()
print("propulsion power vs speed (note the bowl: slow flight beats hover)")
for v in (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0):
    print(f"  v = {v:5.1f} m/s   P = {ce.flight_power(v, ep):8.2f} W")

chan = ChannelParams()
tx = 0.5
rng = np.random.default_rng(0)
print("\nuplink rate vs distance (15 MHz, 0.5 W, Rician K = 10)")
print(f"  {'d [m]':>6} {'LoS rate':>12} {'mean faded rate':>16}")
for d in (50.0, 100.0, 150.0, 200.0, 280.0):
    r_los = channel.rate(chan.bandwidth, tx, channel.los_gain_sq(chan, d),
                         chan.noise_power)
    r_avg = np.mean([channel.rate(chan.bandwidth, tx,
                                  channel.sample_gain_sq(chan, d, rng),
                                  chan.noise_power) for _ in range(2000)])
    print(f"  {d:6.0f} {r_los/1e6:10.1f} Mb {r_avg/1e6:14.1f} Mb")
