"""Build the cascade readout response of a noisy multi-level ion.

Levels are read out one at a time; a click at level k stops the
cascade, and surviving to the end is reported as level 0.  Each
single-level read misses with probability b0 and false-clicks with
probability b1, so outcome k is seen from true level j with probability
r_k(j) (1 - r_{k-1}(j)) ... (1 - r_1(j)), where r_m(j) is the click
probability of the read of level m.

The script prints the resulting response rows, then combines them with
thermal initial populations into a full SPAM model and shows the gauge
ambiguity: moving depolarizing weight from the preparation into the
readout leaves every observable probability unchanged.
"""

import numpy as np

from qudittomo import qcore, readout

DIM = 3
B0, B1 = 0.01, 0.02

reads = readout.level_reads(DIM, B0, B1)
response = readout.cascade_response(reads[1:])

print(f"cascade response for d={DIM}, miss b0={B0}, false click b1={B1}")
for k, row in enumerate(response):
    probs = ", ".join(f"{x:.4f}" for x in row)
    print(f"  outcome {k} given level 0..{DIM - 1}: ({probs})")
print(f"  completeness: max |column sum - 1| = "
      f"{np.max(np.abs(response.sum(axis=0) - 1.0)):.1e}")

# thermal initialization at T = 1 with level energies (0, 4, 6)
pops = readout.gibbs_populations(1.0, np.array([0.0, 4.0, 6.0]))
print(f"\nGibbs populations at T=1: {np.round(pops, 5)}")
print(f"single-level click probabilities: {np.round(reads @ pops, 5)}")

model = readout.gibbs_cascade_model(DIM, 1.0, np.array([0.0, 4.0, 6.0]), B0, B1)

# gauge freedom: a depolarizing factor commutes between preparation
# and readout, so these two models are observationally identical
moved = readout.gauge_transform(model, 0.005)
rng = qcore.make_rng(7)
worst = 0.0
for _ in range(200):
    u = qcore.haar_unitary(DIM, rng)
    # P(k) = sum_j b[k, j] <j| U rho0 U^dag |j>, with rho0 = diag(a)
    p_a = model.response @ (np.abs(u) ** 2 @ model.populations)
    p_b = moved.response @ (np.abs(u) ** 2 @ moved.populations)
    worst = max(worst, float(np.max(np.abs(p_a - p_b))))
print(f"\ngauge-transformed model, 200 random circuits: "
      f"max probability difference {worst:.1e}")
print("the two parameter sets cannot be told apart by any experiment")
