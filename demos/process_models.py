"""Process tomography of a noisy qutrit gate under four SPAM models.

One random unitary channel with a little depolarizing noise is measured
by the 2-level process-tomography protocol on a simulator with thermal
initialization and cascade readout errors.  The same dataset is then
reconstructed under four measurement models:

  Ideal model          pretends SPAM is perfect
  True model           uses the simulator's own SPAM parameters
  SPAM errors model 1  general diagonal fit from calibration data
  SPAM errors model 2  thermal (T, b0, b1) fit from level reads

Ignoring SPAM costs roughly an order of magnitude in channel
infidelity; either fitted correction recovers most of it.
"""

import numpy as np

from qudittomo import protocols, qcore, readout, recon, sim

DIM = 3
SHOTS = 300_000
OMEGAS = np.array([0.0, 4.0, 6.0])

TRUTH_DEPOL_P = 0.01
B0, B1 = 0.01, 0.02

spam = readout.gibbs_cascade_model(DIM, 1.0, OMEGAS, B0, B1)
noise = sim.NoiseConfig(gate_depol_p=0.001, spam=spam)

rng = qcore.make_rng(3, "demo-truth")
truth = qcore.choi_depolarize(
    qcore.choi_from_unitary(qcore.haar_unitary(DIM, rng)),
    TRUTH_DEPOL_P)

protocol = protocols.qpt_two_level(DIM)
data = sim.run_protocol(protocol, truth, noise, SHOTS, seed=14)
print(f"{len(protocol)} circuits, {SHOTS} shots total")

# calibrate both SPAM corrections from separate synthetic data
calibration = sim.run_protocol(protocols.spam_calibration_circuits(DIM),
                               None, noise, 1_000_000, seed=15)
general = recon.estimate_spam_general(calibration,
                                      gate_depol_p=noise.gate_depol_p)
clicks = readout.level_clicks(spam.populations, B0, B1)
reads = sim.simulate_level_reads(clicks, 1_000_000, seed=16)
gibbs = recon.estimate_spam_gibbs(reads, OMEGAS).estimate

models = (
    ("Ideal model", None),
    ("True model", spam),
    ("SPAM errors model 1", general.estimate),
    ("SPAM errors model 2", readout.gibbs_cascade_model(
        DIM, gibbs["temperature"], OMEGAS, gibbs["b0"], gibbs["b1"])),
)

print(f"\n{'model':<22}{'infidelity':>12}")
for label, spam in models:
    mm = recon.build_measurement_model(protocol, spam=spam)
    report = recon.mle_process(data, mm)
    infid = 1.0 - qcore.process_fidelity(report.estimate, truth)
    print(f"{label:<22}{infid:>12.2e}")
