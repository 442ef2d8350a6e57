"""Fit SPAM error models to synthetic calibration data.

A qutrit with thermal initialization (T=1) and noisy cascade readout
(b0=0.01, b1=0.02) is calibrated two ways:

* the general diagonal fit estimates all populations and the full
  response matrix from d population-transfer circuits.  Its maximizers
  form a flat set of dimension d - 1, of which the depolarizing gauge is
  one direction; the fit returns the member with the most faithful
  readout (largest tr B), found by a log-barrier Newton path and
  polished to a certified vertex of its constraints.  Its individual
  parameters are therefore not identified, but its predicted
  probabilities are, so the fit is judged by predictive residual;
* the Gibbs fit estimates just (T, b0, b1) from single-level read
  statistics by a profile likelihood.  At d >= 3 this three-parameter
  family has no gauge freedom, so the parameters themselves are
  recovered (at d = 2 they are not identified).

Both fits are deterministic and take well under a second.
"""

import numpy as np

from qudittomo import protocols, readout, recon, sim

SHOTS = 1_000_000
OMEGAS = np.array([0.0, 4.0, 6.0])

B0, B1 = 0.01, 0.02

spam = readout.gibbs_cascade_model(3, 1.0, OMEGAS, B0, B1)
noise = sim.NoiseConfig(gate_depol_p=0.001, spam=spam)

# --- general diagonal fit --------------------------------------------
# the calibration circuits are a process-tomography protocol; a None
# truth runs them on the identity channel, measuring the prepared states
calibration = protocols.spam_calibration_circuits(3)
data = sim.run_protocol(calibration, None, noise, SHOTS, seed=12)
fit = recon.estimate_spam_general(data, gate_depol_p=noise.gate_depol_p)

true_probs = sim.outcome_probabilities(calibration, None, noise)
predicted = np.asarray(fit.diagnostics["predicted_probs"])
print("general diagonal fit")
print(f"  fitted populations: {np.round(fit.estimate.populations, 4)}")
print(f"  fitted response:\n{np.round(fit.estimate.response, 4)}")
print(f"  max |predicted - true| probability: "
      f"{np.max(np.abs(predicted - true_probs)):.2e}")
print("  (populations and response are only defined up to a flat set;")
print("   the residual above is the meaningful figure)")

# --- thermal three-parameter fit -------------------------------------
clicks = readout.level_clicks(spam.populations, B0, B1)
reads = sim.simulate_level_reads(clicks, SHOTS, seed=13)
gibbs = recon.estimate_spam_gibbs(reads, OMEGAS)
est = gibbs.estimate
print("\nthermal readout fit (truth T=1, b0=0.01, b1=0.02)")
print(f"  T  = {est['temperature']:.4f}")
print(f"  b0 = {est['b0']:.5f}")
print(f"  b1 = {est['b1']:.5f}")
print(f"  populations at fitted T: "
      f"{np.round(gibbs.diagnostics['populations'], 5)}")
