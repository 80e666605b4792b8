"""The valence-coordinate water toy, end to end.

Assemble the J = 0 Hamiltonian, check the decoupled limit against 1-D
solves, then walk the four encoding strategies: scaling constants, block
encoding bills, and the phase-estimation totals they imply.
"""

import numpy as np

from whqrom import molham

spec = molham.water_spec(n_r=8, n_theta=8)
print("== spectrum at (n_R, n_theta) = (8, 8) ==")
system = molham.water_hamiltonian(spec)
levels = system.eigenvalues(spec.grid_size)  # the whole spectrum, by dense eigh
rel_cm = (levels[:8] - levels[0]) * molham.CM1_PER_HARTREE
print("lowest levels relative to ground (cm^-1):")
print(np.round(rel_cm, 2).tolist())

decoupled = molham.water_hamiltonian(spec, decoupled=True).eigenvalues(8)
reference = molham.decoupled_reference_levels(spec, 8)
print(
    "decoupled limit vs separable 1-D sums:",
    f"{np.max(np.abs((decoupled - reference) / reference)):.2e} relative",
)

print("\n== scaling constants by strategy ==")
for strategy in molham.Strategy.ALL:
    est = molham.norm_estimates(system, strategy)
    print(f"{strategy:13s} zeta = {est.total_au:9.3f} Ha = {est.total_cm:12.1f} cm^-1")
radius = float(np.max(np.abs(levels)))
print(f"(spectral radius {radius:.3f} Ha; every zeta stays above it)")

print("\n== block-encoding bills at the large grid (n_theta=64, n_R=32) ==")
big = molham.water_hamiltonian(molham.water_spec(n_r=32, n_theta=64))
for strategy in molham.Strategy.ALL:
    sc = molham.strategy_cost(big, strategy, molham.Backend.SELECT_SWAP)
    qpe = molham.qpe_cost(sc.zeta_cm, sc.report, epsilon_cm=1.0)
    print(
        f"{strategy:13s} T = {sc.report.t_count:12.3e}  qubits = {sc.report.qubit_count:6d}  "
        f"QPE T = {qpe.t_count:.3e}  volume = {qpe.quantum_volume:.3e}"
    )

print("\n== the WH backend prices the actual term spectra ==")
sc_wh = molham.strategy_cost(system, molham.Strategy.FBR_DVR, molham.Backend.WH)
for name, t, anc in sc_wh.breakdown:
    print(f"  {name:20s} T = {t:8d}  ancillas = {anc}")
