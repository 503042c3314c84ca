"""Stochastic noise trajectories: depolarizing, relaxation, readout error.

Each shot runs its own pure-state trajectory with randomly inserted
Pauli/reset events, so no density matrix is ever built. The events of
all shots are drawn up front; the statevector advances every shot at
once as one batch, and both backends read the same events.

Run:  python3 demos/05_noise_trajectories.py
"""

from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, ghz
from qsopt.noise import NoiseParams, sample_counts

SV = BackendSpec(kind="statevector")

params = NoiseParams()  # p_meas 0.02, p_1q 0.01, p_2q 0.03, t1 50us, t2 70us
print("noise model:", params)
print(f"pure dephasing time t_phi = {params.t_phi_us:.1f} us")
print()

print("=== noiseless ghz(5): support is exactly {00000, 11111} ===")
clean = sample_counts(ghz(5), SV, 2000, seed=0, params=None)
print(dict(sorted(clean.items())))

print()
print("=== with noise, errors leak into other outcomes ===")
noisy = sample_counts(ghz(5), SV, 2000, seed=0, params=params)
top = sorted(noisy.items(), key=lambda kv: -kv[1])[:6]
leaked = sum(v for k, v in noisy.items() if k not in ("00000", "11111"))
for bits, count in top:
    print(f"  {bits}: {count}")
print(f"outcomes outside the ideal support: {leaked} / 2000")

print()
print("=== readout error alone: empty circuit, 5 qubits ===")
counts = sample_counts(Circuit(5), SV, 5000, seed=1, params=params)
frac = counts.get("00000", 0) / 5000
print(f"P(all zeros) measured {frac:.4f}, expected 0.98^5 = {0.98**5:.4f}")

print()
print("=== trajectories are reproducible: same seed, same counts ===")
again = sample_counts(ghz(5), SV, 2000, seed=0, params=params)
print("identical:", again == noisy)
