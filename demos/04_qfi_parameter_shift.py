"""Estimating quantum Fisher information from measurement statistics.

Every rotation angle is evaluated at theta +- pi/2; the two outcome
distributions are compared via sum 4(P+ - P-)^2 / (P+ + P-), averaged
over parameters and normalized by the analytic maximum of 8. A probe
whose shifted distributions are disjoint scores 1.0; a parameter the
measurement cannot see scores 0.

Without noise the two shifted circuits need not run: with psi the
circuit and xi the circuit with the angle shifted by +pi, the shifted
states are (psi +- xi)/sqrt(2). So the QFI simulates the circuit once
plus once per rotation, and rotation k's term is the mean of
delta(x)^2 = (2 Re(conj(psi) xi) / (|psi|^2 + |xi|^2))^2 over the even
mixture of the two circuits' distributions. Exact mode sums it over
every outcome; with shots, half of them are drawn from psi and half
from xi, and each drawn outcome is scored from both amplitudes. This
estimate is unbiased: its mean over seeds is the exact value. A noisy
QFI (demo 05's noise model) keeps the two shifted circuits and the
statistic above over their sampled frequencies.

Run:  python3 demos/04_qfi_parameter_shift.py
"""

import math

from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, ghz
from qsopt.metrics import qfi

SV = BackendSpec(kind="statevector")
MPS = BackendSpec(kind="mps")

print("=== the ideal probe ===")
probe = Circuit(1).rx(0, math.pi / 2)
print(f"rx(pi/2), exact:       {qfi(probe, 0, SV):.6f}")
print(f"rx(pi/2), 5000 shots:  {qfi(probe, 5000, SV, seed=1):.6f}")
print(f"rx(pi/2), mps backend: {qfi(probe, 5000, MPS, seed=1):.6f}")

print()
print("=== z rotations are invisible to a z-basis measurement ===")
dead = Circuit(2).rz(0, 0.7).rz(1, 1.3)
print(f"rz-only circuit, exact: {qfi(dead, 0, SV):.6f}")

print()
print("=== the estimate averages over all parameters ===")
half = Circuit(1).rx(0, math.pi / 2).rz(0, 0.4)
print(f"one live + one dead parameter: {qfi(half, 0, SV):.6f}")

print()
print("=== entangled probes ===")
for n in (2, 3, 4):
    c = ghz(n).rx(0, math.pi / 2)
    print(f"ghz({n}) + rx probe: exact {qfi(c, 0, SV):.4f}, "
          f"2000 shots {qfi(c, 2000, SV, seed=7):.4f}")

print()
print("=== shot noise shrinks with the budget, and averages out ===")
c = Circuit(2).rx(0, 0.8).cx(0, 1).rx(1, 0.5).h(0)
exact = qfi(c, 0, SV)
for shots in (100, 1000, 10000):
    est = qfi(c, shots, SV, seed=5)
    print(f"  {shots:>6d} shots: {est:.4f}  (exact {exact:.4f})")
mean = sum(qfi(c, 16, SV, seed=s) for s in range(400)) / 400
print(f"  mean of 400 seeds at 16 shots: {mean:.4f}")
