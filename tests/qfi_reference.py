"""Per-circuit references for the parameter-shift QFI.

`plugin_qfi` is the exact figure as the QFI computed it from 2R shifted
circuits: each rotation's circuits shifted by +pi/2 and -pi/2 run on their
own, and their exact distributions are compared by the plug-in statistic
`ref_shift_statistic`, divided by its maximum 8. The noisy QFI still
computes this statistic over sampled frequencies.

`mixture_qfi` is the noiseless figure over 1 + R rows, written per
circuit: the circuit psi and, for each rotation k, the circuit xi_k with
rotation k shifted by +pi run as single states. Exact, it sums
2 Re(conj(psi) xi_k)^2 / (|psi|^2 + |xi_k|^2) over every outcome.
Sampled, rotation k's uniforms are default_rng(child k).random(shots):
the first ceil(N/2) draw from psi and the rest from xi_k, each half's mean
weighted 1/2, or a single shot draws from psi at 2u if u < 1/2, else from
xi_k at 2u - 1. Each outcome is drawn by its state's `measure_at`, and
both amplitudes at it are contracted on their own by `amplitude`.
"""

import math

import numpy as np

from qsopt.metrics import SHIFT, rotation_positions, shift_angle
from qsopt.statevector import run as sv_run


def ref_shift_statistic(p_plus: dict[str, float], p_minus: dict[str, float]) -> float:
    total = 0.0
    for outcome in sorted(p_plus.keys() | p_minus.keys()):
        a = p_plus.get(outcome, 0.0)
        b = p_minus.get(outcome, 0.0)
        if a + b == 0.0:
            continue
        total += 4.0 * (a - b) ** 2 / (a + b)
    return total


def plugin_qfi(circuit) -> float:
    """The exact plug-in figure of the 2R shifted circuits, on the
    statevector."""
    positions = rotation_positions(circuit)
    raw = 0.0
    for pos in positions:
        p_plus = sv_run(shift_angle(circuit, pos, SHIFT)).distribution()
        p_minus = sv_run(shift_angle(circuit, pos, -SHIFT)).distribution()
        raw += ref_shift_statistic(p_plus, p_minus)
    return raw / len(positions) / 8.0


def _delta_squared(psi, xi, bits) -> float:
    key = "".join(str(b) for b in bits.tolist())
    a, b = complex(psi.amplitude(key)), complex(xi.amplitude(key))
    return (2.0 * (a.conjugate() * b).real / (abs(a) ** 2 + abs(b) ** 2)) ** 2


def mixture_qfi(circuit, shots: int, spec, seed=0) -> float:
    positions = rotation_positions(circuit)
    psi = spec.run(circuit)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    total = 0.0
    for pos, child in zip(positions, root.spawn(len(positions))):
        xi = spec.run(shift_angle(circuit, pos, math.pi))
        if shots == 0:
            a, b = psi.amps, xi.amps
            weight = np.abs(a) ** 2 + np.abs(b) ** 2
            seen = weight > 0.0
            total += float(np.sum(2.0 * (a.conj() * b).real[seen] ** 2 / weight[seen]))
            continue
        v = np.random.default_rng(child).random(shots)
        if shots == 1:
            u = float(v[0])
            draws = [(psi, [2.0 * u], 1.0)] if u < 0.5 else [(xi, [2.0 * u - 1.0], 1.0)]
        else:
            half = (shots + 1) // 2
            draws = [(psi, v[:half], 0.5 / half), (xi, v[half:], 0.5 / (shots - half))]
        for state, us, weight in draws:
            for bits in state.measure_at(np.asarray(us)):
                total += weight * _delta_squared(psi, xi, bits)
    return total / len(positions)
