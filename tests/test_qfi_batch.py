"""The row-layout QFI against the per-circuit one it replaced.

`metrics.qfi` runs the 2R shifted circuits as the rows of one layout on
either backend: dense batches on the statevector, one MPS per row.
`ref_qfi` below is the earlier per-circuit estimator, kept verbatim with
its shift statistic and noisy evolution loop: each shifted circuit was run
(and, under noise, its shots evolved) on its own, each noise event was
applied to copies of the rows it hit, and the sampled outcomes of a pair
were matched as bitstrings. Both estimators must agree bit for bit on the
statevector and on an untruncated MPS.
"""

import copy
import math

import numpy as np
import pytest

from qsopt import gates as G
from qsopt import metrics, noise
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, moments, random_circuit
from qsopt.metrics import QFI_MAX, SHIFT, qfi, rotation_positions, shift_angle
from qsopt.noise import NoiseEvents, NoiseParams, draw_events
from qsopt.statevector import DenseState, bit_counts

SV = BackendSpec(kind="statevector")
MPS_EXACT = BackendSpec(kind="mps", chi_max=64, trunc_tol=0.0)
HIGH = NoiseParams(p_meas=0.05, p_1q=0.1, p_2q=0.2, t1_us=5.0, t2_us=7.0)

# --- the per-circuit reference --------------------------------------------

_PAULI_NAMES = ("x", "y", "z")


def ref_shift_statistic(p_plus: dict[str, float], p_minus: dict[str, float]) -> float:
    total = 0.0
    for outcome in sorted(p_plus.keys() | p_minus.keys()):
        a = p_plus.get(outcome, 0.0)
        b = p_minus.get(outcome, 0.0)
        if a + b == 0.0:
            continue
        total += 4.0 * (a - b) ** 2 / (a + b)
    return total


def _frequencies(counts: dict[str, int], shots: int) -> dict[str, float]:
    return {k: v / shots for k, v in counts.items()}


def _on_rows(state, rows: np.ndarray, shots: int, op) -> None:
    if shots == 1:
        op(state, 0)
    elif len(rows) == shots:
        op(state, rows)
    else:
        sub = copy.copy(state)
        sub.amps = state.amps[rows]
        op(sub, rows)
        state.amps[rows] = sub.amps


def ref_evolve(state, circuit: Circuit, layers: list[list[int]], ev: NoiseEvents) -> None:
    gate_hit = ev.pauli.any(axis=0)
    moment_hit = ev.reset.any(axis=0) | ev.phase.any(axis=0)
    for m, layer in enumerate(layers):
        for idx in layer:
            state.apply_gate(circuit.gates[idx])
            if not gate_hit[idx]:
                continue
            codes, targets = ev.pauli[:, idx], ev.target[:, idx]
            hit = np.flatnonzero(codes)
            for code, qubit in sorted(set(zip(codes[hit].tolist(), targets[hit].tolist()))):
                rows = hit[(codes[hit] == code) & (targets[hit] == qubit)]
                _on_rows(state, rows, ev.shots,
                         lambda s, _i: s.apply_pauli(_PAULI_NAMES[code - 1], qubit))
        for qubit in np.flatnonzero(moment_hit[m]).tolist():
            rows = np.flatnonzero(ev.reset[:, m, qubit])
            if len(rows):
                u = ev.reset_u[:, m, qubit]
                _on_rows(state, rows, ev.shots, lambda s, i: s.measure_reset0(qubit, u[i]))
            rows = np.flatnonzero(ev.phase[:, m, qubit])
            if len(rows):
                _on_rows(state, rows, ev.shots, lambda s, _i: s.apply_pauli("z", qubit))


def _measured_bits(circuit: Circuit, layers, spec: BackendSpec, ev: NoiseEvents) -> np.ndarray:
    if spec.kind == "statevector":
        state = DenseState(circuit.n_qubits, spec.dense_cap, batch=ev.shots)
    else:
        state = spec.fresh(circuit.n_qubits)
    ref_evolve(state, circuit, layers, ev)
    return state.measure_at(ev.meas_u)


def ref_sample_counts(circuit, spec, shots, seed, params=None):
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(root)
    if params is None or not params.enabled:
        return spec.run(circuit).sample(shots, rng)
    layers = moments(circuit)
    events = draw_events(circuit, layers, params, shots, rng)
    rows = max(1, noise.BATCH_AMPLITUDES >> circuit.n_qubits) if spec.kind == "statevector" else 1
    bits = np.concatenate([
        _measured_bits(circuit, layers, spec, events.rows(slice(start, start + rows)))
        for start in range(0, shots, rows)])
    return bit_counts(bits ^ events.flips)


def ref_qfi(circuit, shots, spec, noise_params=None, seed=0) -> float:
    positions = rotation_positions(circuit)
    if shots == 0:
        def distribution(c, _seed):
            return spec.run(c).distribution()
    else:
        def distribution(c, child):
            return _frequencies(ref_sample_counts(c, spec, shots, child, noise_params), shots)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = iter(root.spawn(2 * len(positions)))
    raw = 0.0
    for pos in positions:
        p_plus = distribution(shift_angle(circuit, pos, SHIFT), next(children))
        p_minus = distribution(shift_angle(circuit, pos, -SHIFT), next(children))
        raw += ref_shift_statistic(p_plus, p_minus)
    return raw / len(positions) / QFI_MAX


# --- equality with the reference ------------------------------------------

MODES = {"exact": (0, None), "shots": (48, None), "noisy": (48, HIGH)}


def _circuits(n, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        c = random_circuit(n, int(rng.integers(6, 25)), rng)
        if rotation_positions(c):
            out.append(c)
    return out


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_batched_qfi_equals_per_circuit_qfi(n, mode):
    shots, params = MODES[mode]
    specs = (SV, MPS_EXACT) if shots else (SV,)  # exact mode is statevector-only
    for i, c in enumerate(_circuits(n, 6, 10 * n)):
        for spec in specs:
            want = ref_qfi(c, shots, spec, params, seed=i)
            assert repr(qfi(c, shots, spec, params, seed=i)) == repr(want), (n, mode, i,
                                                                              spec.kind)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_two_qubit_qfi_within_rounding(mode):
    # at two qubits a single state's product takes another BLAS path than
    # a batch's, so exact probabilities can differ in their last bits
    shots, params = MODES[mode]
    for i, c in enumerate(_circuits(2, 8, 2)):
        want = ref_qfi(c, shots, SV, params, seed=i)
        assert abs(qfi(c, shots, SV, params, seed=i) - want) <= 1e-12


@pytest.mark.parametrize("mode", sorted(MODES))
def test_batch_split_inside_a_group_keeps_values(monkeypatch, mode):
    shots, params = MODES[mode]
    circuits = _circuits(4, 4, 7)
    whole = [qfi(c, shots, SV, params, seed=3) for c in circuits]
    # 5 rows of 4 qubits per batch: splits fall inside the 48-shot groups
    # and, without noise, between the pairs of one rotation
    monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 16 * 5)
    assert [qfi(c, shots, SV, params, seed=3) for c in circuits] == whole


def test_noisy_mps_qfi_is_unchanged():
    c = _circuits(3, 1, 4)[0]
    want = ref_qfi(c, 40, MPS_EXACT, HIGH, seed=5)
    assert repr(qfi(c, 40, MPS_EXACT, HIGH, seed=5)) == repr(want)


@pytest.mark.parametrize("params", [None, HIGH], ids=["shots", "noisy"])
def test_wide_mps_qfi_equals_per_circuit_qfi(params):
    # 70 bits overflow an int64 outcome index; outcomes must be keyed by
    # their bits at any width
    c = Circuit(70).h(0).cx(0, 69).rx(69, .3).rz(5, 1.1)
    want = ref_qfi(c, 16, MPS_EXACT, params, seed=2)
    assert want > 0.0
    assert repr(qfi(c, 16, MPS_EXACT, params, seed=2)) == repr(want)


def test_shift_statistic_squares_like_python():
    # an array ** 2 computes x*x, which rounds differently from Python's
    # scalar ** 2 in some of these; the statistic must match the scalar
    # form bit for bit
    rng = np.random.default_rng(0)
    a, b = rng.random((2, 20000, 3))
    a[:, 1] = b[:, 1] = 0.0  # terms with P+ + P- = 0 are skipped
    got = metrics._shift_statistic(a, b)
    want = [ref_shift_statistic(dict(zip("abc", pa)), dict(zip("abc", pb)))
            for pa, pb in zip(a.tolist(), b.tolist())]
    assert got.tolist() == want


# --- row operations -------------------------------------------------------

def _random_batch(n, rows, seed):
    rng = np.random.default_rng(seed)
    state = DenseState(n, batch=rows)
    state.amps[:] = rng.normal(size=state.amps.shape) + 1j * rng.normal(size=state.amps.shape)
    state.amps /= np.linalg.norm(state.amps, axis=1, keepdims=True)
    return state


def _per_row(state, op):
    """A copy of state with op(single state, row) applied to every row."""
    out = copy.deepcopy(state)
    for r in range(len(out.amps)):
        row = DenseState(state.n_qubits)
        row.amps = out.amps[r].copy()
        op(row, r)
        out.amps[r] = row.amps
    return out


@pytest.mark.parametrize("n", [1, 3, 5])
def test_pauli_gather_equals_per_row_paulis(n):
    rng = np.random.default_rng(n)
    state = _random_batch(n, 64, n)
    codes = rng.integers(4, size=64)
    qubits = rng.integers(n, size=64)
    want = _per_row(state, lambda s, r: codes[r] and s.apply_pauli("xyz"[codes[r] - 1],
                                                                   int(qubits[r])))
    with np.errstate(all="raise"):
        state.apply_paulis(codes, qubits)
    assert np.array_equal(state.probabilities(), want.probabilities())
    assert np.allclose(state.amps, want.amps, rtol=0.0, atol=0.0)


def test_z_flips_equal_per_row_paulis():
    rng = np.random.default_rng(1)
    state = _random_batch(4, 32, 1)
    flips = rng.random((32, 4)) < 0.3

    def flip(s, r):
        for q in np.flatnonzero(flips[r]):
            s.apply_pauli("z", int(q))

    want = _per_row(state, flip)
    with np.errstate(all="raise"):
        state.flip_z(flips)
    assert np.array_equal(state.probabilities(), want.probabilities())
    assert np.allclose(state.amps, want.amps, rtol=0.0, atol=0.0)


def test_reset_rows_touches_only_hit_rows():
    rng = np.random.default_rng(2)
    state = _random_batch(3, 16, 2)
    before = state.amps.copy()
    hit = rng.random(16) < 0.5
    u = rng.random(16)
    state.reset_rows(1, hit, u)
    assert np.array_equal(state.amps[~hit], before[~hit])
    want = DenseState(3, batch=int(hit.sum()))
    want.amps = before[hit]
    want.measure_reset0(1, u[hit])
    assert np.array_equal(state.amps[hit], want.amps)


def test_row_views_share_the_scratch_buffer_safely():
    state = _random_batch(4, 12, 3)
    want = state.amps.copy()
    c = random_circuit(4, 20, np.random.default_rng(4))
    for g in c.gates:
        # rows 3..8 get every gate through a view, the rest none
        state.rows(slice(3, 9)).apply_gate(g)
    alone = DenseState(4, batch=6)
    alone.amps = want[3:9].copy()
    alone.run(c)
    assert np.array_equal(state.amps[3:9], alone.amps)
    assert np.array_equal(state.amps[:3], want[:3])
    assert np.array_equal(state.amps[9:], want[9:])
    # the whole batch still runs correctly after its views used the buffer
    state.run(c)
    assert np.allclose(np.linalg.norm(state.amps, axis=1), 1.0)


def test_single_state_apply_unitary_is_unchanged_by_the_buffer():
    c = random_circuit(5, 30, np.random.default_rng(5))
    state = DenseState(5).run(c)
    ref = np.zeros(32, complex)
    ref[0] = 1.0
    for g in c.gates:
        view = ref.reshape((2,) * 5)
        front = np.moveaxis(view, list(g.qubits), range(len(g.qubits)))
        m = G.matrix(g)
        front[...] = (m @ front.reshape(len(m), -1)).reshape(front.shape)
    assert np.array_equal(state.amps, ref)
    assert math.isclose(state.norm(), 1.0)


def test_sample_counts_equal_the_reference():
    for i, c in enumerate(_circuits(4, 3, 8)):
        for spec in (SV, MPS_EXACT):
            assert noise.sample_counts(c, spec, 64, i, HIGH) == ref_sample_counts(
                c, spec, 64, i, HIGH)
