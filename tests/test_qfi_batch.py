"""The row-layout QFI against the per-circuit one it replaced.

`metrics.qfi` runs the 2R shifted circuits as the rows of one layout on
either backend: dense batches on the statevector, stacked MPS (rows over
one chain, sharing its center) on the MPS; under noise each row is one
shot of one shifted circuit.
`ref_qfi` below is the earlier per-circuit estimator, kept verbatim with
its shift statistic and noisy evolution loop: each shifted circuit was run
(and, under noise, its shots evolved) on its own, each noise event was
applied to copies of the rows it hit, and the sampled outcomes of a pair
were matched as bitstrings. Both estimators must agree bit for bit on the
statevector and on an untruncated MPS. Where the bond cap truncates,
stacked noisy MPS rows of unequal rank round differently from one-row
runs, and their QFI can differ (ROADMAP, item 6).

Under noise the reference holds for trajectories: on the MPS, and on the
statevector where the method rule (`noise.density_rows`) sends the QFI to
them, with shots < 2^n or a dense cap below 2n. Where the rule picks
density rows, the QFI is checked against `ref_density_qfi`, which draws
the same shots from the distributions of the Kraus reference
(`kraus_reference.py`).
"""

import copy
import math

import numpy as np
import pytest

from kraus_reference import shifted_probabilities
from qsopt import gates as G
from qsopt import metrics, noise, statevector
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, moments, random_circuit
from qsopt.metrics import QFI_MAX, SHIFT, qfi, rotation_positions, shift_angle
from qsopt.mps import MpsState
from qsopt.noise import NoiseEvents, NoiseParams, draw_events
from qsopt.statevector import DenseState, bit_counts

SV = BackendSpec(kind="statevector")
MPS_EXACT = BackendSpec(kind="mps", chi_max=64, trunc_tol=0.0)
HIGH = NoiseParams(p_meas=0.05, p_1q=0.1, p_2q=0.2, t1_us=5.0, t2_us=7.0)


def _trajectory_spec(n):
    """A statevector whose dense cap, below 2n, sends a noisy QFI of n
    qubits to trajectories at any shot count."""
    return BackendSpec(kind="statevector", dense_cap=2 * n - 1)


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
    if params is None:
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


def ref_density_qfi(circuit, shots, noise_params, seed=0) -> float:
    """The noisy QFI whose shifted circuits' shots are drawn from their
    exact distributions (`kraus_reference.shifted_probabilities`), each at
    default_rng(child).random(shots) by inverting its CDF."""
    n = circuit.n_qubits
    probs = np.maximum(shifted_probabilities(circuit, noise_params), 0.0)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    freqs = []
    for p, child in zip(probs, root.spawn(len(probs))):
        cdf = np.cumsum(p)
        u = np.random.default_rng(child).random(shots)
        index = np.minimum(np.searchsorted(cdf, u * cdf[-1], side="right"), len(p) - 1)
        counts = {}
        for i in index.tolist():
            key = format(i, f"0{n}b")
            counts[key] = counts.get(key, 0) + 1
        freqs.append(_frequencies(counts, shots))
    raw = sum(ref_shift_statistic(plus, minus) for plus, minus in zip(freqs[0::2], freqs[1::2]))
    return raw / (len(probs) // 2) / QFI_MAX


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
    if params is not None and 2 ** n <= shots:  # SV runs density rows
        specs = (_trajectory_spec(n), MPS_EXACT)
    for i, c in enumerate(_circuits(n, 6, 10 * n)):
        for spec in specs:
            want = ref_qfi(c, shots, spec, params, seed=i)
            assert repr(qfi(c, shots, spec, params, seed=i)) == repr(want), (n, mode, i,
                                                                              spec.kind)
        if params is not None and 2 ** n <= shots:
            want = ref_density_qfi(c, shots, params, seed=i)
            assert abs(qfi(c, shots, SV, params, seed=i) - want) <= 1e-12, (n, i)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_statevector_qfi_reads_distributions_not_bits(monkeypatch, mode):
    # on the statevector the exact, sampled and density-row QFIs read the
    # shifted circuits' distributions as one array (at 4 qubits, 2^n <= 48
    # shots sends the noisy QFI to density rows): nothing is read out as
    # bits. The references read bits, so they run before the patch.
    shots, params = MODES[mode]
    circuits = _circuits(4, 6, 11)
    if params is None:
        want = [ref_qfi(c, shots, SV, seed=i) for i, c in enumerate(circuits)]
    else:
        want = [ref_density_qfi(c, shots, params, seed=i) for i, c in enumerate(circuits)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the statevector QFI read out bits")

    monkeypatch.setattr(DenseState, "measure_at", refuse)
    monkeypatch.setattr(metrics, "distinct_outcomes", refuse)
    monkeypatch.setattr(statevector, "distinct_outcomes", refuse)
    for i, c in enumerate(circuits):
        got = qfi(c, shots, SV, params, seed=i)
        assert repr(got) == repr(want[i]), (mode, i)


@pytest.mark.parametrize("mode", ["exact", "shots"])
@pytest.mark.parametrize("n", [3, 5])
def test_extended_rows_give_the_per_circuit_qfi(n, mode):
    # rows built for a prefix of the circuit, then extended gate run by gate
    # run to all of it, give the per-circuit QFI: the appended rotations'
    # rows are copies of the base row, and only the shifted rows are read
    shots, _ = MODES[mode]
    specs = (SV, MPS_EXACT) if shots else (SV,)
    rng = np.random.default_rng(n)
    for i, c in enumerate(_circuits(n, 6, 20 + n)):
        for spec in specs:
            cut = sorted(rng.integers(0, len(c) + 1, size=2).tolist())
            rows = metrics.Rows(Circuit(n, c.gates[:cut[0]]), spec)
            for stop in (cut[1], len(c)):
                assert rows.update(Circuit(n, c.gates[:stop]))
            assert rows.rotations == len(rotation_positions(c))
            want = ref_qfi(c, shots, spec, seed=i)
            assert repr(qfi(c, shots, spec, seed=i, rows=rows)) == repr(want), (n, i, spec.kind)


def test_rows_refuse_a_circuit_they_do_not_hold():
    c = Circuit(3).h(0).rx(1, 0.4).cx(0, 1)
    rows = metrics.Rows(c, SV)
    # a circuit that does not extend the rows' circuit rebuilds them
    other = Circuit(3).h(0).rx(1, 0.5).cx(0, 1).h(2)
    assert not rows.update(other)
    assert np.array_equal(rows.state.amps, metrics.Rows(other, SV).state.amps)
    assert repr(qfi(other, 0, SV, rows=rows)) == repr(qfi(other, 0, SV))
    with pytest.raises(ValueError):
        qfi(c, 0, SV, rows=rows)
    with pytest.raises(ValueError):  # a noisy evaluation's rows hold no shifted rows
        qfi(c, 0, SV, rows=metrics.Rows(c, SV, shifted=False))


def test_record_reports_the_largest_discarded_weight_of_the_rows():
    # rx(0) leaves the base row a product state, while the cx entangles
    # its shifted rows, and chi 1 drops half of their weight
    c = Circuit(2).rx(0, 0.0).cx(0, 1)
    spec = BackendSpec(kind="mps", chi_max=1)
    rows = metrics.Rows(c, spec)
    assert rows.state.total_discarded.tolist() == pytest.approx([0.0, 0.5, 0.5])
    assert rows.record().discarded_weight == float(np.max(rows.state.total_discarded))
    assert metrics.evaluate(c, spec, 8).discarded_weight == rows.record().discarded_weight
    # under noise the rows hold the base row alone; the dense backend drops nothing
    assert metrics.Rows(c, spec, shifted=False).record().discarded_weight == 0.0
    assert metrics.evaluate(c, spec, 8, HIGH).discarded_weight == 0.0
    assert metrics.evaluate(c, SV, 0).discarded_weight == 0.0


@pytest.mark.parametrize("mode", sorted(MODES))
def test_two_qubit_qfi_within_rounding(mode):
    # at two qubits a single state's product takes another BLAS path than
    # a batch's, so exact probabilities can differ in their last bits
    shots, params = MODES[mode]
    spec = SV if params is None else _trajectory_spec(2)
    for i, c in enumerate(_circuits(2, 8, 2)):
        want = ref_qfi(c, shots, spec, params, seed=i)
        assert abs(qfi(c, shots, spec, params, seed=i) - want) <= 1e-12
        if params is not None:  # density rows, at 2^2 <= 48 shots
            want = ref_density_qfi(c, shots, params, seed=i)
            assert abs(qfi(c, shots, SV, params, seed=i) - want) <= 1e-12


@pytest.mark.parametrize("mode", sorted(MODES))
def test_batch_split_inside_a_group_keeps_values(monkeypatch, mode):
    shots, params = MODES[mode]
    spec = SV if params is None else _trajectory_spec(4)  # noisy: trajectories
    circuits = _circuits(4, 4, 7)
    whole = [qfi(c, shots, spec, params, seed=3) for c in circuits]
    # 5 rows of 4 qubits per batch: noisy splits fall inside the 48-shot
    # groups; noiseless modes do not go through `row_states`, since their
    # rows are the one state of `metrics.Rows`, which the cap does not split
    monkeypatch.setattr(noise, "BATCH_AMPLITUDES", 16 * 5)
    states = []
    fresh = BackendSpec.fresh
    monkeypatch.setattr(BackendSpec, "fresh",
                        lambda self, n, batch=None: states.append(batch) or fresh(self, n, batch))
    assert [qfi(c, shots, spec, params, seed=3) for c in circuits] == whole
    if params is not None:  # `row_states` split each QFI's rows into states
        assert len(states) > len(circuits)


def _largest_row(n, chi):
    """Tensor entries of one MPS row with every bond at its largest."""
    bonds = [min(2 ** k, 2 ** (n - k), chi) for k in range(n + 1)]
    return sum(2 * bonds[k - 1] * bonds[k] for k in range(1, n + 1))


@pytest.mark.parametrize("n,rotations,cap", [(60, 3, 38), (16, 3, 219), (60, 40, 38)])
def test_noisy_mps_stacks_stay_bounded(n, rotations, cap):
    spec = BackendSpec(kind="mps", chi_max=16)
    assert noise.BATCH_AMPLITUDES // _largest_row(n, 16) == cap
    pairs = 2 * rotations
    sizes = [stop - start for start, stop, _ in noise.row_states(spec, n, pairs * 5000)]
    assert sum(sizes) == pairs * 5000
    assert max(sizes) == cap


@pytest.mark.parametrize("spec,shots", [(SV, 0), (SV, 16), (MPS_EXACT, 16)],
                         ids=["statevector-exact", "statevector-sampled", "mps-sampled"])
def test_noiseless_qfi_builds_one_state(monkeypatch, spec, shots):
    batches = []
    fresh = BackendSpec.fresh

    def counted(self, n_qubits, batch=None):
        batches.append(batch)
        return fresh(self, n_qubits, batch)

    monkeypatch.setattr(BackendSpec, "fresh", counted)
    c = Circuit(4).h(0).cx(0, 1).rx(1, .4).rz(2, 1.1).cx(2, 3).rx(3, .9)
    qfi(c, shots, spec, None, seed=3)
    assert batches == [7]  # the base row and 2R shifted rows, R = 3 rotations


@pytest.mark.parametrize("shots,cap,density", [(8, 14, True), (4, 14, False), (8, 5, False)],
                         ids=["2^n=shots", "2^n=2*shots", "2n=cap+1"])
def test_noisy_qfi_runs_density_rows_where_they_hold_no_more_amplitudes(monkeypatch, shots,
                                                                          cap, density):
    states = []
    fresh = BackendSpec.fresh

    def counted(self, n_qubits, batch=None):
        states.append((n_qubits, batch))
        return fresh(self, n_qubits, batch)

    monkeypatch.setattr(BackendSpec, "fresh", counted)
    c = Circuit(3).h(0).cx(0, 1).rx(1, .4).rz(2, 1.1)  # R = 2 rotations
    qfi(c, shots, BackendSpec(kind="statevector", dense_cap=cap), HIGH, seed=3)
    if density:  # one row of 2n qubits per shifted circuit
        assert states == [(6, 4)]
    else:  # one row of n qubits per shot of each shifted circuit
        assert {n for n, _ in states} == {3}
        assert sum(batch for _, batch in states) == 4 * shots


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


def _random_stack(n, rows, seed):
    """A stacked MPS of `rows` different states: every row runs one random
    circuit, with random RX angles of its own on every qubit halfway."""
    rng = np.random.default_rng(seed)
    state = MpsState(n, trunc_tol=0.0, batch=rows)
    state.run(random_circuit(n, 4 * n, rng))
    for r in range(rows):
        for q in range(n):
            state.apply_gate(Circuit(n).rx(q, rng.uniform(0, 6)).gates[0],
                             rows=slice(r, r + 1))
    return state.run(random_circuit(n, 4 * n, rng))


def _amps(state):
    """The rows' amplitudes as (rows, 2^n)."""
    return state.amps if isinstance(state, DenseState) else state.to_dense()


def _row_copy(state, r):
    """A one-row batch holding a copy of row r of state."""
    if isinstance(state, DenseState):
        row = DenseState(state.n_qubits, batch=1)
        row.amps[0] = state.amps[r]
        return row
    row = MpsState(state.n_qubits, chi_max=state.chi_max, trunc_tol=state.trunc_tol, batch=1)
    row.tensors = [t[r:r + 1].copy() for t in state.tensors]
    row.center = state.center
    row._discarded = state._discarded[r:r + 1].copy()
    return row


def _per_row(state, op):
    """The amplitudes of every row after op(one-row copy of the row, row)."""
    out = []
    for r in range(len(_amps(state))):
        row = _row_copy(state, r)
        op(row, r)
        out.append(_amps(row)[0])
    return np.array(out)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_pauli_gather_equals_per_row_paulis(n):
    rng = np.random.default_rng(n)
    codes = rng.integers(4, size=64)
    qubits = rng.integers(n, size=64)
    for state in (_random_batch(n, 64, n), _random_stack(n, 64, n)):
        want = _per_row(state, lambda s, r: codes[r] and s.apply_pauli("xyz"[codes[r] - 1],
                                                                       int(qubits[r])))
        with np.errstate(all="raise"):
            state.apply_paulis(codes, qubits)
        assert np.array_equal(_amps(state), want)


def test_z_flips_equal_per_row_paulis():
    rng = np.random.default_rng(1)
    flips = rng.random((32, 4)) < 0.3

    def flip(s, r):
        for q in np.flatnonzero(flips[r]):
            s.apply_pauli("z", int(q))

    for state in (_random_batch(4, 32, 1), _random_stack(4, 32, 1)):
        want = _per_row(state, flip)
        with np.errstate(all="raise"):
            state.flip_z(flips)
        assert np.array_equal(_amps(state), want)


def test_reset_rows_touches_only_hit_rows():
    rng = np.random.default_rng(2)
    hit = rng.random(16) < 0.5
    u = rng.random(16)
    stack = _random_stack(3, 16, 2)
    # a reset first moves the center all rows share; with it already
    # there, rows that drew no reset must come out unchanged
    stack.move_center(1)
    for state in (_random_batch(3, 16, 2), stack):
        before = _amps(state).copy()
        want = _per_row(state, lambda s, r: hit[r] and s.measure_reset0(1, u[r]))
        state.reset_rows(1, hit, u)
        assert np.array_equal(_amps(state)[~hit], before[~hit])
        assert np.array_equal(_amps(state), want)


def test_row_slice_gates_share_the_scratch_buffer_safely():
    state = _random_batch(4, 12, 3)
    want = state.amps.copy()
    c = random_circuit(4, 20, np.random.default_rng(4))
    for g in c.gates:
        # rows 3..8 get every gate through the kernel's row slice, the rest none
        state.apply_gate(g, rows=slice(3, 9))
    alone = DenseState(4, batch=6)
    alone.amps = want[3:9].copy()
    alone.run(c)
    assert np.array_equal(state.amps[3:9], alone.amps)
    assert np.array_equal(state.amps[:3], want[:3])
    assert np.array_equal(state.amps[9:], want[9:])
    # the whole batch still runs correctly after its row slices used the buffer
    state.run(c)
    assert np.allclose(np.linalg.norm(state.amps, axis=1), 1.0)


def test_a_matrix_stack_applies_one_matrix_to_each_row():
    # density rows after a shifted rotation: rows 1..4 of 6, each its own matrix
    rng = np.random.default_rng(8)
    stack = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    state = _random_batch(3, 6, 8)
    want = state.amps.copy()
    for r, m in enumerate(stack, start=1):
        row = DenseState(3, batch=1)
        row.amps[0] = want[r]
        row.apply_unitary(m, 2, 0)
        want[r] = row.amps[0]
    state.apply_unitary(stack, 2, 0, rows=slice(1, 5))
    # a batched product may round unlike a single one
    assert np.allclose(state.amps, want, rtol=0.0, atol=1e-13)
    assert np.array_equal(state.amps[[0, 5]], want[[0, 5]])


def test_1q_gate_on_a_row_slice_changes_only_those_rows():
    g = Circuit(4).rx(2, 0.7).gates[0]
    for state in (_random_batch(4, 10, 6), _random_stack(4, 10, 6)):
        before = _amps(state).copy()
        want = _per_row(state, lambda s, _r: s.apply_gate(g))
        state.apply_gate(g, rows=slice(2, 7))
        after = _amps(state)
        assert np.array_equal(after[:2], before[:2])
        assert np.array_equal(after[7:], before[7:])
        assert np.array_equal(after[2:7], want[2:7])


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
