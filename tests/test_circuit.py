"""Circuit IR: construction, scheduling, edits, cancellation, text format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsopt import statevector
from qsopt.circuit import (
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    ParseError,
    cancel_pairs,
    composition,
    depth,
    emit,
    emit_file,
    gate_count,
    ghz,
    moments,
    parse,
    parse_file,
    random_circuit,
    remove_gate,
    replace_gate,
    swap_adjacent,
)


# --- gates and circuits ---------------------------------------------------

def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0, 1))
    with pytest.raises(CircuitError):
        Gate(GateKind.CX, (2, 2))
    with pytest.raises(CircuitError):
        Gate(GateKind.CX, (-1, 0))
    with pytest.raises(CircuitError):
        Gate(GateKind.RX, (0,))  # angle required
    with pytest.raises(CircuitError):
        Gate(GateKind.RX, (0,), math.nan)
    with pytest.raises(CircuitError):
        Gate(GateKind.H, (0,), 0.5)  # angle forbidden


def test_circuit_validation():
    with pytest.raises(CircuitError):
        Circuit(0)
    with pytest.raises(CircuitError):
        Circuit(2, (Gate(GateKind.H, (2,)),))


def test_builders_and_append_do_not_alias():
    c = Circuit(3).h(0).rx(1, 0.5).cx(0, 2)
    assert [g.kind for g in c] == [GateKind.H, GateKind.RX, GateKind.CX]
    assert c.gates[2].qubits == (0, 2)
    d = c.cz(1, 2)
    assert len(c) == 3 and len(d) == 4


def test_moments_pack_disjoint_gates():
    c = Circuit(4).h(0).h(1).cx(0, 1).h(2).h(3)
    layers = moments(c)
    # h0, h1, h2, h3 all fit in moment 0; the cx waits for q0 and q1
    assert layers[0] == [0, 1, 3, 4]
    assert layers[1] == [2]
    assert depth(c) == 2


def test_ghz_shape_and_depth():
    c = ghz(4)
    assert gate_count(c) == 4
    assert depth(c) == 4  # h then a cx ladder, strictly sequential
    assert c.gates[0].kind is GateKind.H
    assert all(g.kind is GateKind.CX for g in c.gates[1:])


def test_composition_fractions():
    c = Circuit(2).h(0).h(1).cx(0, 1)
    comp = composition(c)
    assert comp.counts[GateKind.H] == 2
    assert comp.fractions[GateKind.H] == pytest.approx(2 / 3)
    assert sum(comp.fractions.values()) == pytest.approx(1.0)
    assert composition(Circuit(2)).fractions == {}


def test_positional_edits():
    c = Circuit(2).h(0).cx(0, 1)
    g = Gate(GateKind.H, (1,))
    assert remove_gate(c, 0).gates[0].kind is GateKind.CX
    assert replace_gate(c, 0, g).gates[0] == g
    with pytest.raises(CircuitError):
        remove_gate(c, 2)
    with pytest.raises(CircuitError):
        replace_gate(c, -1, g)


def test_swap_adjacent_requires_disjoint_support():
    c = Circuit(3).h(0).h(1)
    swapped = swap_adjacent(c, 0)
    assert swapped.gates[0].qubits == (1,)
    with pytest.raises(CircuitError):
        swap_adjacent(Circuit(2).h(0).cx(0, 1), 0)
    with pytest.raises(CircuitError):
        swap_adjacent(c, 1)  # no successor


# --- cancellation ---------------------------------------------------------

def test_cancel_self_inverse_pairs():
    c = Circuit(2).h(0).h(0)
    assert len(cancel_pairs(c)) == 0
    c = Circuit(2).cx(0, 1).cx(0, 1)
    assert len(cancel_pairs(c)) == 0
    # reversed cx is a different unitary and must survive
    c = Circuit(2).cx(0, 1).cx(1, 0)
    assert len(cancel_pairs(c)) == 2
    # cz and swap are symmetric, orientation does not matter
    assert len(cancel_pairs(Circuit(2).cz(0, 1).cz(1, 0))) == 0
    assert len(cancel_pairs(Circuit(2).swap(1, 0).swap(0, 1))) == 0


def test_cancel_blocked_by_intervening_gate():
    c = Circuit(2).h(0).cx(0, 1).h(0)
    assert len(cancel_pairs(c)) == 3
    # a gate on an unrelated qubit does not block
    c = Circuit(3).h(0).h(2).h(0)
    assert len(cancel_pairs(c)) == 1


def test_cancel_merges_rotations():
    c = Circuit(1).rx(0, 0.3).rx(0, 0.4)
    out = cancel_pairs(c)
    assert len(out) == 1
    assert out.gates[0].angle == pytest.approx(0.7)
    # merged angle of 2*pi disappears entirely
    c = Circuit(1).rz(0, 1.5 * math.pi).rz(0, 0.5 * math.pi)
    assert len(cancel_pairs(c)) == 0
    # different axes never merge
    c = Circuit(1).rx(0, 0.3).rz(0, -0.3)
    assert len(cancel_pairs(c)) == 2


def test_cancel_runs_to_fixed_point():
    # inner pair cancels first, exposing the outer pair
    c = Circuit(2).h(0).cx(0, 1).cx(0, 1).h(0)
    assert len(cancel_pairs(c)) == 0


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 12))
def test_cancel_preserves_state_up_to_phase(seed, n_gates):
    # dropping a merged 2*pi rotation flips the global sign (rx(2pi) = -1),
    # so compare via fidelity rather than amplitudes
    rng = np.random.default_rng(seed)
    c = random_circuit(4, n_gates, rng)
    a = statevector.run(c).amps
    b = statevector.run(cancel_pairs(c)).amps
    assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-10)


# --- text format ----------------------------------------------------------

def test_emit_format():
    text = emit(Circuit(2).h(0).rx(1, 0.5).cx(0, 1))
    assert text == "qubits 2\nh q0\nrx(0.5) q1\ncx q0 q1\n"


def test_parse_comments_and_blanks():
    c = parse("# header comment\nqubits 2\n\nh q0  # trailing\ncx q0 q1\n")
    assert len(c) == 2 and c.n_qubits == 2


@pytest.mark.parametrize("text,lineno", [
    ("h q0\n", 1),                      # missing header
    ("qubits 2\nh r0\n", 2),            # bad qubit token
    ("qubits 2\nfoo q0\n", 2),          # unknown gate
    ("qubits 2\nrx(abc) q0\n", 2),      # bad angle
    ("qubits 2\nrx q0\n", 2),           # rotation without angle
    ("qubits 2\nh(0.5) q0\n", 2),       # angle on h
    ("qubits 2\nh q5\n", 2),            # out of range
    ("qubits 2\ncx q0 q0\n", 2),        # duplicate qubits
    ("qubits 0\n", 1),                  # bad count
    ("", 1),                            # empty file
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == lineno


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 20))
def test_parse_emit_round_trip(seed, n_gates):
    rng = np.random.default_rng(seed)
    c = random_circuit(5, n_gates, rng)
    assert parse(emit(c)) == c  # repr() angles survive the trip exactly


def test_file_round_trip(tmp_path):
    c = ghz(3).rx(1, math.pi / 4)
    path = tmp_path / "c.qc"
    emit_file(c, path)
    assert parse_file(path) == c


# --- random circuits ------------------------------------------------------

def test_random_circuit_respects_options():
    rng = np.random.default_rng(0)
    c = random_circuit(6, 200, rng, adjacent_only=True)
    assert len(c) == 200
    for g in c:
        if g.kind.n_qubits == 2:
            assert abs(g.qubits[0] - g.qubits[1]) == 1
    only_h = random_circuit(3, 50, rng, kinds=(GateKind.H,))
    assert all(g.kind is GateKind.H for g in only_h)
