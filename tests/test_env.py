"""Circuit-edit MDP: catalog, observation encoding, masks, step dynamics."""

import math

import numpy as np
import pytest

from qsopt import metrics
from qsopt.backend import BackendSpec
from qsopt.circuit import Circuit, GateKind, ghz, random_circuit
from qsopt.env import (
    CH_ANGLE,
    CH_CX_CTRL,
    CH_CX_TGT,
    CH_CZ,
    CH_EMPTY,
    CH_H,
    CH_RX,
    CH_RZ,
    CH_SWAP,
    INVALID_PENALTY,
    N_CHANNELS,
    CircuitEnv,
    EnvConfig,
    EnvError,
    action_catalog,
    aux_size,
    encode,
)
from qsopt.metrics import MetricsRecord, evaluate
from qsopt.noise import NoiseParams

SV = BackendSpec(kind="statevector")


def exact_cfg(**kwargs):
    defaults = dict(n_qubits=5, max_gates=30, max_steps_per_episode=10,
                    shots=0, backend=SV)
    defaults.update(kwargs)
    return EnvConfig(**defaults)


def _action_id(catalog, name, **fields):
    for i, a in enumerate(catalog):
        if a.name == name and all(getattr(a, k) == v for k, v in fields.items()):
            return i
    raise AssertionError(f"no action {name} {fields}")


# --- config and catalog ---------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        exact_cfg(n_qubits=1)
    with pytest.raises(ValueError):
        exact_cfg(max_gates=0)
    with pytest.raises(ValueError):
        exact_cfg(entanglement_threshold=1.5)
    with pytest.raises(ValueError):
        exact_cfg(shots=-1)
    with pytest.raises(ValueError):
        exact_cfg(backend=BackendSpec(kind="mps"))  # shots=0 needs dense
    with pytest.raises(ValueError):
        exact_cfg(angle_catalog=())
    for angle in (math.nan, math.inf):
        with pytest.raises(ValueError, match="angle_catalog"):
            exact_cfg(angle_catalog=(math.pi / 4, angle))


def test_exact_qfi_rejects_training_noise():
    with pytest.raises(ValueError, match="noise"):
        exact_cfg(noise=NoiseParams())
    assert exact_cfg(noise=None).noise is None
    assert exact_cfg(shots=16, noise=NoiseParams()).noise == NoiseParams()


def _refusal(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("shots", [-1, 0, 16])
@pytest.mark.parametrize("kind", ["statevector", "mps"])
@pytest.mark.parametrize("noise", [None, NoiseParams()], ids=["noiseless", "noisy"])
def test_env_and_qfi_refuse_the_same_modes(shots, kind, noise):
    spec = BackendSpec(kind=kind)
    circuit = Circuit(2).rx(0, 0.5).cx(0, 1)
    refused = _refusal(lambda: exact_cfg(n_qubits=2, shots=shots, backend=spec, noise=noise))
    assert refused == _refusal(lambda: metrics.qfi(circuit, shots, spec, noise))
    assert (refused is None) == (shots > 0 or (shots == 0 and kind == "statevector"
                                               and noise is None))


def test_catalog_layout():
    cfg = exact_cfg()
    cat = action_catalog(cfg)
    n, k = cfg.n_qubits, len(cfg.angle_catalog)
    # adds, last-gate edits, cancel, inject, boost
    assert len(cat) == n + 2 * n * k + 3 * (n - 1) + 3 * n + 3 == 55
    assert cat[0].name == "add_h" and cat[0].qubit == 0
    assert [a.name for a in cat[:n]] == ["add_h"] * n
    assert cat[n].name == "add_rx" and cat[n].angle == math.pi / 4
    two_q = [a for a in cat if a.pair is not None]
    assert all(a.entangling for a in two_q)
    assert all(a.pair[1] - a.pair[0] == 1 for a in two_q)  # adjacent only
    assert cat[-3].name == "cancel_pass"
    assert cat[-2].name == "inject" and cat[-2].entangling
    assert cat[-1].name == "boost" and cat[-1].entangling


def test_action_labels():
    cat = action_catalog(exact_cfg())
    labels = {a.label() for a in cat}
    assert "add_h(q0)" in labels
    assert "add_cx(q0,q1)" in labels
    assert "cancel_pass" in labels


# --- observation ----------------------------------------------------------

def test_encode_grid_channels():
    cfg = exact_cfg(n_qubits=3, max_gates=6)
    c = Circuit(3).h(0).rx(1, math.pi / 2).cx(0, 1)
    rec = evaluate(c, SV, shots=0)
    obs = encode(c, rec, cfg)
    assert obs.grid.shape == (3, 6, N_CHANNELS)
    assert obs.grid[0, 0, CH_H] == 1.0
    assert obs.grid[1, 0, CH_RX] == 1.0
    assert obs.grid[1, 0, CH_ANGLE] == pytest.approx(0.25)  # (pi/2) / 2pi
    assert obs.grid[0, 1, CH_CX_CTRL] == 1.0
    assert obs.grid[1, 1, CH_CX_TGT] == 1.0
    # untouched cells stay flagged empty
    assert obs.grid[2, 0, CH_EMPTY] == 1.0
    assert obs.grid[0, 0, CH_EMPTY] == 0.0


def test_encode_sets_one_channel_per_gate_qubit():
    cfg = exact_cfg(n_qubits=4, max_gates=8)
    c = Circuit(4).h(0).rz(1, -math.pi / 2).cz(2, 3).swap(0, 1).cx(3, 2).rx(0, 5 * math.pi)
    obs = encode(c, evaluate(c, SV, shots=0), cfg)
    want = np.zeros((4, 8, N_CHANNELS))
    want[:, :, CH_EMPTY] = 1.0
    for q, m, ch in [(0, 0, CH_H), (1, 0, CH_RZ), (2, 0, CH_CZ), (3, 0, CH_CZ),
                     (0, 1, CH_SWAP), (1, 1, CH_SWAP), (3, 1, CH_CX_CTRL),
                     (2, 1, CH_CX_TGT), (0, 2, CH_RX)]:
        want[q, m, CH_EMPTY], want[q, m, ch] = 0.0, 1.0
    want[1, 0, CH_ANGLE] = 0.75  # -pi/2 is three quarters of a turn
    want[0, 2, CH_ANGLE] = 0.5
    np.testing.assert_allclose(obs.grid, want, rtol=0.0, atol=1e-12)


def test_encode_aux_layout():
    cfg = exact_cfg(n_qubits=4, max_gates=10)
    c = ghz(4)
    rec = evaluate(c, SV, shots=0)
    obs = encode(c, rec, cfg)
    assert obs.aux.shape == (aux_size(cfg),) == (6,)
    assert obs.aux[:3] == pytest.approx([1.0, 1.0, 1.0])  # bell-unit bonds
    assert obs.aux[3] == rec.qfi_norm
    assert obs.aux[4] == pytest.approx(rec.depth / cfg.grid_depth)
    assert obs.aux[5] == pytest.approx(rec.gate_count / cfg.max_gates)


# --- apply_action ---------------------------------------------------------

def test_add_actions_and_budget():
    env = CircuitEnv(exact_cfg(max_gates=5))
    env.reset(ghz(5), seed=0)  # exactly at budget
    add = _action_id(env.catalog, "add_h", qubit=2)
    assert env.apply_action(env.circuit, env.catalog[add]) is None
    env2 = CircuitEnv(exact_cfg())
    env2.reset(ghz(5), seed=0)
    out = env2.apply_action(env2.circuit, env2.catalog[add])
    assert out.gates[-1].kind is GateKind.H and out.gates[-1].qubits == (2,)


def test_remove_last_targets_most_recent_touch():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    a = env.catalog[_action_id(env.catalog, "remove_last", qubit=0)]
    out = env.apply_action(env.circuit, a)
    # last gate touching q0 is cx(0,1), not the opening h
    assert len(out) == 4
    assert out.gates[0].kind is GateKind.H
    assert all(g.qubits != (0, 1) for g in out.gates)
    # a qubit with no gates yet
    c = Circuit(5).h(0)
    assert env.apply_action(c, env.catalog[_action_id(env.catalog, "remove_last", qubit=3)]) is None


def test_swap_last_pair_semantics():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    # predecessor of cx(3,4) is cx(2,3): shared qubit, invalid
    a = env.catalog[_action_id(env.catalog, "swap_last_pair", qubit=4)]
    assert env.apply_action(env.circuit, a) is None
    # h(4) then h(0): disjoint, exchangeable
    c = Circuit(5).h(4).h(0)
    a0 = env.catalog[_action_id(env.catalog, "swap_last_pair", qubit=0)]
    out = env.apply_action(c, a0)
    assert out.gates[0].qubits == (0,) and out.gates[1].qubits == (4,)
    # first gate has no predecessor
    assert env.apply_action(Circuit(5).h(2),
                            env.catalog[_action_id(env.catalog, "swap_last_pair", qubit=2)]) is None


def test_replace_last_rotation_with_h():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    a = env.catalog[_action_id(env.catalog, "replace_last", qubit=1)]
    c = Circuit(5).rx(1, 0.5).cx(1, 2)
    out = env.apply_action(c, a)
    # skips the two-qubit gate and rewrites the rotation underneath
    assert out.gates[0].kind is GateKind.H and out.gates[0].qubits == (1,)
    assert env.apply_action(Circuit(5).h(1), a) is None  # already h
    assert env.apply_action(Circuit(5).cx(1, 2), a) is None  # no 1q gate


def test_cancel_pass_action():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    a = env.catalog[_action_id(env.catalog, "cancel_pass")]
    out = env.apply_action(Circuit(5).h(0).h(0).cx(1, 2), a)
    assert len(out) == 1


def test_inject_targets_weakest_bond():
    env = CircuitEnv(exact_cfg())
    # bond 3 (between q2 and q3) carries no entanglement
    c = ghz(3)
    init = Circuit(5, c.gates)
    env.reset(init, seed=0)
    a = env.catalog[_action_id(env.catalog, "inject")]
    out = env.apply_action(env.circuit, a)
    assert out.gates[-2].kind is GateKind.H and out.gates[-2].qubits == (2,)
    assert out.gates[-1].kind is GateKind.CX and out.gates[-1].qubits == (2, 3)


def test_inject_ignores_ulp_level_entropy_differences():
    # bonds 2 and 3 tie up to the last bit; the lower bond wins, as it
    # would in exact arithmetic
    env = CircuitEnv(exact_cfg())
    record = MetricsRecord(qfi_norm=0.0, entropy_norm=0.5, depth=0, gate_count=0,
                           bond_entropies=(1.0, 0.9932367844349391, 0.993236784434939, 1.0))
    out = env._inject(Circuit(5), record)
    assert [g.qubits for g in out.gates] == [(1,), (1, 2)]


def test_inject_needs_two_gate_budget():
    env = CircuitEnv(exact_cfg(max_gates=6))
    env.reset(ghz(5), seed=0)  # 5 gates, budget 1
    a = env.catalog[_action_id(env.catalog, "inject")]
    assert env.apply_action(env.circuit, a) is None


def test_boost_adds_cz_on_weak_bonds():
    env = CircuitEnv(exact_cfg())
    c = ghz(3)
    env.reset(Circuit(5, c.gates), seed=0)
    a = env.catalog[_action_id(env.catalog, "boost")]
    out = env.apply_action(env.circuit, a)
    added = out.gates[len(env.circuit):]
    # bonds 3 and 4 sit below the 0.7 threshold
    assert [(g.kind, g.qubits) for g in added] == [
        (GateKind.CZ, (2, 3)), (GateKind.CZ, (3, 4))]
    # fully entangled circuit has nothing to boost
    env2 = CircuitEnv(exact_cfg())
    env2.reset(ghz(5), seed=0)
    assert env2.apply_action(env2.circuit, a) is None


def test_valid_mask_agrees_with_apply_action():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    mask = env.valid_mask()
    for i, a in enumerate(env.catalog):
        assert mask[i] == (env.apply_action(env.circuit, a) is not None)



def _reference_mask(env):
    """Each action's rule, checked by a scan of the circuit for that action
    alone."""
    c = env.circuit
    left = env.cfg.max_gates - len(c)

    def last(qubit, one_qubit_only=False):
        for i in range(len(c) - 1, -1, -1):
            g = c.gates[i]
            if qubit in g.qubits and (g.kind.n_qubits == 1 or not one_qubit_only):
                return i
        return None

    bonds = metrics.bell_unit_entropies(env.record.bond_entropies)
    weak = [s for s in bonds if s < env.threshold]
    mask = []
    for a in env.catalog:
        if a.name.startswith("add_"):
            ok = left >= 1
        elif a.name == "remove_last":
            ok = last(a.qubit) is not None
        elif a.name == "swap_last_pair":
            i = last(a.qubit)
            ok = i is not None and i > 0 and not set(c.gates[i].qubits) & set(c.gates[i - 1].qubits)
        elif a.name == "replace_last":
            i = last(a.qubit, one_qubit_only=True)
            ok = i is not None and c.gates[i].kind is not GateKind.H
        elif a.name == "cancel_pass":
            ok = True
        elif a.name == "inject":
            ok = left >= 2
        else:  # boost
            ok = bool(weak) and left >= len(weak)
        mask.append(ok)
    return np.array(mask)


@pytest.mark.parametrize("seed", range(6))
def test_valid_mask_matches_a_per_action_scan(seed):
    rng = np.random.default_rng(seed)
    env = CircuitEnv(exact_cfg(max_gates=12))
    for n_gates in (0, 1, 2, 7, 11, 12):  # the empty circuit through a full budget
        env.reset(random_circuit(5, n_gates, rng), seed=seed)
        mask = env.valid_mask()
        assert np.array_equal(mask, _reference_mask(env)), n_gates
        for i, a in enumerate(env.catalog):
            assert mask[i] == (env.apply_action(env.circuit, a) is not None), a


# --- step dynamics --------------------------------------------------------

def test_reset_validation():
    env = CircuitEnv(exact_cfg())
    with pytest.raises(EnvError):
        env.step(0)  # before reset
    with pytest.raises(EnvError):
        env.reset(ghz(3), seed=0)  # wrong width
    with pytest.raises(EnvError):
        CircuitEnv(exact_cfg(max_gates=3)).reset(ghz(5), seed=0)  # over budget


def test_step_rejects_bad_action_id():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    with pytest.raises(EnvError):
        env.step(len(env.catalog))


def test_invalid_action_penalty_leaves_circuit_alone():
    env = CircuitEnv(exact_cfg(max_gates=5, entanglement_threshold=0.0))
    env.reset(ghz(5), seed=0)
    before = env.circuit
    add = _action_id(env.catalog, "add_h", qubit=0)
    obs, r, done, info = env.step(add)  # budget exhausted
    assert r == INVALID_PENALTY
    assert info["invalid"] and not info["injected"]
    assert env.circuit == before


def test_step_reward_telescopes_to_objective():
    env = CircuitEnv(exact_cfg(max_steps_per_episode=12))
    env.reset(ghz(5), seed=7)
    rng = np.random.default_rng(0)
    total = 0.0
    done = False
    while not done:
        valid = np.flatnonzero(env.valid_mask())
        obs, r, done, info = env.step(int(valid[rng.integers(valid.size)]))
        total += r
    # with no invalid moves the return equals the final objective exactly
    assert total == pytest.approx(info["objective"], abs=1e-12)


def test_auto_injection_fires_below_threshold():
    env = CircuitEnv(exact_cfg())
    env.reset(ghz(5), seed=0)
    # dropping the last cx strands q4 and pushes entropy below threshold
    rm = _action_id(env.catalog, "remove_last", qubit=4)
    obs, r, done, info = env.step(rm)
    assert info["injected"]
    # injection appended h + cx beyond the plain removal
    assert len(env.circuit) == 4 + 2
    assert env.circuit.gates[-1].kind is GateKind.CX


def test_injecting_step_runs_one_qfi_on_the_kept_circuit(monkeypatch):
    # sampled QFI, so the record depends on the seed it is drawn with
    env = CircuitEnv(exact_cfg(shots=64))
    env.reset(ghz(5).rx(0, 0.7), seed=3)
    calls = []
    qfi = metrics.qfi
    monkeypatch.setattr(metrics, "qfi", lambda *a, **k: calls.append(a[0]) or qfi(*a, **k))
    _, _, _, info = env.step(_action_id(env.catalog, "remove_last", qubit=4))
    assert info["injected"]
    assert calls == [env.circuit]
    # reset spawned child 0; the step's edit and its injection children 1 and 2
    seed = np.random.SeedSequence(3).spawn(3)[2]
    assert info["record"] == evaluate(env.circuit, SV, 64, None, seed)


def test_no_injection_when_disabled_by_threshold():
    env = CircuitEnv(exact_cfg(entanglement_threshold=0.0))
    env.reset(ghz(5), seed=0)
    rm = _action_id(env.catalog, "remove_last", qubit=4)
    obs, r, done, info = env.step(rm)
    assert not info["injected"]
    assert len(env.circuit) == 4


def test_episode_terminates_at_step_cap():
    env = CircuitEnv(exact_cfg(max_steps_per_episode=3))
    env.reset(ghz(5), seed=0)
    add = _action_id(env.catalog, "add_h", qubit=2)
    for expect_done in (False, False, True):
        _, _, done, _ = env.step(add)
        assert done == expect_done


def test_adjust_threshold_moves_and_clamps():
    env = CircuitEnv(exact_cfg(entanglement_threshold=0.9))
    env.reset(ghz(5), seed=0)  # episode entropy 0.75
    t = env.adjust_threshold()
    assert t == pytest.approx(0.9 * 0.9 + 0.1 * 0.75)
    # repeated updates with zero-entropy episodes hit the floor
    env.threshold = 0.51
    env._episode_entropies = [0.0]
    assert env.adjust_threshold() == 0.5
    env.threshold = 0.95
    env._episode_entropies = [1.0]
    assert env.adjust_threshold() == 0.95


def test_rollout_is_deterministic_given_seed():
    def rollout():
        env = CircuitEnv(exact_cfg(shots=200, backend=BackendSpec(kind="mps")))
        obs = env.reset(ghz(5), seed=3)
        rng = np.random.default_rng(1)
        rewards = []
        done = False
        while not done:
            valid = np.flatnonzero(env.valid_mask())
            _, r, done, _ = env.step(int(valid[rng.integers(valid.size)]))
            rewards.append(r)
        return rewards

    assert rollout() == rollout()


def test_appending_edits_extend_the_rows_and_other_edits_rebuild_them():
    env = CircuitEnv(exact_cfg(entanglement_threshold=0.0))
    env.reset(ghz(5).rx(0, 0.7), seed=1)
    assert (env.extended_evaluations, env.evaluations) == (0, 1)  # a reset builds
    steps = [("add_rx", dict(qubit=2, angle=math.pi / 4), True),
             ("inject", {}, True),
             ("cancel_pass", {}, True),  # cancels nothing
             ("remove_last", dict(qubit=4), False),
             ("add_cz", dict(pair=(3, 4)), True),
             ("add_cz", dict(pair=(3, 4)), True),
             ("cancel_pass", {}, False),  # cancels the cz pair
             ("replace_last", dict(qubit=2), False)]
    for name, fields, extends in steps:
        before = env.extended_evaluations
        _, _, _, info = env.step(_action_id(env.catalog, name, **fields))
        assert not info["invalid"]
        assert env.extended_evaluations - before == extends, name
        assert env._rows.circuit == env.circuit
    assert (env.extended_evaluations, env.evaluations) == (5, 1 + len(steps))
    # an invalid action evaluates nothing
    env.reset(Circuit(5), seed=1)
    state = env._rows.state
    _, _, _, info = env.step(_action_id(env.catalog, "remove_last", qubit=0))
    assert info["invalid"] and env._rows.state is state and env.evaluations == 10
