"""Spans and counts recorded around qsopt's public layer functions, from outside.

`install()` replaces each traced function with a wrapper at every name its
callers look it up by (`metrics.sample_counts` as well as
`noise.sample_counts`), so qsopt itself is unchanged. A wrapper records a
span (name, start, end, parent span, step id) in memory; every span of one
env step shares the step id, which advances when the agent selects an
action or the env resets. `Tracer.dump` writes the spans once the run is
over, and `layer_metrics` turns a dump into the per-layer metrics.

Only public functions can be wrapped, so a few counts are computed from
arguments instead of recorded: MPS two-site updates from the qubit
distance of each two-qubit gate, statevector bytes and network FLOPs from
array shapes.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# bytes of one complex128 amplitude, read once and written once per gate
AMP_TOUCH_BYTES = 16 * 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index, step id)
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.step = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, *, new_step=False, on_return=None):
        """A traced stand-in for `fn` that records one span per call."""
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if new_step:
                self.step += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.step)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, float("-inf")):
            self.peaks[name] = value

    def dump(self, path) -> None:
        """Write spans, counts and peaks as one JSON document."""
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        doc = {"names": self.names,
               "name": cols[0], "start": cols[1], "end": cols[2],
               "parent": cols[3], "step": cols[4],
               "counts": dict(self.counts), "peaks": self.peaks}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _counting(fn, on_call):
    """A stand-in for `fn` that records no span: `on_call(args)` runs first."""
    def counted(*args, **kwargs):
        on_call(args)
        return fn(*args, **kwargs)

    return counted


def _patch(sites, wrapper) -> None:
    original = getattr(*sites[0])
    for owner, attr in sites:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} is not the function traced "
                               f"at {sites[0][0].__name__}.{sites[0][1]}")
        setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced qsopt function; qsopt.cli must already be imported."""
    from qsopt import backend, circuit, cli, env, metrics, mps, noise, statevector
    from qsopt.ddqn import agent, nn

    def span(name, *sites, **kw):
        _patch(sites, tracer.wrap(name, getattr(*sites[0]), **kw))

    def count(*sites, on_call):
        _patch(sites, _counting(getattr(*sites[0]), on_call))

    c = tracer.counts

    def tally(key):
        return lambda _args: c.update((key,))

    # cli: cmd_train's own time is creating the output dir and writing outputs
    span("cli.load_run_config", (cli, "load_run_config"))
    span("cli.write_outputs", (cli, "cmd_train"))
    span("agent.train", (cli, "train"), (agent, "train"))

    # ddqn.agent
    span("agent.select_action", (agent, "select_action"), new_step=True)
    span("agent.train_step", (agent, "train_step"))
    span("agent.td_targets", (agent, "td_targets"))
    span("agent.replay_push", (agent.ReplayBuffer, "push"))
    span("agent.replay_sample", (agent.ReplayBuffer, "sample"))

    # ddqn.nn: matmul FLOPs (2 per multiply-add) from the net's shapes
    def flops(net, backward=False):
        h, w, ch = net.grid_shape
        c1, c2, hidden = net.widths
        conv1 = 2 * h * w * 9 * ch * c1
        conv2 = 2 * h * w * 9 * c1 * c2
        dense = 2 * (h * w * c2 + net.aux_dim) * hidden
        heads = 2 * hidden * (net.n_actions + 1)
        if backward:  # weight and input gradients; no input gradient for conv1
            return conv1 + 2 * (conv2 + dense + heads)
        return conv1 + conv2 + dense + heads

    def forward_flops(args, _out):
        c["nn.flops_computed"] += flops(args[0]) * len(args[1])

    def backward_flops(args, _out):
        c["nn.flops_computed"] += flops(args[0], backward=True) * len(args[2])

    span("nn.forward", (nn.QNet, "forward"), on_return=forward_flops)
    span("nn.forward_cached", (nn.QNet, "forward_cached"), on_return=forward_flops)
    span("nn.backward", (nn.QNet, "backward"), on_return=backward_flops)
    span("nn.adam", (nn.Adam, "step"))

    # env
    def step_outcome(_args, out):
        info = out[3]
        c["env.valid"] += not info["invalid"]
        c["env.injections"] += bool(info["injected"])

    span("env.reset", (env.CircuitEnv, "reset"), new_step=True)
    span("env.step", (env.CircuitEnv, "step"), on_return=step_outcome)
    span("env.valid_mask", (env.CircuitEnv, "valid_mask"))
    span("env.encode", (env, "encode"))

    # metrics
    span("metrics.evaluate", (metrics, "evaluate"))
    span("metrics.qfi", (metrics, "qfi"))
    count((metrics, "shift_angle"), on_call=tally("metrics.shifted_sims"))

    # backend
    span("backend.run", (backend.BackendSpec, "run"))
    span("backend.fresh", (backend.BackendSpec, "fresh"))

    # noise
    span("noise.sample_counts", (metrics, "sample_counts"), (noise, "sample_counts"))
    span("noise.trajectory", (noise, "run_one_trajectory"))

    # circuit
    span("circuit.moments", (circuit, "moments"), (env, "moments"), (noise, "moments"))
    count((env, "cancel_pairs"), on_call=tally("circuit.cancel_pairs"))

    # statevector
    def dense_bytes(args, _out):
        c["statevector.bytes_computed"] += AMP_TOUCH_BYTES << args[0].n_qubits

    D = statevector.DenseState
    span("statevector.apply_gate", (D, "apply_gate"), on_return=dense_bytes)
    span("statevector.apply_pauli", (D, "apply_pauli"), on_return=dense_bytes)
    span("statevector.run", (D, "run"))
    span("statevector.distribution", (D, "distribution"))
    span("statevector.sample", (D, "sample"))
    span("statevector.measure_once", (D, "measure_once"))
    span("statevector.measure_reset0", (D, "measure_reset0"))
    span("statevector.bond_entropies", (D, "bond_entropies"))

    # mps: each two-qubit gate costs 2*|qa-qb| - 1 two-site SVD updates,
    # all but one of them routing SWAPs
    def two_site(args):
        distance = abs(args[2] - args[3])
        c["mps.two_site_updates"] += 2 * distance - 1
        c["mps.routing_updates"] += 2 * distance - 2

    def mps_peaks(_args, state):
        tracer.peak("mps.peak_bond", state.max_bond_seen)
        tracer.peak("mps.discarded_weight", state.total_discarded)

    M = mps.MpsState
    span("mps.apply_gate", (M, "apply_gate"))
    span("mps.apply_pauli", (M, "apply_pauli"))
    count((M, "apply_unitary_2q"), on_call=two_site)
    span("mps.run", (M, "run"), on_return=mps_peaks)
    span("mps.sample", (M, "sample"))
    span("mps.measure_reset0", (M, "measure_reset0"))
    span("mps.bond_entropies", (M, "bond_entropies"))


# --- per-layer metrics from a dump --------------------------------------------

# module of each span-name prefix, for the self-time shares
LAYER_OF = {"cli": "cli", "agent": "ddqn", "nn": "ddqn", "env": "env",
            "metrics": "metrics", "backend": "backend", "noise": "noise",
            "circuit": "circuit", "statevector": "statevector", "mps": "mps"}

# name -> (unit, parts summed): a ".self_s" metric sums the self time of
# the spans named; any other sums counters, peaks or numbers of spans
PER_LAYER = {
    "nn.forward.calls": ("count", ["nn.forward"]),
    "nn.forward.self_s": ("s", ["nn.forward"]),
    "nn.forward_cached.self_s": ("s", ["nn.forward_cached"]),
    "nn.backward.self_s": ("s", ["nn.backward"]),
    "nn.adam.self_s": ("s", ["nn.adam"]),
    "nn.flops_computed": ("flop", ["nn.flops_computed"]),
    "agent.train_steps": ("count", ["agent.train_step"]),
    "agent.train_step.self_s": ("s", ["agent.train_step"]),
    "agent.td_targets.self_s": ("s", ["agent.td_targets"]),
    "agent.replay_sample.self_s": ("s", ["agent.replay_sample"]),
    "agent.replay_push.self_s": ("s", ["agent.replay_push"]),
    "agent.select_action.self_s": ("s", ["agent.select_action"]),
    "statevector.gates": ("count", ["statevector.apply_gate", "statevector.apply_pauli"]),
    "statevector.apply_gate.self_s": ("s", ["statevector.apply_gate",
                                            "statevector.apply_pauli"]),
    "statevector.runs": ("count", ["statevector.run"]),
    "statevector.distribution.self_s": ("s", ["statevector.distribution"]),
    "statevector.sample.self_s": ("s", ["statevector.sample", "statevector.measure_once"]),
    "statevector.collapses": ("count", ["statevector.measure_once",
                                        "statevector.measure_reset0"]),
    "statevector.bytes_computed": ("B", ["statevector.bytes_computed"]),
    "noise.sample_counts.calls": ("count", ["noise.sample_counts"]),
    "noise.trajectories": ("count", ["noise.trajectory"]),
    "noise.trajectory.self_s": ("s", ["noise.trajectory"]),
    "noise.events": ("count", ["statevector.apply_pauli", "statevector.measure_reset0",
                               "mps.apply_pauli", "mps.measure_reset0"]),
    "noise.resets": ("count", ["statevector.measure_reset0", "mps.measure_reset0"]),
    "mps.gates": ("count", ["mps.apply_gate", "mps.apply_pauli"]),
    "mps.apply_gate.self_s": ("s", ["mps.apply_gate", "mps.apply_pauli"]),
    "mps.two_site_updates": ("count", ["mps.two_site_updates"]),
    "mps.sample.self_s": ("s", ["mps.sample"]),
    "mps.bond_entropies.self_s": ("s", ["mps.bond_entropies"]),
    "mps.peak_bond": ("count", ["mps.peak_bond"]),
    "mps.discarded_weight": ("share", ["mps.discarded_weight"]),
    "metrics.evaluate.calls": ("count", ["metrics.evaluate"]),
    "metrics.evaluate.self_s": ("s", ["metrics.evaluate"]),
    "metrics.qfi.calls": ("count", ["metrics.qfi"]),
    "metrics.qfi.self_s": ("s", ["metrics.qfi"]),
    "metrics.shifted_sims": ("count", ["metrics.shifted_sims"]),
    "backend.run.calls": ("count", ["backend.run"]),
    "backend.fresh.calls": ("count", ["backend.fresh"]),
    "circuit.moments.calls": ("count", ["circuit.moments"]),
    "circuit.moments.self_s": ("s", ["circuit.moments"]),
    "circuit.cancel_pairs.calls": ("count", ["circuit.cancel_pairs"]),
    "env.steps": ("count", ["env.step"]),
    "env.step.self_s": ("s", ["env.step"]),
    "env.valid_mask.self_s": ("s", ["env.valid_mask"]),
    "env.encode.self_s": ("s", ["env.encode"]),
    "env.injections": ("count", ["env.injections"]),
    "cli.load_run_config.self_s": ("s", ["cli.load_run_config"]),
    "cli.write_outputs.self_s": ("s", ["cli.write_outputs"]),
}
# ratios, computed from the entries above or from counters
RATIOS = {
    "mps.routing_share": ("mps.routing_updates", "mps.two_site_updates"),
    "env.valid_share": ("env.valid", "env.step"),
}


def layer_metrics(doc: dict) -> tuple[dict, dict, dict]:
    """Per-layer values of one traced run: (metrics, exact counts, each
    module's share of the summed self time).

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it because the run is single-threaded.
    """
    names = doc["names"]
    n = len(names)
    calls = [0] * n
    self_s = [0.0] * n
    child_s = [0.0] * len(doc["name"])
    for t0, t1, parent in zip(doc["start"], doc["end"], doc["parent"]):
        if parent >= 0:
            child_s[parent] += t1 - t0
    for i, (nid, t0, t1) in enumerate(zip(doc["name"], doc["start"], doc["end"])):
        calls[nid] += 1
        self_s[nid] += (t1 - t0) - child_s[i]
    calls_of = dict(zip(names, calls))
    self_of = dict(zip(names, self_s))
    counters = {**doc["counts"], **doc["peaks"], **calls_of}

    out, exact = {}, {}
    for metric, (unit, parts) in PER_LAYER.items():
        if metric.endswith(".self_s"):
            out[metric] = {"value": sum(self_of.get(p, 0.0) for p in parts), "unit": unit}
            continue
        value = sum(counters.get(p, 0) for p in parts)
        out[metric] = {"value": value, "unit": unit}
        exact[metric] = value
    for metric, (num, den) in RATIOS.items():
        d = counters.get(den, 0)
        out[metric] = {"value": counters.get(num, 0) / d if d else 0.0, "unit": "share"}
        exact[metric] = out[metric]["value"]
    total = sum(self_s)
    shares = {layer: sum(s for name, s in self_of.items()
                         if LAYER_OF[name.split(".")[0]] == layer) / total
              for layer in dict.fromkeys(LAYER_OF.values())}
    return out, exact, shares
