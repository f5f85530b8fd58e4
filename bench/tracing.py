"""Span tracing around each layer's public functions, from outside the program.

The tracer replaces every public function named in LAYERS with a wrapper,
in every ``qengines`` module that holds a reference to it, so calls made
inside the library are seen as well.  Each call becomes a span (name,
start, end, parent span, op id) kept in flat in-memory arrays and written
out when the run ends; counts are taken in the same wrappers.  Per-layer
numbers are derived from the spans afterwards.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "qengines"
LAYERS = {
    "sim": ("run_circuit", "apply_gate", "probabilities"),
    "qhash": ("build_hash_circuit", "hash_bits", "hash_batch"),
    "metrics": ("evaluate_batch", "avalanche_score", "bucket_histogram",
                "chi_squared_p", "collision_rate"),
    "qaes": ("encrypt", "decrypt", "sub_bytes", "mix_chunk", "shift_chunk",
             "validate_seed", "keygen"),
    "codec": ("read_pbm", "write_pbm", "seed_from_json", "cipher_to_json",
              "cipher_from_json", "image_to_bits", "bits_to_image"),
    "cli": ("main",),
}

# Gate kind and register width pairs the workloads apply: hashing uses
# RX/H/CX at 4 and 8 qubits, the cipher's mixing gates X/CX/CCX/SWAP at 4.
GATE_PAIRS = (("RX", 4), ("RX", 8), ("H", 4), ("H", 8), ("CX", 4), ("CX", 8),
              ("X", 4), ("CCX", 4), ("SWAP", 4))

_FULL = ("calls", "busy_s", "self_s")
_SETUP_ONLY = {"qaes.keygen"}


def _per_layer_spec() -> list[tuple[str, str]]:
    spec: list[tuple[str, str]] = []

    def add(fn: str, kinds=_FULL) -> None:
        per = "" if fn in _SETUP_ONLY else "/op"
        for kind in kinds:
            spec.append((f"{fn}.{kind}", ("count" if kind == "calls" else "s") + per))

    add("sim.run_circuit")
    for kind, n in GATE_PAIRS:
        add(f"sim.apply_gate.{kind}.n{n}", ("calls", "busy_s"))
    add("sim.probabilities")
    for fn in LAYERS["qhash"]:
        add(f"qhash.{fn}")
    add("metrics.evaluate_batch")
    for fn in LAYERS["metrics"][1:]:
        add(f"metrics.{fn}", ("busy_s",))
    spec += [("metrics.hash_calls", "count/op"), ("metrics.hash_useful_ratio", "ratio")]
    for fn in LAYERS["qaes"]:
        add(f"qaes.{fn}")
    spec.append(("qaes.sim_calls_per_chunk", "count/chunk"))
    for fn in LAYERS["codec"]:
        add(f"codec.{fn}", ("busy_s",))
    spec.append(("codec.bytes", "B/op"))
    add("cli.main")
    spec.append(("trace.overhead_pct", "%"))
    return spec


PER_LAYER = _per_layer_spec()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Wraps the layer functions of the imported ``qengines`` package."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts = {"chunks": 0, "bytes": 0, "hash_calls": 0, "distinct_pairs": 0}
        self.cycle_pairs: set = set()
        self._patches: list = []

    def intern(self, label: str) -> int:
        if label not in self.ids:
            self.ids[label] = len(self.names)
            self.names.append(label)
        return self.ids[label]

    def end_cycle(self) -> None:
        """Close a cycle of ops: its distinct (config, input) pairs are counted."""
        self.counts["distinct_pairs"] += len(self.cycle_pairs)
        self.cycle_pairs.clear()

    def _hooks(self) -> dict:
        counts = self.counts

        def hash_bits(args, kwargs, result):
            counts["hash_calls"] += 1
            self.cycle_pairs.add((_arg(args, kwargs, 1, "cfg"),
                                  _arg(args, kwargs, 0, "input_bits")))

        def encrypt_chunks(args, kwargs, result):
            counts["chunks"] += -(-len(_arg(args, kwargs, 0, "bits")) // 4)

        def decrypt_chunks(args, kwargs, result):
            counts["chunks"] += len(_arg(args, kwargs, 0, "ct").bits) // 4

        def bytes_in(args, kwargs, result):
            # read_pbm, seed_from_json and cipher_from_json take one argument.
            (document,) = args or tuple(kwargs.values())
            counts["bytes"] += len(document)

        def bytes_out(args, kwargs, result):
            counts["bytes"] += len(result)

        return {
            "qhash.hash_bits": hash_bits,
            "qaes.encrypt": encrypt_chunks,
            "qaes.decrypt": decrypt_chunks,
            "codec.read_pbm": bytes_in,
            "codec.seed_from_json": bytes_in,
            "codec.cipher_from_json": bytes_in,
            "codec.write_pbm": bytes_out,
            "codec.cipher_to_json": bytes_out,
        }

    def _wrap(self, fn, label: str, hook):
        start, end, parent, op, name, stack = (
            self.start, self.end, self.parent, self.op, self.name, self.stack)
        tracer = self
        if label == "sim.apply_gate":
            gate_ids: dict = {}

            def name_of(args, kwargs):
                s, g = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "g")
                key = (g.kind, s.n_qubits)
                if key not in gate_ids:
                    gate_ids[key] = tracer.intern(f"{label}.{key[0]}.n{key[1]}")
                return gate_ids[key]
        else:
            fixed = self.intern(label)

            def name_of(args, kwargs):
                return fixed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            name.append(name_of(args, kwargs))
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None and tracer.op_id >= 0:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each layer function wherever a qengines module refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        hooks = self._hooks()
        for layer, functions in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                label = f"{layer}.{fn_name}"
                wrapper = self._wrap(original, label, hooks.get(label))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Write every span, with the name table, as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Per-span duration and self time (duration minus its children's spans).

    Spans come from one thread, so a parent's children never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur, dur - covered


def aggregate(names: list[str], spans: dict, ops: np.ndarray,
              scales: np.ndarray | None = None) -> dict:
    """calls, busy and self seconds per span name over spans whose op is in ``ops``.

    With ``scales`` (one per op in ``ops``, in order) each span's times are
    multiplied by its op's scale, which turns wall into reference seconds.
    """
    dur, own = self_times(spans["parent"], spans["start"], spans["end"])
    sel = np.isin(spans["op"], ops)
    if scales is not None:
        factor = np.zeros(int(ops.max()) + 1)
        factor[ops] = scales
        span_scale = factor[spans["op"][sel]]
        dur, own = dur[sel] * span_scale, own[sel] * span_scale
    else:
        dur, own = dur[sel], own[sel]
    ids = spans["name"][sel]
    size = len(names)
    calls = np.bincount(ids, minlength=size)
    busy = np.bincount(ids, weights=dur, minlength=size)
    self_s = np.bincount(ids, weights=own, minlength=size)
    return {n: (int(calls[i]), float(busy[i]), float(self_s[i]))
            for i, n in enumerate(names) if calls[i]}


def _under(spans: dict, ids: list[int]) -> np.ndarray:
    """Mask of spans that are, or descend from, a span named by ``ids``."""
    parent = spans["parent"]
    mask = np.isin(spans["name"], ids)
    has_parent = parent >= 0
    while True:
        grown = mask.copy()
        grown[has_parent] |= mask[parent[has_parent]]
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def layer_metrics(tracer: Tracer, traced_ops: list[int], scales: list[float],
                  overhead_pct: float) -> dict:
    """Every PER_LAYER metric over the traced ops.

    Per-op metrics are divided by the number of traced ops, and their
    times are reference seconds: each op's spans are scaled by the op's
    entry in ``scales``.  qaes.keygen runs only in set-up, so its figures
    are set-up totals in wall seconds.  Layers a workload never calls
    report 0.
    """
    spans = tracer.arrays()
    ops = np.array(traced_ops)
    n_ops = len(traced_ops)
    per_op = aggregate(tracer.names, spans, ops, np.array(scales))
    setup = aggregate(tracer.names, spans, np.array([-1]))
    counts = tracer.counts
    cipher = [tracer.ids[n] for n in ("qaes.encrypt", "qaes.decrypt")
              if n in tracer.ids]
    sim_calls = 0
    if cipher and "sim.run_circuit" in tracer.ids:
        run = spans["name"] == tracer.ids["sim.run_circuit"]
        sim_calls = int((run & _under(spans, cipher) & np.isin(spans["op"], ops)).sum())
    derived = {
        "metrics.hash_calls": counts["hash_calls"] / n_ops,
        "metrics.hash_useful_ratio": (counts["distinct_pairs"] / counts["hash_calls"]
                                      if counts["hash_calls"] else 0.0),
        "qaes.sim_calls_per_chunk": (sim_calls / counts["chunks"]
                                     if counts["chunks"] else 0.0),
        "codec.bytes": counts["bytes"] / n_ops,
        "trace.overhead_pct": overhead_pct,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        else:
            fn, kind = metric.rsplit(".", 1)
            column = ("calls", "busy_s", "self_s").index(kind)
            if fn in _SETUP_ONLY:
                value = setup.get(fn, (0, 0.0, 0.0))[column]
            else:
                value = per_op.get(fn, (0, 0.0, 0.0))[column] / n_ops
        out[metric] = {"value": value, "unit": unit}
    return out


def unlisted_spans(tracer: Tracer) -> list[str]:
    """Span names seen in the run that no PER_LAYER metric reports."""
    listed = {m.rsplit(".", 1)[0] for m, _ in PER_LAYER}
    return sorted(set(tracer.names) - listed)
