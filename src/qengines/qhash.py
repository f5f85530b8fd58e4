"""Bitstring hashing through small parameterized circuits.

An input bitstring is chopped into blocks of n_qubits bits.  Each block
becomes one encoding layer of RX rotations: bit value 1 selects the theta
angle, bit value 0 the phi angle, and bit j of a block lands on qubit
(n_qubits - 1 - j).  The first block uses (theta1, phi1), every later
block (theta2, phi2).  After each encoding layer the chosen template's
entangler block is appended.  The hash is the most likely measurement
outcome, printed most significant qubit first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    MAX_QUBITS,
    Circuit,
    GateOp,
    NoiseModel,
    StateVector,
    _bits,
    _evolve,
    _integer,
    _noise_model,
    _real,
    cx,
    format_bits,
    gate_matrix,
    h,
    noisy_sample,
    probabilities,
    rx,
)

TEMPLATES = ("PQC1", "PQC2", "PQC3", "PQC4", "PQC5")

MODE_EXACT = "exact"
MODE_SAMPLED = "sampled"

# Outcome weights this close to the maximum count as tied with it.
_TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class HashConfig:
    """Hashing parameters: template, width, encoding angles, execution mode."""

    template: str
    n_qubits: int = 4
    theta1: float = math.pi
    phi1: float = 0.0
    theta2: float = math.pi
    phi2: float = 0.0
    mode: str = MODE_EXACT
    shots: int = 1000
    rng_seed: int = 0
    noise: NoiseModel = NoiseModel()

    def __post_init__(self) -> None:
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown template {self.template!r}")
        # shots is only drawn from, and so only bounded, in sampled mode.
        for name, lo, hi in (("n_qubits", 1, MAX_QUBITS), ("rng_seed", 0, None),
                             ("shots", 1 if self.mode == MODE_SAMPLED else None, None)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo, hi))
        for name in ("theta1", "phi1", "theta2", "phi2"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if self.mode not in (MODE_EXACT, MODE_SAMPLED):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")
        _noise_model(self.noise)

    @functools.cached_property
    def _gates(self) -> tuple:
        # (RX gates [row][qubit][bit], entangler, first-block table), built on
        # the first hash, per object: a config equal to this one may hold a
        # -0.0 angle where this one holds 0.0, and rx keeps the sign.
        rows = tuple(tuple((rx(phi, q), rx(theta, q)) for q in range(self.n_qubits))
                     for theta, phi in ((self.theta1, self.phi1), (self.theta2, self.phi2)))
        entangler = tuple(entangler_ops(self.template, self.n_qubits))
        return rows, entangler, _first_block(rows[0], entangler, self.n_qubits)


def _first_block(row, entangler, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state after block 0 for every block value, as (hi, lo, inv).

    Block 0 acts on |0...0>, so after its RX layer, and PQC1's H layer, each
    qubit holds its own 2-vector and the state is their Kronecker product;
    the CX part of the entangler only permutes basis states.  hi[v] is that
    product over the top n - n // 2 qubits at their bit values v, lo[v] over
    the bottom n // 2, and inv is the inverse of the CX permutation, so block
    value b leaves the state outer(hi[b // len(lo)], lo[b % len(lo)]).ravel()[inv].
    """
    vectors = [np.array([gate_matrix(g)[:, 0] for g in gates]) for gates in row]  # [bit, amp]
    for op in entangler:
        if op.kind == "H":  # the entangler's H layer comes before its CX gates
            (q,) = op.qubits
            vectors[q] = vectors[q] @ gate_matrix(op).T

    def product(qubits: range) -> np.ndarray:
        table = np.ones((1, 1), dtype=complex)  # [value, amplitude], top qubit first
        for q in reversed(qubits):
            table = (table[:, None, :, None] * vectors[q][None, :, None, :]
                     ).reshape(2 * len(table), -1)
        return table

    inv = np.arange(1 << n)
    for op in reversed(entangler):  # each CX is its own inverse
        if op.kind == "CX":
            control, target = op.qubits
            inv ^= ((inv >> control) & 1) << target
    tables = product(range(n // 2, n)), product(range(n // 2)), inv
    for table in tables:  # shared by every hash of the config
        table.setflags(write=False)
    return tables


def to_bitstring(data: bytes | int, width: int) -> str:
    """Convert bytes or a non-negative integer to a fixed-width bitstring.

    Integers are rendered big-endian and left-padded with zeros; bytes are
    concatenated most significant bit first, then left-padded.  Values that
    do not fit in width bits raise ValueError.
    """
    width = _integer(width, "width", 1)
    if isinstance(data, (bytes, bytearray)):
        bits = "".join(format(b, "08b") for b in data)
        if len(bits) > width:
            raise ValueError(f"{len(data)} bytes do not fit in {width} bits")
        return bits.rjust(width, "0")
    value = _integer(data, "data", 0)
    if value.bit_length() > width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def entangler_ops(template: str, n_qubits: int) -> list[GateOp]:
    """The fixed gate block a template appends after each encoding layer.

    PQC1: a Hadamard on every qubit followed by a CX ring; PQC2: a CX
    chain; PQC3: CX between every qubit pair; PQC4: nothing (rotations
    only); PQC5: a CX ring followed by the reverse-direction ring.
    """
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}")
    n = n_qubits
    ops: list[GateOp] = []
    if template == "PQC1":
        ops += [h(q) for q in range(n)]
        if n >= 2:
            ops += [cx(i, (i + 1) % n) for i in range(n)]
    elif template == "PQC2":
        ops += [cx(i, i + 1) for i in range(n - 1)]
    elif template == "PQC3":
        ops += [cx(i, j) for i in range(n) for j in range(i + 1, n)]
    elif template == "PQC5" and n >= 2:
        ops += [cx(i, (i + 1) % n) for i in range(n)]
        ops += [cx(i, (i - 1) % n) for i in range(n)]
    return ops


def _block_ops(input_bits: str, cfg: HashConfig, first: int) -> list[GateOp]:
    # Check the input, zero-pad it on the right to whole blocks and return the
    # gates of its blocks from block `first` on: RX layer, then entangler.
    if not _bits(input_bits, "input bits"):
        raise ValueError("input bitstring is empty")
    n = cfg.n_qubits
    rows, entangler, _ = cfg._gates
    padded = input_bits + "0" * ((-len(input_bits)) % n)
    ops: list[GateOp] = []
    for k in range(first * n, len(padded), n):
        row = rows[k > 0]  # [qubit][bit]
        ops += [row[n - 1 - j][bit == "1"] for j, bit in enumerate(padded[k:k + n])]
        ops += entangler
    return ops


def build_hash_circuit(input_bits: str, cfg: HashConfig) -> Circuit:
    """Build the encoding circuit for a bitstring.

    The input is zero-padded on the right to a multiple of n_qubits and
    split into blocks; block k is one RX layer (angles from theta1/phi1
    for block 0, theta2/phi2 afterwards) followed by the template's
    entangler block.  The gates are the config's own, derived on its first
    hash, so a circuit is put together without building a gate.
    """
    return Circuit(cfg.n_qubits, tuple(_block_ops(input_bits, cfg, 0)))


def _exact_state(input_bits: str, cfg: HashConfig) -> StateVector:
    # Block 0 from the config's table, the later blocks through the gate kernel.
    n = cfg.n_qubits
    later = _block_ops(input_bits, cfg, 1)
    hi, lo, inv = cfg._gates[2]
    top, bottom = divmod(int(input_bits[:n].ljust(n, "0"), 2), len(lo))
    return _evolve(StateVector(n, np.outer(hi[top], lo[bottom]).ravel()[inv]), later)


def hash_bits(input_bits: str, cfg: HashConfig) -> str:
    """Hash a bitstring to an n_qubits-wide output.

    Each outcome is weighted by its probability in exact mode and by its
    noisy shot count in sampled mode.  The hash is the smallest basis index
    whose weight is within 1e-12 of the maximum, so ties break toward it
    and rounding noise does not pick the winner.

    Exact mode builds no circuit: the state after the first block is read
    from the config's first-block table (see _first_block), and only the
    later blocks run gates, through run_circuit's kernel.  Sampled mode
    samples build_hash_circuit's circuit.
    """
    if cfg.mode == MODE_EXACT:
        w = probabilities(_exact_state(input_bits, cfg))
    else:
        counts = noisy_sample(build_hash_circuit(input_bits, cfg), 0, cfg.shots,
                              cfg.noise, cfg.rng_seed)
        w = np.bincount(list(counts), weights=list(counts.values()))
    return format_bits(int((w >= w.max() - _TIE_TOLERANCE).argmax()), cfg.n_qubits)


def hash_batch(inputs: list[str], cfg: HashConfig) -> list[str]:
    """Hash a list of bitstrings, preserving order."""
    if not inputs or isinstance(inputs, str):
        raise ValueError("inputs must be a non-empty list of bitstrings")
    return [hash_bits(bits, cfg) for bits in inputs]
