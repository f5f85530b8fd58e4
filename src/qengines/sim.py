"""Dense statevector simulator for small qubit registers.

Qubit 0 is the least significant bit of a basis-state index, so the basis
state |q3 q2 q1 q0> = |1001> of a 4-qubit register has index 9.  Measured
bitstrings are printed most-significant qubit first.  Registers are capped
at 8 qubits; everything is kept as a dense complex128 vector.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 8
UNITARY_MAX_QUBITS = 5

GATE_ARITY = {"X": 1, "H": 1, "RX": 1, "CX": 2, "SWAP": 2, "CCX": 3}


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.setflags(write=False)
    return m


_X = _frozen([[0.0, 1.0], [1.0, 0.0]])
_PAULIS = (_X, _frozen([[0.0, -1.0j], [1.0j, 0.0]]),
           _frozen([[1.0, 0.0], [0.0, -1.0]]))
# The matrices of the angle-free gates, first listed qubit most significant.
_FIXED_GATES = {
    "X": _X,
    "H": _frozen(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)),
    "CX": _frozen(np.eye(4)[[0, 1, 3, 2]]),
    "SWAP": _frozen(np.eye(4)[[0, 2, 1, 3]]),
    "CCX": _frozen(np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]),
}


def _rx(theta: float) -> np.ndarray:
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return _frozen([[c, -1.0j * s], [-1.0j * s, c]])


def _bounded(value, name: str, lo, hi):
    # Inclusive bounds; hi is only ever given together with lo.
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {_short(value)}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be >= {lo}, got {_short(value)}")
    return value


def _short(value) -> str:
    # An int past 64 bits is named by its size, never printed in full (past
    # 4300 digits Python refuses to print it at all).
    if type(value) is not int or value.bit_length() <= 64:
        return str(value)
    return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


def _integer(value: object, name: str, lo: int | None = None,
             hi: int | None = None) -> int:
    """Return an integer argument as a plain int, or raise ValueError.

    NumPy ints pass, bools and floats do not; lo and hi are inclusive bounds.
    """
    if type(value) is not int and not isinstance(value, np.integer):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _bounded(int(value), name, lo, hi)


def _real(value: object, name: str, lo: float | None = None,
          hi: float | None = None) -> float:
    """Return a real argument as a plain finite float, or raise ValueError.

    NumPy ints and floats pass; bools, strings, None, NaN and infinities do
    not; lo and hi are inclusive bounds.
    """
    if type(value) is bool or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a Python int past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return _bounded(value, name, lo, hi)


_NOT_BITS = str.maketrans("", "", "01")  # deletes 0 and 1, leaving the bad characters


def _bits(value: object, name: str) -> str:
    """Return a str over {"0", "1"}, empty allowed, or raise ValueError naming
    the first other character and its index, never the whole string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string of 0/1, got {type(value).__name__}")
    if bad := value.translate(_NOT_BITS):
        i = value.index(bad[0])
        raise ValueError(f"{name} must contain only 0/1, got {bad[0]!r} at index {i}")
    return value


_DECIMAL = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _decimal(text: str, name: str) -> int | float:
    """Read ASCII decimal text: an int if digits only (after an optional -), else
    a float; kind and range are left to _integer and _real."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{name} must be a decimal number, got {text!r}")
    if not text.lstrip("-").isdigit():
        return float(text)
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on int() digits
        raise ValueError(f"{name} has too many digits: {len(text.lstrip('-'))}") from None


@dataclass(frozen=True)
class GateOp:
    """One named gate: kind, qubit indices (controls first), optional angle."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(_integer(q, "qubit", 0) for q in self.qubits))
        arity = GATE_ARITY[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(
                f"{self.kind} takes {arity} qubit(s), got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if self.kind == "RX":
            object.__setattr__(self, "angle", _real(self.angle, "RX angle"))
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")


def x(q: int) -> GateOp:
    return GateOp("X", (q,))


def h(q: int) -> GateOp:
    return GateOp("H", (q,))


def rx(theta: float, q: int) -> GateOp:
    return GateOp("RX", (q,), angle=theta)


def cx(control: int, target: int) -> GateOp:
    return GateOp("CX", (control, target))


def ccx(control1: int, control2: int, target: int) -> GateOp:
    return GateOp("CCX", (control1, control2, target))


def swap(a: int, b: int) -> GateOp:
    return GateOp("SWAP", (a, b))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list acting on a fixed-size register."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self) -> None:
        n = _integer(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, GateOp):
                raise ValueError(f"not a GateOp: {op!r}")
            if max(op.qubits) >= self.n_qubits:
                raise ValueError(
                    f"{op.kind} on {op.qubits} does not fit {self.n_qubits} qubits"
                )


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing noise after each gate plus classical readout bit flips.

    depolarizing_p is the per-touched-qubit probability of a uniformly
    random Pauli after every gate; readout_flip_q flips each measured bit
    independently.
    """

    depolarizing_p: float = 0.0
    readout_flip_q: float = 0.0

    def __post_init__(self) -> None:
        for name in ("depolarizing_p", "readout_flip_q"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, 1))


def _noise_model(noise: object) -> NoiseModel:
    """Return a NoiseModel argument, or raise TypeError naming what came instead."""
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel, got {type(noise).__name__}")
    return noise


@dataclass
class StateVector:
    """2^n complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        self.n_qubits = _integer(self.n_qubits, "n_qubits", 1, MAX_QUBITS)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector must have length {1 << self.n_qubits}"
            )

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        dim = 1 << _integer(n_qubits, "n_qubits", 1, MAX_QUBITS)
        amps = np.zeros(dim, dtype=complex)
        amps[_integer(index, "basis index", 0, dim - 1)] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def gate_matrix(g: GateOp) -> np.ndarray:
    """Return the read-only unitary of a gate in its own 2^arity space.

    The first listed qubit is the most significant bit of the local index,
    so CX is the textbook block matrix diag(I, X).
    """
    if g.kind == "RX":
        return _rx(g.angle)
    return _FIXED_GATES[g.kind]


@functools.lru_cache(maxsize=None)
def _index_table(n_qubits: int, qubits: tuple[int, ...]) -> np.ndarray:
    """Basis indices as a (2^k, 2^(n-k)) table for a gate on k qubits.

    Row r holds the states whose gate qubits read r (first listed qubit
    most significant); column c fixes the other qubits, so each column is
    one 2^k-dimensional subspace the gate matrix acts on.
    """
    grid = np.arange(1 << n_qubits).reshape((2,) * n_qubits)  # axis j is qubit n-1-j
    front = [n_qubits - 1 - q for q in qubits]
    table = np.moveaxis(grid, front, range(len(qubits))).reshape(1 << len(qubits), -1)
    table.setflags(write=False)
    return table


def _apply_matrix(s: StateVector, mat: np.ndarray, qubits: tuple[int, ...]) -> None:
    # The one gate kernel: act on every 2^k subspace of the gate qubits at once.
    idx = _index_table(s.n_qubits, qubits)
    s.amplitudes[idx] = mat @ s.amplitudes[idx]


def apply_gate(s: StateVector, g: GateOp) -> StateVector:
    """Apply one gate in place and return the same register."""
    if max(g.qubits) >= s.n_qubits:
        raise ValueError(
            f"{g.kind} on {g.qubits} out of range for {s.n_qubits} qubits"
        )
    _apply_matrix(s, gate_matrix(g), g.qubits)
    return s


def _evolve(s: StateVector, ops) -> StateVector:
    # The one gate loop: apply each op, in order, in place.
    for op in ops:
        apply_gate(s, op)
    return s


def run_circuit(c: Circuit, initial: int = 0) -> StateVector:
    """Apply every op of the circuit, in order, to the basis state |initial>."""
    return _evolve(StateVector.basis(c.n_qubits, initial), c.ops)


def probabilities(s: StateVector) -> np.ndarray:
    """Measurement probabilities |a_i|^2 over all 2^n basis states."""
    return np.abs(s.amplitudes) ** 2


def _draw(probs: np.ndarray, shots: int, readout_flip_q: float,
          rng: np.random.Generator) -> np.ndarray:
    """Draw shot outcomes and flip each bit with probability readout_flip_q.

    Each shot takes one uniform for its outcome, read through the cumulative
    distribution, then one per bit for its flips even at q = 0, so the draws
    that follow do not depend on q.  It draws with rng.random alone, never
    Generator.choice, whose algorithm NumPy may change between releases.
    """
    n = (len(probs) - 1).bit_length()
    cdf = np.cumsum(probs / probs.sum())
    outcomes = (cdf / cdf[-1]).searchsorted(rng.random(shots), side="right")
    flips = rng.random((shots, n)) < readout_flip_q
    return outcomes ^ (flips @ (1 << np.arange(n)))


def _counts(outcomes: np.ndarray) -> dict[int, int]:
    """Outcome counts as {index: count}, nonzero entries only, index order."""
    return {int(i): int(v) for i, v in enumerate(np.bincount(outcomes)) if v > 0}


def sample(s: StateVector, shots: int, rng_seed: int) -> dict[int, int]:
    """Draw shot counts from the register's outcome distribution.

    Deterministic for a fixed rng_seed; the returned map contains only
    outcomes with nonzero counts and its values sum to shots.
    """
    shots = _integer(shots, "shots", 1)
    rng = np.random.default_rng(_integer(rng_seed, "rng_seed", 0))
    return _counts(_draw(probabilities(s), shots, 0.0, rng))


def _embed(mat: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Expand a 2^k gate matrix to the full 2^n space (verification path)."""
    k = len(qubits)
    dim = 1 << n_qubits
    idx = np.arange(dim)
    loc = np.zeros(dim, dtype=np.int64)
    cleared = idx.copy()
    for q in qubits:
        loc = (loc << 1) | ((idx >> q) & 1)
        cleared &= ~(1 << q)
    place = np.zeros(1 << k, dtype=np.int64)
    for lp in range(1 << k):
        v = 0
        for pos, q in enumerate(qubits):
            if (lp >> (k - 1 - pos)) & 1:
                v |= 1 << q
        place[lp] = v
    full = np.zeros((dim, dim), dtype=complex)
    rows = place[:, None] | cleared[None, :]
    full[rows, idx[None, :]] = mat[:, loc]
    return full


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2^n x 2^n matrix of the circuit, built gate by gate.

    This path multiplies explicitly embedded gate matrices and is kept
    independent of the in-place kernel so the two can cross-check each
    other.  Limited to 5 qubits.
    """
    if c.n_qubits > UNITARY_MAX_QUBITS:
        raise ValueError(
            f"unitary extraction supports at most {UNITARY_MAX_QUBITS} qubits, "
            f"got {c.n_qubits}"
        )
    u = np.eye(1 << c.n_qubits, dtype=complex)
    for op in c.ops:
        u = _embed(gate_matrix(op), op.qubits, c.n_qubits) @ u
    return u


def inverse_circuit(c: Circuit) -> Circuit:
    """Reverse the gate order; RX angles are negated, the rest self-invert."""
    return Circuit(c.n_qubits, tuple(rx(-op.angle, *op.qubits) if op.kind == "RX" else op
                                     for op in reversed(c.ops)))


def noisy_sample(c: Circuit, initial: int, shots: int, noise: NoiseModel,
                 rng_seed: int) -> dict[int, int]:
    """Sample a circuit under the parametric noise model.

    After every gate, every touched qubit suffers a uniformly random Pauli
    with probability depolarizing_p, so each shot is its own run; with p = 0
    one run_circuit serves every shot.  Each outcome then has each bit
    flipped with probability readout_flip_q.  Deterministic per rng_seed.
    """
    shots = _integer(shots, "shots", 1)
    _noise_model(noise)
    rng = np.random.default_rng(_integer(rng_seed, "rng_seed", 0))
    p, flip_q = noise.depolarizing_p, noise.readout_flip_q
    if p == 0.0:
        return _counts(_draw(probabilities(run_circuit(c, initial)), shots, flip_q, rng))
    outcomes = []
    for _ in range(shots):
        s = StateVector.basis(c.n_qubits, initial)
        for op in c.ops:
            apply_gate(s, op)
            for q in op.qubits:
                if rng.random() < p:
                    _apply_matrix(s, _PAULIS[rng.integers(0, 3)], (q,))
        outcomes.append(_draw(probabilities(s), 1, flip_q, rng))
    return _counts(np.concatenate(outcomes))


def format_bits(index: int, n_qubits: int) -> str:
    """Render a basis index as a bitstring, most significant qubit first."""
    return format(index, f"0{n_qubits}b")
