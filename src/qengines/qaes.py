"""Single-round substitution / mixing / rotation cipher on 4-bit chunks.

The shared secret is a self-inverse 16-entry substitution table plus a
list of classical reversible gates (X, CX, CCX, SWAP) acting on a 4-qubit
register.  Encryption runs each chunk through SubBytes, then the gate
list, then a position-dependent left rotation.  The rotation's 4x16 rows,
one per chunk index mod 4, come from shift_chunk once at import.  Each
call derives the gates' action in one simulator run, on the 4 system
qubits of a maximally entangled 8-qubit state, composes it with sub_bytes
over the 16 chunk values, and reads the rotation rows at that composition.
Looking all chunks up is one gather; decryption gathers from the inverse
table, an argsort of each row.  There is no round key: whoever holds the
seed can decrypt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import (
    GATE_ARITY,
    Circuit,
    GateOp,
    StateVector,
    _bits,
    _integer,
    cx,
    h,
    probabilities,
    run_circuit,
)

CHUNK_BITS = 4
TABLE_SIZE = 1 << CHUNK_BITS

CLASSICAL_GATE_KINDS = frozenset({"X", "CX", "CCX", "SWAP"})

# The only seed format there is; keygen writes it and validate_seed requires it.
_SEED_VERSION = 1

# H on reference qubits 4-7, then CX from each onto chunk qubit 0-3: sum_v |v>|v> / 4.
_REFERENCE_PAIRS = (tuple(h(CHUNK_BITS + q) for q in range(CHUNK_BITS))
                    + tuple(cx(CHUNK_BITS + q, q) for q in range(CHUNK_BITS)))


@dataclass(frozen=True)
class SeedSpec:
    """The shared encryption secret: substitution table plus mixing gates."""

    version: int
    sub_table: tuple[int, ...]
    mix_gates: tuple[GateOp, ...]


@dataclass(frozen=True)
class CipherText:
    """Encrypted bits (a multiple of 4) plus the pre-padding bit length."""

    bits: str
    orig_bit_len: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "orig_bit_len",
                           _integer(self.orig_bit_len, "orig_bit_len"))
        n_bits = len(_bits(self.bits, "cipher bits"))
        if n_bits % CHUNK_BITS != 0:
            raise ValueError(f"cipher bit length {n_bits} is not a multiple of {CHUNK_BITS}")
        if not 0 <= self.orig_bit_len <= n_bits < self.orig_bit_len + CHUNK_BITS:
            raise ValueError(f"orig_bit_len {self.orig_bit_len} inconsistent with "
                             f"{n_bits} cipher bits")


@dataclass(frozen=True)
class MixPermutation:
    """Action of the mixing gates on each 4-bit basis state; always derived."""

    map: tuple[int, ...]

    @classmethod
    def from_gates(cls, mix_gates: tuple[GateOp, ...]) -> "MixPermutation":
        """One run on the Choi state sum_v |v>|v> / 4, qubits 4-7 holding v:
        outcome 16 v + w has weight 1/16 exactly when the gates send v to w."""
        _require_mix_gates(mix_gates)
        state = run_circuit(Circuit(2 * CHUNK_BITS, _REFERENCE_PAIRS + tuple(mix_gates)))
        p = probabilities(state).reshape(TABLE_SIZE, TABLE_SIZE)
        if (p.max(axis=1) < 1.0 / TABLE_SIZE - 1e-9).any():
            raise ValueError("mix gates did not preserve the basis state")
        mapping = tuple(int(w) for w in p.argmax(axis=1))
        if sorted(mapping) != list(range(TABLE_SIZE)):
            raise ValueError("derived mix action is not a permutation")
        return cls(mapping)


def _mix_gate_violations(mix_gates: tuple[GateOp, ...]) -> list[str]:
    violations: list[str] = []
    bad_kinds = sorted({g.kind for g in mix_gates} - CLASSICAL_GATE_KINDS)
    if bad_kinds:
        violations.append(f"non-classical mix gate kinds: {bad_kinds}")
    if any(max(g.qubits) >= CHUNK_BITS for g in mix_gates):
        violations.append("mix gate qubit index out of range for 4 qubits")
    return violations


def _require_mix_gates(mix_gates: tuple[GateOp, ...]) -> None:
    # Before any run: a gate on qubits 4-7 would act on from_gates' reference copy.
    violations = _mix_gate_violations(mix_gates)
    if violations:
        raise ValueError("; ".join(violations))


def validate_seed(seed: SeedSpec) -> list[str]:
    """Check every seed invariant; returns a list of violations (empty = ok).

    Needs no simulator: classical gates on in-range qubits always act as a
    permutation, which MixPermutation.from_gates still checks when it derives it.
    """
    violations: list[str] = []
    if seed.version != _SEED_VERSION:
        violations.append(f"unsupported seed version {seed.version}")
    table = seed.sub_table
    if len(table) != TABLE_SIZE or sorted(table) != list(range(TABLE_SIZE)):
        violations.append("sub_table is not a permutation of 0..15")
    elif any(table[table[i]] != i for i in range(TABLE_SIZE)):
        violations.append("sub_table is not self-inverse")
    return violations + _mix_gate_violations(seed.mix_gates)


def _require_structure(seed: SeedSpec) -> None:
    violations = validate_seed(seed)
    if violations:
        raise ValueError("invalid seed: " + "; ".join(violations))


def sub_bytes(nibble: int, table: tuple[int, ...]) -> int:
    """Replace a 4-bit value by its substitution table entry."""
    return table[_integer(nibble, "nibble", 0, TABLE_SIZE - 1)]


def mix_chunk(nibble: int, mix_gates: tuple[GateOp, ...]) -> int:
    """Run a 4-bit basis state through the mixing gates on the simulator.

    Chunk bit 3 (leftmost in the string form) is qubit 3.  Classical gates
    keep basis states sharp, so the result is read back as the single
    surviving basis index.
    """
    nibble = _integer(nibble, "nibble", 0, TABLE_SIZE - 1)
    _require_mix_gates(mix_gates)
    state = run_circuit(Circuit(CHUNK_BITS, mix_gates), nibble)
    p = probabilities(state)
    out = int(p.argmax())
    if p[out] < 1.0 - 1e-9:
        raise ValueError("mix gates did not preserve the basis state")
    return out


def shift_chunk(nibble: int, position: int) -> int:
    """Left-rotate a chunk by (position mod 4) bit positions; 0 leaves it."""
    nibble = _integer(nibble, "nibble", 0, TABLE_SIZE - 1)
    r = _integer(position, "position", 1) % CHUNK_BITS
    return ((nibble << r) | (nibble >> (CHUNK_BITS - r))) & (TABLE_SIZE - 1)


# Views of immutable bytes, so no caller can make them writable again.
# Row i rotates a chunk value at 0-based chunk index k = i mod 4 (1-based position i + 1).
_ROTATIONS = np.frombuffer(
    bytes(shift_chunk(v, i + 1) for i in range(CHUNK_BITS) for v in range(TABLE_SIZE)),
    np.uint8).reshape(CHUNK_BITS, TABLE_SIZE)
# Row v holds the ASCII digits of v, most significant bit first.
_DIGITS = np.frombuffer(
    "".join(format(v, f"0{CHUNK_BITS}b") for v in range(TABLE_SIZE)).encode("ascii"),
    np.uint8).reshape(TABLE_SIZE, CHUNK_BITS)
_PLACE_VALUES = np.frombuffer(bytes((8, 4, 2, 1)), np.uint8)


def _pad_bits(bits: str) -> str:
    if not _bits(bits, "plaintext"):
        raise ValueError("plaintext bits are empty")
    return bits + "0" * ((-len(bits)) % CHUNK_BITS)


def _chunk_tables(seed: SeedSpec) -> np.ndarray:
    """Row i maps a chunk value to its ciphertext at each 0-based index k = i mod 4."""
    _require_structure(seed)
    mix = MixPermutation.from_gates(seed.mix_gates).map
    return _ROTATIONS[:, [mix[sub_bytes(v, seed.sub_table)] for v in range(TABLE_SIZE)]]


def _look_up_chunks(bits: str, table: np.ndarray) -> str:
    # bits is already checked to be 0/1 text, so it encodes as ASCII.
    digits = np.frombuffer(bits.encode("ascii"), np.uint8).reshape(-1, CHUNK_BITS)
    chunks = (digits - ord("0")) @ _PLACE_VALUES
    out = table[np.arange(len(chunks)) % CHUNK_BITS, chunks]
    return _DIGITS[out].tobytes().decode("ascii")


def encrypt(bits: str, seed: SeedSpec) -> CipherText:
    """SubBytes, then the mixing gates, then the position rotation, per chunk.

    The plaintext is zero-padded on the right to a multiple of 4; chunk
    positions are 1-based, so the first chunk is rotated by one.
    """
    tables = _chunk_tables(seed)
    return CipherText(_look_up_chunks(_pad_bits(bits), tables), len(bits))


def decrypt(ct: CipherText, seed: SeedSpec) -> str:
    """Look each chunk up in the inverse table and strip the padding."""
    # Each row is a permutation, so sorting it lists its inverse.
    inverse = np.argsort(_chunk_tables(seed), axis=1)
    return _look_up_chunks(ct.bits, inverse)[: ct.orig_bit_len]


def _classical_gate(nibble: int, g: GateOp) -> int:
    # Pure bit arithmetic; deliberately bypasses the simulator.
    if g.kind == "X":
        return nibble ^ (1 << g.qubits[0])
    if g.kind == "CX":
        c, t = g.qubits
        return nibble ^ (1 << t) if (nibble >> c) & 1 else nibble
    if g.kind == "CCX":
        c1, c2, t = g.qubits
        if (nibble >> c1) & 1 and (nibble >> c2) & 1:
            return nibble ^ (1 << t)
        return nibble
    if g.kind == "SWAP":
        a, b = g.qubits
        if ((nibble >> a) & 1) != ((nibble >> b) & 1):
            return nibble ^ ((1 << a) | (1 << b))
        return nibble
    raise ValueError(f"non-classical mix gate {g.kind}")


def classical_oracle_encrypt(bits: str, seed: SeedSpec) -> str:
    """Bit-level reference encryption that never touches the simulator.

    The substitution and the gates are composed over the 16 chunk values
    first, so each chunk is one lookup and one rotation.
    """
    _require_structure(seed)
    padded = _pad_bits(bits)
    composed = []
    for value in seed.sub_table:
        for g in seed.mix_gates:
            value = _classical_gate(value, g)
        composed.append(value)
    out = []
    for pos in range(1, len(padded) // CHUNK_BITS + 1):
        value = composed[int(padded[(pos - 1) * CHUNK_BITS: pos * CHUNK_BITS], 2)]
        value = ((value << pos % 4) | (value >> (4 - pos % 4))) & 0xF
        out.append(format(value, f"0{CHUNK_BITS}b"))
    return "".join(out)


def keygen(rng_seed: int, n_mix_gates: int = 12) -> SeedSpec:
    """Generate a seed: a random involution table and random classical gates.

    Deterministic per rng_seed.  Regenerates if both the table and the
    derived mix action happen to be identity.
    """
    n_mix_gates = _integer(n_mix_gates, "n_mix_gates", 0)
    rng = np.random.default_rng(_integer(rng_seed, "rng_seed", 0))
    kinds = sorted(CLASSICAL_GATE_KINDS)
    while True:
        table = [-1] * TABLE_SIZE
        unassigned = list(range(TABLE_SIZE))
        while unassigned:
            i = unassigned.pop(0)
            pool = [i] + unassigned
            j = int(pool[rng.integers(0, len(pool))])
            table[i] = j
            table[j] = i
            if j != i:
                unassigned.remove(j)
        gates = []
        for _ in range(n_mix_gates):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            qubits = tuple(
                int(q) for q in rng.choice(CHUNK_BITS, size=GATE_ARITY[kind],
                                           replace=False)
            )
            gates.append(GateOp(kind, qubits))
        identity = tuple(range(TABLE_SIZE))
        # The table first: deriving the mix takes a simulator run.
        if (tuple(table) == identity
                and MixPermutation.from_gates(tuple(gates)).map == identity):
            continue
        return SeedSpec(_SEED_VERSION, tuple(table), tuple(gates))


def shannon_entropy(probs: np.ndarray) -> float:
    """Shannon entropy in bits of a discrete outcome distribution."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def cipher_entropy_diag(ct: CipherText) -> float:
    """Largest per-chunk measurement entropy when re-preparing cipher chunks.

    Each 4-bit cipher chunk is loaded as a basis state and its outcome
    distribution measured; under the classical gate set every chunk is a
    sharp basis state, so the result is exactly 0.  Empty ciphertext gives 0.
    """
    worst = 0.0
    for k in range(0, len(ct.bits), CHUNK_BITS):
        value = int(ct.bits[k:k + CHUNK_BITS], 2)
        state = StateVector.basis(CHUNK_BITS, value)
        worst = max(worst, shannon_entropy(probabilities(state)))
    return worst
