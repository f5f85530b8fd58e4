"""Every integer argument follows one rule: a Python or NumPy int in range.

A bool, a float (even an integral one) or a value just outside the range
raises ValueError naming the argument, wherever it enters the library.
"""

import numpy as np
import pytest

from qengines import (
    Circuit,
    CipherText,
    GateOp,
    HashConfig,
    NoiseModel,
    StateVector,
    bucket_histogram,
    chi_squared_survival,
    evaluate_batch,
    keygen,
    mix_chunk,
    noisy_sample,
    run_circuit,
    sample,
    shift_chunk,
    sub_bytes,
    to_bitstring,
)

IDENTITY_TABLE = tuple(range(16))

# (site, call with the argument under test, name in the message, a valid
# value, values just outside the range)
SITES = [
    ("GateOp.qubits", lambda v: GateOp("X", (v,)), "qubit", 0, (-1,)),
    ("Circuit.n_qubits", lambda v: Circuit(v), "n_qubits", 2, (0, 9)),
    ("StateVector.n_qubits", lambda v: StateVector(v, np.zeros(4)), "n_qubits", 2, (0, 9)),
    ("basis.n_qubits", lambda v: StateVector.basis(v), "n_qubits", 3, (0, 9)),
    ("basis.index", lambda v: StateVector.basis(2, v), "basis index", 3, (-1, 4)),
    ("run_circuit.initial", lambda v: run_circuit(Circuit(2), v), "basis index", 3, (-1, 4)),
    ("noisy_sample.initial", lambda v: noisy_sample(Circuit(1), v, 10, NoiseModel(), 0),
     "basis index", 1, (-1, 2)),
    ("sample.shots", lambda v: sample(StateVector.basis(1), v, 0), "shots", 5, (0,)),
    ("sample.rng_seed", lambda v: sample(StateVector.basis(1), 5, v), "rng_seed", 3, (-1,)),
    ("noisy_sample.shots", lambda v: noisy_sample(Circuit(1), 0, v, NoiseModel(), 0),
     "shots", 5, (0,)),
    ("noisy_sample.rng_seed", lambda v: noisy_sample(Circuit(1), 0, 5, NoiseModel(), v),
     "rng_seed", 3, (-1,)),
    ("HashConfig.n_qubits", lambda v: HashConfig("PQC3", n_qubits=v), "n_qubits", 4, (0, 9)),
    ("HashConfig.shots", lambda v: HashConfig("PQC3", mode="sampled", shots=v),
     "shots", 10, (0,)),
    ("HashConfig.rng_seed", lambda v: HashConfig("PQC3", mode="sampled", rng_seed=v),
     "rng_seed", 3, (-1,)),
    ("to_bitstring.width", lambda v: to_bitstring(1, v), "width", 4, (0,)),
    ("to_bitstring.data", lambda v: to_bitstring(v, 4), "data", 3, (-1,)),
    ("sub_bytes.nibble", lambda v: sub_bytes(v, IDENTITY_TABLE), "nibble", 15, (-1, 16)),
    ("mix_chunk.nibble", lambda v: mix_chunk(v, ()), "nibble", 15, (-1, 16)),
    ("shift_chunk.nibble", lambda v: shift_chunk(v, 1), "nibble", 15, (16, 17)),
    ("shift_chunk.nibble_at_2", lambda v: shift_chunk(v, 2), "nibble", 15, (-1,)),
    ("shift_chunk.position", lambda v: shift_chunk(1, v), "position", 5, (-1, 0)),
    ("keygen.rng_seed", lambda v: keygen(v), "rng_seed", 3, (-1,)),
    ("keygen.n_mix_gates", lambda v: keygen(0, n_mix_gates=v), "n_mix_gates", 2, (-1,)),
    ("CipherText.orig_bit_len", lambda v: CipherText("0000", v), "orig_bit_len", 4, (-1, 5)),
    ("chi_squared_survival.df", lambda v: chi_squared_survival(1.0, v), "df", 3, (0,)),
    ("evaluate_batch.size", lambda v: evaluate_batch(HashConfig("PQC4"), v, 4),
     "batch size", 3, (0,)),
    ("evaluate_batch.input_width", lambda v: evaluate_batch(HashConfig("PQC4"), 2, v),
     "input_width", 4, (0,)),
    ("bucket_histogram.n_qubits", lambda v: bucket_histogram([], v), "n_qubits", 4, (0, 9)),
]


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{site}-{bad!r}")
    for site, call, name, good, outside in SITES
    for bad in (True, float(good), good + 0.7, *outside)
])
def test_integer_argument_rejected(call, name, bad):
    with pytest.raises(ValueError, match=name):
        call(bad)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=site) for site, call, _, good, _ in SITES
])
def test_numpy_integer_accepted(call, good):
    call(np.int64(good))


@pytest.mark.parametrize("call, message", [
    (lambda: HashConfig("PQC3", n_qubits=10**5000),
     r"^n_qubits must be in \[1, 8\], got an integer of 16610 bits$"),
    (lambda: keygen(-10**5000), r"^rng_seed must be >= 0, got a negative integer of 16610 bits$"),
], ids=["n_qubits=10**5000", "rng_seed=-10**5000"])
def test_huge_integer_is_named_by_its_size(call, message):
    # Past 4300 digits Python cannot print an int at all; the message still
    # names the argument, and gives the value's bit length.
    with pytest.raises(ValueError, match=message):
        call()
