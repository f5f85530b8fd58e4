"""Cipher engine tests: seed validity, chunk steps, round trips, oracle."""

import gc
import hashlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qengines import (
    Circuit,
    CipherText,
    GateOp,
    MixPermutation,
    SeedSpec,
    ccx,
    cipher_entropy_diag,
    classical_oracle_encrypt,
    cx,
    decrypt,
    encrypt,
    h,
    keygen,
    mix_chunk,
    probabilities,
    qaes,
    run_circuit,
    seed_to_json,
    shannon_entropy,
    shift_chunk,
    sub_bytes,
    swap,
    validate_seed,
    x,
)

IDENTITY_TABLE = tuple(range(16))
COMPLEMENT_TABLE = tuple(15 - i for i in range(16))

IDENTITY_SEED = SeedSpec(1, IDENTITY_TABLE, ())
COMPLEMENT_SEED = SeedSpec(1, COMPLEMENT_TABLE, ())


# ---------------------------------------------------------------- seed checks

def test_identity_seed_valid():
    assert validate_seed(IDENTITY_SEED) == []


def test_complement_table_valid():
    assert validate_seed(COMPLEMENT_SEED) == []


def test_three_cycle_table_rejected():
    table = list(range(16))
    table[0], table[1], table[2] = 1, 2, 0
    violations = validate_seed(SeedSpec(1, tuple(table), ()))
    assert any("self-inverse" in v for v in violations)


def test_non_permutation_table_rejected():
    violations = validate_seed(SeedSpec(1, (0,) * 16, ()))
    assert any("permutation" in v for v in violations)


def test_unsupported_version_rejected():
    for version in (0, 2, -42):
        violations = validate_seed(SeedSpec(version, IDENTITY_TABLE, ()))
        assert any("version" in v for v in violations)


def test_non_classical_gate_rejected():
    seed = SeedSpec(1, IDENTITY_TABLE, (h(0),))
    violations = validate_seed(seed)
    assert any("non-classical" in v for v in violations)


def test_out_of_range_gate_rejected():
    seed = SeedSpec(1, IDENTITY_TABLE, (GateOp("CX", (3, 5)),))
    violations = validate_seed(seed)
    assert any("out of range" in v for v in violations)


# ---------------------------------------------------------------- chunk steps

def test_sub_bytes_identity():
    assert sub_bytes(9, IDENTITY_TABLE) == 9


def test_sub_bytes_complement():
    assert sub_bytes(0b1001, COMPLEMENT_TABLE) == 0b0110


def test_sub_bytes_is_involution_for_random_tables():
    for s in range(20):
        table = keygen(s).sub_table
        for v in range(16):
            assert table[table[v]] == v


def test_mix_chunk_empty_gates():
    assert mix_chunk(0b1001, ()) == 0b1001


def test_mix_chunk_x_toggles_lsb():
    assert mix_chunk(0b1001, (x(0),)) == 0b1000


def test_mix_chunk_controlled_flip():
    assert mix_chunk(0b1001, (cx(3, 0),)) == 0b1000
    assert mix_chunk(0b0001, (cx(3, 0),)) == 0b0001


def test_mix_chunk_rejects_non_classical():
    with pytest.raises(ValueError):
        mix_chunk(0, (h(0),))


def test_mix_permutation_is_bijection():
    for s in range(20):
        seed = keygen(s)
        perm = MixPermutation.from_gates(seed.mix_gates)
        assert sorted(perm.map) == list(range(16))


# Any list of classical gates on the chunk's 4 qubits, controls first.
classical_gates = st.lists(st.one_of(
    st.builds(x, st.integers(0, 3)),
    st.permutations(range(4)).map(lambda q: cx(q[0], q[1])),
    st.permutations(range(4)).map(lambda q: ccx(q[0], q[1], q[2])),
    st.permutations(range(4)).map(lambda q: swap(q[0], q[1])),
), max_size=20).map(tuple)


@settings(max_examples=200, deadline=None)
@given(gates=classical_gates)
def test_mix_permutation_agrees_with_mix_chunk(gates):
    # from_gates reads all 16 images off one entangled run; mix_chunk runs one nibble.
    assert (MixPermutation.from_gates(gates).map
            == tuple(mix_chunk(v, gates) for v in range(16)))


def test_mix_permutation_agrees_with_mix_chunk_on_keygen_seeds():
    for s in range(300):
        gates = keygen(s).mix_gates
        assert (MixPermutation.from_gates(gates).map
                == tuple(mix_chunk(v, gates) for v in range(16))), s


@pytest.mark.parametrize("gates", [(x(5),), (h(0),)], ids=["reference_qubit", "hadamard"])
def test_mix_permutation_rejects_gates_before_simulating(gates, monkeypatch):
    # x(5) would flip the reference copy and still read as a permutation.
    calls = []
    real_run_circuit = qaes.run_circuit

    def counting_run_circuit(*args, **kwargs):
        calls.append(args)
        return real_run_circuit(*args, **kwargs)

    monkeypatch.setattr(qaes, "run_circuit", counting_run_circuit)
    with pytest.raises(ValueError):
        MixPermutation.from_gates(gates)
    assert calls == []


def test_mix_inverse_composes_to_identity():
    from qengines import inverse_circuit
    for s in range(10):
        gates = keygen(s).mix_gates
        inverse = inverse_circuit(Circuit(4, gates)).ops
        for v in range(16):
            assert mix_chunk(mix_chunk(v, gates), inverse) == v


def test_shift_chunk_rotations():
    assert shift_chunk(0b1001, 1) == 0b0011
    assert shift_chunk(0b1001, 4) == 0b1001
    assert shift_chunk(0b0110, 2) == 0b1001


def test_shift_chunk_period_four():
    for v in range(16):
        for p in range(1, 9):
            assert shift_chunk(v, p) == shift_chunk(v, p + 4)


def test_shift_chunk_rejects_zero_position():
    with pytest.raises(ValueError):
        shift_chunk(0b1001, 0)


# ---------------------------------------------------------------- encrypt/decrypt

def test_encrypt_identity_seed_rotates_only():
    ct = encrypt("10010110", IDENTITY_SEED)
    assert ct.bits == "00111001"
    assert ct.orig_bit_len == 8


def test_encrypt_complement_single_chunk():
    ct = encrypt("1001", COMPLEMENT_SEED)
    assert ct.bits == "1100"


def test_fourth_chunk_passes_through():
    bits = "0000" * 3 + "1011"
    ct = encrypt(bits, IDENTITY_SEED)
    assert ct.bits[12:] == "1011"


def test_encrypt_pads_and_records_length():
    ct = encrypt("101", IDENTITY_SEED)
    assert len(ct.bits) == 4
    assert ct.orig_bit_len == 3
    assert decrypt(ct, IDENTITY_SEED) == "101"


def test_encrypt_rejects_bad_input():
    with pytest.raises(ValueError):
        encrypt("", IDENTITY_SEED)
    with pytest.raises(ValueError):
        encrypt("012", IDENTITY_SEED)
    with pytest.raises(ValueError):
        encrypt("1010", SeedSpec(1, (0,) * 16, ()))


@pytest.mark.parametrize("seed", [
    SeedSpec(1, (0,) * 16, ()),
    SeedSpec(1, (1, 2, 0) + tuple(range(3, 16)), ()),
    SeedSpec(1, IDENTITY_TABLE, (h(0),)),
    SeedSpec(1, IDENTITY_TABLE, (GateOp("CX", (3, 5)),)),
])
def test_invalid_seed_rejected_by_every_cipher_entry(seed):
    with pytest.raises(ValueError, match="invalid seed"):
        encrypt("1010", seed)
    with pytest.raises(ValueError, match="invalid seed"):
        decrypt(CipherText("1010", 4), seed)
    with pytest.raises(ValueError, match="invalid seed"):
        classical_oracle_encrypt("1010", seed)


@pytest.mark.parametrize("n_bits", [4, 4096])
def test_cipher_simulates_each_basis_state_once_per_call(n_bits, monkeypatch):
    seed = keygen(8)
    calls = []
    real_run_circuit = qaes.run_circuit

    def counting_run_circuit(*args, **kwargs):
        calls.append(args)
        return real_run_circuit(*args, **kwargs)

    monkeypatch.setattr(qaes, "run_circuit", counting_run_circuit)
    rng = np.random.default_rng(n_bits)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=n_bits))
    ct = encrypt(bits, seed)
    # One run derives the mix action for all 16 basis states at once.
    assert len(calls) == 1
    calls.clear()
    assert decrypt(ct, seed) == bits
    assert len(calls) == 1


def _python_calls(fn, *args):
    """Count the Python-level function calls fn(*args) makes; native calls
    are not counted, and the collector is off so no finalizer adds any."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return count


def test_cipher_does_no_python_work_per_chunk():
    seed = keygen(8)
    short, long = "1011", "10110010" * 512
    encrypt(short, seed)  # the first 8-qubit run fills the simulator's index tables
    assert _python_calls(encrypt, short, seed) == _python_calls(encrypt, long, seed)
    short_ct, long_ct = encrypt(short, seed), encrypt(long, seed)
    assert _python_calls(decrypt, short_ct, seed) == _python_calls(decrypt, long_ct, seed)


def test_decrypt_empty_ciphertext():
    assert decrypt(CipherText("", 0), keygen(4)) == ""


def test_encrypt_rejects_non_ascii_digit_by_index():
    # "\u0661" is ARABIC-INDIC DIGIT ONE: the bit check names it before any encoding.
    with pytest.raises(ValueError, match="plaintext must contain only 0/1, got .* at index 1"):
        encrypt("1\u0661", keygen(4))


def test_every_chunk_value_at_every_index_matches_oracle():
    # Chunk k holds k // 4, so each value 0..15 meets each chunk index mod 4.
    bits = "".join(format(k // 4, "04b") for k in range(64))
    for s in range(100):
        seed = keygen(s)
        ct = encrypt(bits, seed)
        assert ct.bits == classical_oracle_encrypt(bits, seed), s
        assert decrypt(ct, seed) == bits, s


@pytest.mark.parametrize("n_bits", [*range(1, 9), *range(4093, 4101)])
def test_cipher_matches_oracle_at_length_edges(n_bits):
    seed = keygen(n_bits)
    rng = np.random.default_rng(n_bits)
    bits = "".join(str(b) for b in rng.integers(0, 2, size=n_bits))
    ct = encrypt(bits, seed)
    assert ct.bits == classical_oracle_encrypt(bits, seed)
    assert decrypt(ct, seed) == bits


@pytest.mark.parametrize("name", ["_ROTATIONS", "_DIGITS"])
def test_module_tables_are_read_only(name):
    table = getattr(qaes, name)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1
    with pytest.raises(ValueError, match="WRITEABLE"):
        table.setflags(write=True)


def test_rotation_rows_are_evaluated_at_import(monkeypatch):
    seed = keygen(6)
    bits = "1011001110001111" * 3 + "101"

    def refuse(*args, **kwargs):
        raise AssertionError("shift_chunk ran after import")

    monkeypatch.setattr(qaes, "shift_chunk", refuse)
    ct = encrypt(bits, seed)
    assert ct.bits == classical_oracle_encrypt(bits, seed)
    assert decrypt(ct, seed) == bits


def test_decrypt_inverse_of_known_cipher():
    ct = CipherText("00111001", 8)
    assert decrypt(ct, IDENTITY_SEED) == "10010110"


def test_round_trip_identity_seed():
    for bits in ("10010110", "1", "1111000010", "0" * 64):
        assert decrypt(encrypt(bits, IDENTITY_SEED), IDENTITY_SEED) == bits


def test_round_trip_single_chunks_many_seeds():
    for s in range(100):
        seed = keygen(s)
        for v in range(16):
            bits = format(v, "04b")
            assert decrypt(encrypt(bits, seed), seed) == bits


def test_round_trip_random_lengths():
    rng = np.random.default_rng(77)
    for trial in range(30):
        seed = keygen(trial)
        length = int(rng.integers(1, 65))
        bits = "".join(str(b) for b in rng.integers(0, 2, size=length))
        assert decrypt(encrypt(bits, seed), seed) == bits


def test_ciphertext_invariants_enforced():
    with pytest.raises(ValueError):
        CipherText("001", 3)
    with pytest.raises(ValueError):
        CipherText("0011", 9)
    with pytest.raises(ValueError):
        CipherText("0a11", 4)
    with pytest.raises(ValueError):
        CipherText("", -3)


# ---------------------------------------------------------------- bit oracle

def test_oracle_agrees_on_simple_case():
    assert classical_oracle_encrypt("10010110", IDENTITY_SEED) == "00111001"


def test_oracle_agrees_on_all_nibbles_many_seeds():
    for s in range(100):
        seed = keygen(s)
        for v in range(16):
            bits = format(v, "04b")
            assert encrypt(bits, seed).bits == classical_oracle_encrypt(bits, seed)


def test_oracle_agrees_on_two_chunk_inputs():
    seed = keygen(424242)
    for v in range(256):
        bits = format(v, "08b")
        assert encrypt(bits, seed).bits == classical_oracle_encrypt(bits, seed)


def test_oracle_agrees_on_image_bits():
    from qengines import LETTER_A, image_to_bits
    rng = np.random.default_rng(4096)
    random_payload = "".join(str(b) for b in rng.integers(0, 2, size=4096))
    for bits in (image_to_bits(LETTER_A), random_payload):
        for s in (1, 2, 3):
            seed = keygen(s)
            assert encrypt(bits, seed).bits == classical_oracle_encrypt(bits, seed)


def test_oracle_never_runs_the_simulator(monkeypatch):
    seed = keygen(9)
    bits = "1011001110001111"
    expected = encrypt(bits, seed).bits

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the simulator or a cipher stage")

    for name in ("run_circuit", "sub_bytes", "shift_chunk", "mix_chunk"):
        monkeypatch.setattr(qaes, name, refuse)
    assert classical_oracle_encrypt(bits, seed) == expected


@pytest.mark.parametrize("rng_seed", [0, 3, 17, 42])
def test_encrypt_runs_each_chunk_through_the_three_stages(rng_seed):
    seed = keygen(rng_seed)
    for v in range(16):
        # Position pos holds (v + pos) mod 16, so each value meets positions 1-8.
        values = [(v + pos) % 16 for pos in range(1, 9)]
        ct = encrypt("".join(format(c, "04b") for c in values), seed).bits
        for pos, c in enumerate(values, start=1):
            stages = shift_chunk(mix_chunk(sub_bytes(c, seed.sub_table), seed.mix_gates), pos)
            assert int(ct[4 * (pos - 1):4 * pos], 2) == stages, (v, pos)


@settings(max_examples=50, deadline=None)
@given(rng_seed=st.integers(0, 10_000),
       bits=st.text(alphabet="01", min_size=1, max_size=4096))
def test_cipher_agrees_with_oracle_and_round_trips(rng_seed, bits):
    seed = keygen(rng_seed)
    ct = encrypt(bits, seed)
    assert ct.bits == classical_oracle_encrypt(bits, seed)
    assert decrypt(ct, seed) == bits


# ---------------------------------------------------------------- keygen

def test_keygen_always_valid():
    for s in range(50):
        assert validate_seed(keygen(s)) == []


def test_keygen_deterministic():
    assert keygen(1234) == keygen(1234)


def test_keygen_distinct_across_seeds():
    seeds = {keygen(s) for s in range(100)}
    assert len(seeds) == 100


def test_keygen_gate_count_configurable():
    assert len(keygen(5, n_mix_gates=3).mix_gates) == 3


def test_keygen_and_cipher_streams_are_pinned():
    # Seeds and ciphertexts per rng_seed are a file-format contract.
    seeds = hashlib.sha256()
    for s in range(500):
        seeds.update(seed_to_json(keygen(s)).encode("ascii"))
    assert seeds.hexdigest() == (
        "7026856907f74b328bbbcf04365a0c30248b173d147f872dfbf98079819342c7")
    cipher = hashlib.sha256()
    rng = np.random.default_rng(12345)
    for s in range(40):
        seed = keygen(s)
        for n in (1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 100, 255, 256,
                  1000, 1023, 4095, 4096):
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            ct = encrypt(bits, seed)
            cipher.update(f"{s}:{n}:{ct.bits}:{ct.orig_bit_len}\n".encode("ascii"))
    assert cipher.hexdigest() == (
        "03fedcdcc2b7ac65efd194c626947d457f1b742ab412a062c3564f9a99deb06c")


def test_keygen_runs_no_simulation(monkeypatch):
    # Only a seed whose table is the identity needs its mix derived.
    calls = []
    real_run_circuit = qaes.run_circuit

    def counting_run_circuit(*args, **kwargs):
        calls.append(args)
        return real_run_circuit(*args, **kwargs)

    monkeypatch.setattr(qaes, "run_circuit", counting_run_circuit)
    for s in range(20):
        keygen(s)
    assert calls == []


# ---------------------------------------------------------------- diffusion

def test_cipher_differs_from_plaintext():
    from qengines import LETTER_A, image_to_bits
    bits = image_to_bits(LETTER_A)
    fractions = {}
    for s in (1, 2, 3):
        ct = encrypt(bits, keygen(s))
        d = sum(a != b for a, b in zip(bits, ct.bits))
        assert d > 0
        fractions[s] = d / len(bits)
    # Frozen per-seed mismatch fractions.
    assert fractions == {1: 0.44, 2: 0.54, 3: 0.50}


# ---------------------------------------------------------------- entropy

def test_entropy_zero_for_classical_ciphertexts():
    for s in range(10):
        seed = keygen(s)
        ct = encrypt("1011001110001111", seed)
        assert cipher_entropy_diag(ct) == 0.0


def test_entropy_of_balanced_state_is_one_bit():
    state = run_circuit(Circuit(4, (h(3),)), 0)
    assert shannon_entropy(probabilities(state)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_empty_ciphertext():
    assert cipher_entropy_diag(CipherText("", 0)) == 0.0
