"""Hash engine tests against independent classical and symbolic oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qengines import (
    HashConfig,
    NoiseModel,
    TEMPLATES,
    build_hash_circuit,
    circuit_unitary,
    entangler_ops,
    hash_batch,
    hash_bits,
    noisy_sample,
    qhash,
    sim,
    to_bitstring,
)

from helpers import classical_hash_oracle, pqc1_hash_oracle, xor_halves

ALL_8BIT = [format(i, "08b") for i in range(256)]


# ---------------------------------------------------------------- to_bitstring

@pytest.mark.parametrize("value,width,expected", [
    (5, 8, "00000101"),
    (0, 8, "00000000"),
    (99, 8, "01100011"),
    (255, 8, "11111111"),
    (1, 1, "1"),
])
def test_to_bitstring_integers(value, width, expected):
    assert to_bitstring(value, width) == expected


def test_to_bitstring_bytes_msb_first():
    assert to_bitstring(b"\xa5", 8) == "10100101"
    assert to_bitstring(b"\x01\x80", 16) == "0000000110000000"
    assert to_bitstring(b"\x05", 12) == "000000000101"


def test_to_bitstring_overflow_rejected():
    with pytest.raises(ValueError):
        to_bitstring(256, 8)
    with pytest.raises(ValueError):
        to_bitstring(b"\x00\x00", 8)
    with pytest.raises(ValueError):
        to_bitstring(-1, 8)


# ---------------------------------------------------------------- circuit build

def test_encoding_layer_order_and_angles():
    # 1001 puts the theta angle on the outer qubits, phi on the inner ones,
    # listed from qubit 3 down to qubit 0.
    cfg = HashConfig("PQC4")
    ops = build_hash_circuit("1001", cfg).ops
    assert [(op.kind, op.qubits[0]) for op in ops] == [
        ("RX", 3), ("RX", 2), ("RX", 1), ("RX", 0)]
    assert [op.angle for op in ops] == [math.pi, 0.0, 0.0, math.pi]


def test_zero_input_encodes_all_phi():
    for template in TEMPLATES:
        cfg = HashConfig(template)
        ops = build_hash_circuit("00000000", cfg).ops
        assert all(op.angle == 0.0 for op in ops if op.kind == "RX")


def test_two_layer_split():
    cfg = HashConfig("PQC4")
    ops = build_hash_circuit("11110000", cfg).ops
    assert [op.angle for op in ops[:4]] == [math.pi] * 4
    assert [op.angle for op in ops[4:]] == [0.0] * 4


def test_entanglers_after_each_encoding_layer():
    cfg = HashConfig("PQC3")
    ops = build_hash_circuit("11110000", cfg).ops
    kinds = [op.kind for op in ops]
    # 4 RX, 6 CX, 4 RX, 6 CX
    assert kinds == ["RX"] * 4 + ["CX"] * 6 + ["RX"] * 4 + ["CX"] * 6


def test_odd_length_inputs_zero_padded_right():
    cfg = HashConfig("PQC4")
    assert hash_bits("11", cfg) == hash_bits("1100", cfg)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        build_hash_circuit("", HashConfig("PQC4"))
    with pytest.raises(ValueError):
        hash_bits("01x0", HashConfig("PQC4"))


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        HashConfig("PQC9")
    with pytest.raises(ValueError):
        entangler_ops("PQC9", 4)
    with pytest.raises(ValueError):
        HashConfig("PQC1", n_qubits=9)
    with pytest.raises(ValueError):
        HashConfig("PQC1", mode="fuzzy")
    with pytest.raises(ValueError):
        HashConfig("PQC1", mode="sampled", shots=0)
    with pytest.raises(ValueError):
        HashConfig("PQC3", n_qubits=True)
    with pytest.raises(ValueError):
        HashConfig("PQC3", n_qubits=4.0)
    with pytest.raises(ValueError):
        HashConfig("PQC3", mode="sampled", shots=2.5)
    assert HashConfig("PQC3", n_qubits=np.int64(4)) == HashConfig("PQC3")


def test_no_noise_has_one_spelling():
    assert HashConfig("PQC3").noise == NoiseModel()
    # None is no second spelling: the config refuses it when built, in either mode.
    for mode in ("exact", "sampled"):
        with pytest.raises(TypeError, match="NoiseModel"):
            HashConfig("PQC3", mode=mode, shots=16, noise=None)


@pytest.mark.parametrize("field", ["theta1", "phi1", "theta2", "phi2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_angle_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        HashConfig("PQC3", **{field: value})


# ---------------------------------------------------------------- per-config gates

def test_gates_are_derived_once_per_config(monkeypatch):
    calls = []

    def counting_rx(theta, q):
        calls.append(q)
        return sim.rx(theta, q)

    monkeypatch.setattr(qhash, "rx", counting_rx)
    rng = np.random.default_rng(18)
    inputs = ["".join(map(str, rng.integers(0, 2, 64))) for _ in range(20)]
    cfg = HashConfig("PQC3", 4)
    hash_batch(inputs, cfg)
    first = len(calls)
    assert first <= 16  # 4n: one gate per qubit, bit value and row
    hash_batch(inputs, cfg)
    assert len(calls) == first


ANGLE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])


@settings(max_examples=100, deadline=None)
@given(template=st.sampled_from(TEMPLATES), n=st.integers(1, 8),
       angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
       bits=st.text("01", min_size=1, max_size=64))
def test_circuit_matches_longhand_build(template, n, angles, bits):
    padded = bits + "0" * (-len(bits) % n)
    expected = []
    for k in range(0, len(padded), n):
        theta, phi = angles[:2] if k == 0 else angles[2:]
        expected += [sim.rx(theta if bit == "1" else phi, n - 1 - j)
                     for j, bit in enumerate(padded[k:k + n])]
        expected += entangler_ops(template, n)
    ops = build_hash_circuit(bits, HashConfig(template, n, *angles)).ops
    assert list(ops) == expected
    signs = [[math.copysign(1, op.angle) for op in circuit if op.kind == "RX"]
             for circuit in (ops, expected)]
    assert signs[0] == signs[1]


def test_equal_configs_keep_their_own_signed_zero():
    plus, minus = HashConfig("PQC4", 1, phi1=0.0), HashConfig("PQC4", 1, phi1=-0.0)
    assert plus == minus
    hash_bits("0", plus)
    (op,) = build_hash_circuit("0", minus).ops
    assert math.copysign(1, op.angle) == -1.0


# ---------------------------------------------------------------- first-block table

def _tie_rule(weights, n):
    # The smallest index whose weight is within 1e-12 of the maximum.
    return sim.format_bits(int(np.flatnonzero(weights >= weights.max() - 1e-12)[0]), n)


@settings(max_examples=150, deadline=None)
@given(template=st.sampled_from(TEMPLATES), n=st.integers(1, 8),
       angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
       bits=st.text("01", min_size=1, max_size=64))
def test_exact_hash_matches_the_gate_by_gate_circuit(template, n, angles, bits):
    cfg = HashConfig(template, n, *angles)
    state = sim.run_circuit(build_hash_circuit(bits, cfg))
    assert hash_bits(bits, cfg) == _tie_rule(sim.probabilities(state), n)


@settings(max_examples=100, deadline=None)
@given(template=st.sampled_from(TEMPLATES), n=st.integers(1, sim.UNITARY_MAX_QUBITS),
       angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
       bits=st.text("01", min_size=1, max_size=64))
def test_exact_hash_matches_the_circuit_unitary(template, n, angles, bits):
    cfg = HashConfig(template, n, *angles)
    column = circuit_unitary(build_hash_circuit(bits, cfg))[:, 0]
    assert hash_bits(bits, cfg) == _tie_rule(np.abs(column) ** 2, n)


FIRST_BLOCK_ANGLES = [(math.pi, 0.0, math.pi, 0.0), (math.pi / 2, -0.0, math.pi, 0.0),
                      (0.0, 0.0, 0.0, 0.0), (0.7, 1.9, 2.3, 0.1)]


@pytest.mark.parametrize("angles", FIRST_BLOCK_ANGLES)
@pytest.mark.parametrize("template", TEMPLATES)
def test_first_block_state_matches_its_circuit(template, angles):
    for n in range(1, 9):
        cfg = HashConfig(template, n, *angles)
        for value in range(1 << n):
            bits = format(value, f"0{n}b")
            table = qhash._exact_state(bits, cfg).amplitudes
            circuit = sim.run_circuit(build_hash_circuit(bits, cfg)).amplitudes
            np.testing.assert_allclose(table, circuit, rtol=0, atol=1e-12)


@pytest.fixture
def gates_applied(monkeypatch):
    calls = []

    def counting_apply_matrix(s, mat, qubits):
        calls.append(qubits)
        return apply_matrix(s, mat, qubits)

    apply_matrix = sim._apply_matrix
    monkeypatch.setattr(sim, "_apply_matrix", counting_apply_matrix)
    return calls


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("n", [1, 4, 8])
def test_one_block_input_applies_no_gate(template, n, gates_applied):
    cfg = HashConfig(template, n)
    hash_bits("1" * n, cfg)
    hash_bits("1", cfg)  # padded to one block
    assert gates_applied == []


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("n", [1, 3, 4, 8])
@pytest.mark.parametrize("blocks", [2, 5])
def test_later_blocks_apply_their_gates_only(template, n, blocks, gates_applied):
    hash_bits("10" * (n * blocks // 2) + "1" * (n * blocks % 2), HashConfig(template, n))
    assert len(gates_applied) == (blocks - 1) * (n + len(entangler_ops(template, n)))


def test_first_block_table_is_built_once_per_config(monkeypatch):
    built = []

    def counting_first_block(*args):
        built.append(args)
        return first_block(*args)

    first_block = qhash._first_block
    monkeypatch.setattr(qhash, "_first_block", counting_first_block)
    cfg = HashConfig("PQC1", 4)
    hash_batch([format(v, "08b") for v in range(256)], cfg)
    assert len(built) == 1
    hash_bits("0110", HashConfig("PQC1", 4))  # an equal config builds its own
    assert len(built) == 2


def test_equal_configs_keep_their_own_first_block_table(monkeypatch):
    # Each table is built from its own config's gates, whose signed zeros differ.
    signs = []

    def recording_first_block(row, entangler, n):
        signs.append(math.copysign(1, row[0][0].angle))  # qubit 0, bit 0: phi1
        return first_block(row, entangler, n)

    first_block = qhash._first_block
    monkeypatch.setattr(qhash, "_first_block", recording_first_block)
    plus, minus = HashConfig("PQC4", 1, phi1=0.0), HashConfig("PQC4", 1, phi1=-0.0)
    hash_bits("0", plus)
    hash_bits("0", minus)
    assert signs == [1.0, -1.0]
    assert plus._gates[2] is not minus._gates[2]


# ---------------------------------------------------------------- hash values

def test_hash_all_zero_input():
    assert hash_bits("00000000", HashConfig("PQC4")) == "0000"


def test_hash_all_ones_cancels():
    # Two half turns per qubit give a full turn: only a global phase.
    assert hash_bits("11111111", HashConfig("PQC4")) == "0000"


def test_hash_first_layer_only():
    assert hash_bits("11110000", HashConfig("PQC4")) == "1111"


def test_hash_golden_values():
    # Frozen from exact statevector evaluation at default angles.
    expected = {
        "PQC1": "1010",
        "PQC2": "1111",
        "PQC3": "1011",
        "PQC4": "0101",
        "PQC5": "0000",
    }
    for template, value in expected.items():
        assert hash_bits("01100011", HashConfig(template)) == value


def test_hash_batch_matches_elementwise():
    cfg = HashConfig("PQC3")
    inputs = [to_bitstring(i, 8) for i in range(100)]
    batch = hash_batch(inputs, cfg)
    assert len(batch) == 100
    assert batch[:3] == [hash_bits(b, cfg) for b in inputs[:3]]
    assert hash_batch([inputs[42]], cfg) == [hash_bits(inputs[42], cfg)]


def test_hash_batch_duplicates_collide():
    cfg = HashConfig("PQC2")
    res = hash_batch(["1010", "1010", "1010"], cfg)
    assert res[0] == res[1] == res[2]


def test_hash_batch_rejects_empty():
    with pytest.raises(ValueError):
        hash_batch([], HashConfig("PQC1"))


# ---------------------------------------------------------------- properties

@pytest.mark.parametrize("template", TEMPLATES)
def test_exact_mode_deterministic(template):
    cfg = HashConfig(template)
    first = [hash_bits(b, cfg) for b in ALL_8BIT]
    second = [hash_bits(b, HashConfig(template)) for b in ALL_8BIT]
    assert first == second


@pytest.mark.parametrize("template", TEMPLATES)
def test_fixed_output_size(template):
    cfg = HashConfig(template)
    for length in range(1, 17):
        value = hash_bits("1" * length, cfg)
        assert len(value) == cfg.n_qubits
        assert set(value) <= {"0", "1"}


@pytest.mark.parametrize("template", TEMPLATES)
def test_equal_angles_collapse_to_constant(template):
    cfg = HashConfig(template, theta1=0.4, phi1=0.4, theta2=1.1, phi2=1.1)
    values = {hash_bits(b, cfg) for b in ALL_8BIT[:32]}
    assert len(values) == 1


@pytest.mark.parametrize("template", ["PQC1", "PQC2", "PQC3", "PQC5"])
def test_entangled_templates_are_not_constant(template):
    values = {hash_bits(b, HashConfig(template)) for b in ALL_8BIT}
    assert len(values) >= 2


def test_pqc4_equals_xor_of_halves():
    cfg = HashConfig("PQC4")
    for bits in ALL_8BIT:
        assert hash_bits(bits, cfg) == xor_halves(bits)


@pytest.mark.parametrize("template", ["PQC2", "PQC3", "PQC4", "PQC5"])
def test_classical_propagation_oracle(template):
    cfg = HashConfig(template)
    for bits in ALL_8BIT:
        assert hash_bits(bits, cfg) == classical_hash_oracle(bits, template)


def test_pqc1_label_propagation_oracle():
    cfg = HashConfig("PQC1")
    for bits in ALL_8BIT:
        assert hash_bits(bits, cfg) == pqc1_hash_oracle(bits)
    # Three-block inputs end in the X basis and the tie break reads zeros.
    for bits in ("110100101101", "000000000001"):
        assert hash_bits(bits, cfg) == pqc1_hash_oracle(bits)


def test_longer_inputs_reuse_second_layer_angles():
    # Blocks beyond the first all use (theta2, phi2).
    cfg = HashConfig("PQC4", theta1=math.pi, theta2=math.pi / 2)
    ops = build_hash_circuit("1111" * 3, cfg).ops
    angles = [op.angle for op in ops]
    assert angles == [math.pi] * 4 + [math.pi / 2] * 8


@pytest.mark.parametrize("template", TEMPLATES)
def test_exact_ties_break_to_smallest_index_at_quarter_turn(template):
    # At theta = pi/2 many outcomes tie exactly; rounding noise in the kernel
    # must not pick the winner.  The unitary path is the independent reference.
    cfg = HashConfig(template, theta1=math.pi / 2, theta2=math.pi / 2)
    for bits in ALL_8BIT:
        p = np.abs(circuit_unitary(build_hash_circuit(bits, cfg))[:, 0]) ** 2
        expected = int(np.flatnonzero(p >= p.max() - 1e-9)[0])
        assert hash_bits(bits, cfg) == format(expected, "04b"), bits


# ---------------------------------------------------------------- sampled mode

def test_sampled_mode_reproducible_per_seed():
    cfg = HashConfig("PQC3", mode="sampled", shots=200, rng_seed=5,
                     noise=NoiseModel(0.02, 0.02))
    a = [hash_bits(b, cfg) for b in ALL_8BIT[:16]]
    b = [hash_bits(bb, cfg) for bb in ALL_8BIT[:16]]
    assert a == b


def test_sampled_ties_break_to_smallest_index():
    # PQC1 puts Hadamards on every qubit, so a few shots often tie.
    ties = 0
    for shots in (1, 2, 3, 4):
        for noise in (NoiseModel(), NoiseModel(0.0, 0.3)):
            for rng_seed in range(4):
                cfg = HashConfig("PQC1", mode="sampled", shots=shots,
                                 rng_seed=rng_seed, noise=noise)
                for bits in ALL_8BIT[:8]:
                    counts = noisy_sample(build_hash_circuit(bits, cfg), 0, shots,
                                          noise, rng_seed)
                    best = max(counts.values())
                    tied = [k for k, v in counts.items() if v == best]
                    ties += len(tied) > 1
                    assert hash_bits(bits, cfg) == format(min(tied), "04b")
    assert ties > 0


def test_sampled_mode_noiseless_matches_exact():
    exact = HashConfig("PQC2")
    sampled = HashConfig("PQC2", mode="sampled", shots=400, rng_seed=1)
    for bits in ALL_8BIT[:32]:
        assert hash_bits(bits, sampled) == hash_bits(bits, exact)
