"""Simulator kernel tests: gate algebra, sampling, inversion, noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qengines import (
    Circuit,
    GateOp,
    NoiseModel,
    StateVector,
    apply_gate,
    ccx,
    circuit_unitary,
    cx,
    gate_matrix,
    h,
    inverse_circuit,
    noisy_sample,
    probabilities,
    run_circuit,
    rx,
    sample,
    swap,
    x,
)

RNG = np.random.default_rng(20240521)
ARITIES = {"X": 1, "H": 1, "RX": 1, "CX": 2, "CCX": 3, "SWAP": 2}


def random_gate(n_qubits, rng):
    kinds = [k for k, a in ARITIES.items() if a <= n_qubits]
    kind = rng.choice(kinds)
    arity = ARITIES[kind]
    qubits = tuple(int(q) for q in rng.choice(n_qubits, size=arity, replace=False))
    if kind == "RX":
        return GateOp(kind, qubits, angle=float(rng.uniform(-math.pi, math.pi)))
    return GateOp(kind, qubits)


def random_circuit(n_qubits, n_gates, rng):
    return Circuit(n_qubits, tuple(random_gate(n_qubits, rng) for _ in range(n_gates)))


# ---------------------------------------------------------------- gate matrices

def test_x_matrix():
    assert np.array_equal(gate_matrix(x(0)), np.array([[0, 1], [1, 0]], dtype=complex))


def test_rx_zero_is_identity():
    assert np.allclose(gate_matrix(rx(0.0, 0)), np.eye(2), atol=1e-15)


def test_rx_pi_is_x_up_to_phase():
    m = gate_matrix(rx(math.pi, 0))
    assert np.allclose(m, -1j * np.array([[0, 1], [1, 0]]), atol=1e-15)


def block_diag_x(dim):
    # Identity, then X on the last two basis states: the controlled-X blocks.
    m = np.eye(dim, dtype=complex)
    m[dim - 2:, dim - 2:] = [[0, 1], [1, 0]]
    return m


@pytest.mark.parametrize("gate,expected", [
    (cx(0, 1), block_diag_x(4)),
    (ccx(0, 1, 2), block_diag_x(8)),
    (h(0), np.array([[1, 1], [1, -1]]) / math.sqrt(2)),
    (swap(0, 1), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
], ids=["CX", "CCX", "H", "SWAP"])
def test_fixed_gate_matrix_is_textbook(gate, expected):
    assert np.array_equal(gate_matrix(gate), np.asarray(expected, dtype=complex))


@pytest.mark.parametrize("gate", [x(0), h(0), rx(0.7, 0), cx(0, 1), swap(0, 1),
                                  ccx(0, 1, 2)], ids=lambda g: g.kind)
def test_gate_matrix_is_read_only(gate):
    with pytest.raises(ValueError):
        gate_matrix(gate)[0, 0] = 5.0


def test_all_gate_matrices_unitary():
    gates = [x(0), h(0), rx(0.7, 0), cx(0, 1), swap(0, 1), ccx(0, 1, 2)]
    for g in gates:
        m = gate_matrix(g)
        assert np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


def test_malformed_gates_rejected():
    with pytest.raises(ValueError):
        GateOp("X", (0, 1))
    with pytest.raises(ValueError):
        GateOp("CX", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RX", (0,))
    with pytest.raises(ValueError):
        GateOp("X", (0,), angle=1.0)
    with pytest.raises(ValueError):
        GateOp("ZZ", (0,))
    with pytest.raises(ValueError):
        GateOp("X", (1.7,))
    with pytest.raises(ValueError):
        cx(0.9, 1.2)
    with pytest.raises(ValueError):
        GateOp("X", (True,))
    with pytest.raises(ValueError):
        Circuit(2, (("X", (0,)),))
    assert GateOp("CX", (np.int64(0), np.uint8(3))).qubits == (0, 3)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_rx_angle_rejected(angle):
    with pytest.raises(ValueError, match="angle"):
        rx(angle, 0)


# ---------------------------------------------------------------- apply / run

def test_x_flips_ground_state():
    s = apply_gate(StateVector.basis(1, 0), x(0))
    assert np.allclose(s.amplitudes, [0, 1])


def test_cx_control_off_is_noop():
    s = apply_gate(StateVector.basis(2, 0b00), cx(1, 0))
    assert np.allclose(s.amplitudes, StateVector.basis(2, 0).amplitudes)


def test_cx_control_on_flips_target():
    s = apply_gate(StateVector.basis(2, 0b10), cx(1, 0))
    assert np.allclose(s.amplitudes, StateVector.basis(2, 0b11).amplitudes)


def test_swap_exchanges_bits():
    s = apply_gate(StateVector.basis(2, 0b01), swap(0, 1))
    assert np.allclose(s.amplitudes, StateVector.basis(2, 0b10).amplitudes)


def test_ccx_needs_both_controls():
    s = apply_gate(StateVector.basis(3, 0b011), ccx(0, 1, 2))
    assert np.allclose(s.amplitudes, StateVector.basis(3, 0b111).amplitudes)
    s = apply_gate(StateVector.basis(3, 0b001), ccx(0, 1, 2))
    assert np.allclose(s.amplitudes, StateVector.basis(3, 0b001).amplitudes)


def test_apply_gate_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_gate(StateVector.basis(2, 0), x(5))
    with pytest.raises(ValueError):
        Circuit(2, (x(5),))


def test_run_empty_circuit():
    s = run_circuit(Circuit(3), 0)
    assert np.allclose(s.amplitudes, StateVector.basis(3, 0).amplitudes)


def test_run_single_x():
    s = run_circuit(Circuit(1, (x(0),)), 0)
    assert np.allclose(s.amplitudes, [0, 1])


def test_rx_full_turn_is_global_phase():
    s = run_circuit(Circuit(1, (rx(math.pi, 0), rx(math.pi, 0))), 0)
    p = probabilities(s)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert s.amplitudes[0].real == pytest.approx(-1.0, abs=1e-12)


def test_run_rejects_bad_initial():
    with pytest.raises(ValueError):
        run_circuit(Circuit(2), 4)
    with pytest.raises(ValueError):
        StateVector(2, np.zeros(3))


# ---------------------------------------------------------------- probabilities

def test_probabilities_ground():
    assert np.allclose(probabilities(StateVector.basis(1, 0)), [1, 0])


def test_probabilities_hadamard():
    s = run_circuit(Circuit(1, (h(0),)), 0)
    assert np.allclose(probabilities(s), [0.5, 0.5], atol=1e-12)


def test_probabilities_quarter_turn():
    s = run_circuit(Circuit(1, (rx(math.pi / 2, 0),)), 0)
    assert np.allclose(probabilities(s), [0.5, 0.5], atol=1e-12)


# ---------------------------------------------------------------- sampling

def test_sample_deterministic_state():
    counts = sample(StateVector.basis(1, 1), 1000, rng_seed=3)
    assert counts == {1: 1000}


def test_sample_balanced_state_near_half():
    s = run_circuit(Circuit(1, (h(0),)), 0)
    counts = sample(s, 1000, rng_seed=7)
    assert abs(counts.get(0, 0) / 1000 - 0.5) < 0.05


def test_sample_small_shots():
    assert sample(StateVector.basis(2, 0), 5, rng_seed=0) == {0: 5}


def test_sample_zero_shots_rejected():
    with pytest.raises(ValueError):
        sample(StateVector.basis(1, 0), 0, rng_seed=0)


def test_sample_seed_reproducible():
    s = run_circuit(Circuit(2, (h(0), cx(0, 1))), 0)
    a = sample(s, 500, rng_seed=11)
    b = sample(run_circuit(Circuit(2, (h(0), cx(0, 1))), 0), 500, rng_seed=11)
    assert a == b
    c = sample(s, 500, rng_seed=12)
    assert sum(c.values()) == 500


# ---------------------------------------------------------------- unitaries

def test_unitary_empty_circuit():
    assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4, dtype=complex))


def test_unitary_single_x():
    assert np.array_equal(circuit_unitary(Circuit(1, (x(0),))),
                          np.array([[0, 1], [1, 0]], dtype=complex))


def test_unitary_random_circuits_are_unitary():
    for _ in range(25):
        n = int(RNG.integers(3, 6))
        c = random_circuit(n, 10, RNG)
        u = circuit_unitary(c)
        dim = 1 << n
        assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-10


def test_unitary_matches_kernel_on_basis_states():
    # The matrix path and the in-place kernel are independent; they must agree.
    for _ in range(10):
        n = int(RNG.integers(2, 5))
        c = random_circuit(n, 12, RNG)
        u = circuit_unitary(c)
        for col in range(1 << n):
            s = run_circuit(c, col)
            assert np.abs(s.amplitudes - u[:, col]).max() < 1e-10


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 5))
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([k for k, a in ARITIES.items() if a <= n]))
        qubits = tuple(draw(st.permutations(range(n)))[:ARITIES[kind]])
        angle = draw(st.floats(-2 * math.pi, 2 * math.pi)) if kind == "RX" else None
        ops.append(GateOp(kind, qubits, angle))
    return Circuit(n, tuple(ops))


@settings(max_examples=200, deadline=None)
@given(c=circuits(), state_seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_unitary_on_random_states(c, state_seed):
    rng = np.random.default_rng(state_seed)
    dim = 1 << c.n_qubits
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    s = StateVector(c.n_qubits, amps.copy())
    for op in c.ops:
        apply_gate(s, op)
    assert np.abs(s.amplitudes - circuit_unitary(c) @ amps).max() < 1e-10


def test_unitary_size_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(6))


# ---------------------------------------------------------------- inversion

def test_inverse_reverses_and_keeps_self_inverse_gates():
    c = Circuit(2, (x(0), cx(0, 1)))
    inv = inverse_circuit(c)
    assert inv.ops == (cx(0, 1), x(0))


def test_inverse_negates_rx():
    inv = inverse_circuit(Circuit(1, (rx(math.pi / 3, 0),)))
    assert inv.ops[0].angle == pytest.approx(-math.pi / 3)


def test_inverse_involution_on_self_inverse_lists():
    c = Circuit(3, (x(0), cx(0, 1), swap(1, 2), ccx(0, 1, 2), h(2)))
    assert inverse_circuit(inverse_circuit(c)) == c


def test_forward_then_inverse_restores_ground_state():
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        c = random_circuit(4, 20, rng)
        s = run_circuit(c, 0)
        for op in inverse_circuit(c).ops:
            apply_gate(s, op)
        p = probabilities(s)
        assert p[0] == pytest.approx(1.0, abs=1e-10)
        assert p[1:].max() < 1e-10


# ---------------------------------------------------------------- invariants

def test_norm_preserved_by_long_random_circuits():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        c = random_circuit(n, 100, rng)
        s = run_circuit(c, int(rng.integers(0, 1 << n)))
        assert abs(s.norm() ** 2 - 1.0) < 1e-10


def test_rx_pi_matches_x_on_any_state():
    for trial in range(20):
        rng = np.random.default_rng(trial)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        a = StateVector(2, amps.copy())
        b = StateVector(2, amps.copy())
        apply_gate(a, rx(math.pi, 1))
        apply_gate(b, x(1))
        assert np.abs(probabilities(a) - probabilities(b)).max() < 1e-10


def test_swap_equals_three_cx_on_any_state():
    for trial in range(10):
        rng = np.random.default_rng(trial)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        a = StateVector(3, amps.copy())
        b = StateVector(3, amps.copy())
        apply_gate(a, swap(0, 2))
        for g in (cx(0, 2), cx(2, 0), cx(0, 2)):
            apply_gate(b, g)
        assert np.abs(a.amplitudes - b.amplitudes).max() < 1e-12


def test_classical_gates_map_basis_to_basis():
    gates = [x(1), cx(0, 2), ccx(1, 2, 0), swap(0, 2)]
    for g in gates:
        for index in range(8):
            s = apply_gate(StateVector.basis(3, index), g)
            nonzero = np.flatnonzero(s.amplitudes)
            assert nonzero.size == 1
            assert abs(s.amplitudes[nonzero[0]]) == 1.0


# ---------------------------------------------------------------- noise

def test_noisy_sample_zero_noise_matches_exact_distribution():
    c = Circuit(2, (h(0),))
    counts = noisy_sample(c, 0, 4000, NoiseModel(0.0, 0.0), rng_seed=5)
    assert sum(counts.values()) == 4000
    assert set(counts) <= {0, 1}
    assert abs(counts.get(0, 0) / 4000 - 0.5) < 0.05


def test_noisy_sample_certain_readout_flip():
    counts = noisy_sample(Circuit(1, (x(0),)), 0, 100, NoiseModel(0.0, 1.0),
                          rng_seed=9)
    assert counts == {0: 100}


def test_noisy_sample_readout_rate():
    counts = noisy_sample(Circuit(1, (x(0),)), 0, 10000, NoiseModel(0.0, 0.1),
                          rng_seed=13)
    assert 0.87 <= counts.get(1, 0) / 10000 <= 0.93


def test_noisy_sample_depolarizing_is_deterministic_per_seed():
    c = Circuit(2, (h(0), cx(0, 1)))
    noise = NoiseModel(0.05, 0.02)
    a = noisy_sample(c, 0, 200, noise, rng_seed=21)
    b = noisy_sample(c, 0, 200, noise, rng_seed=21)
    assert a == b
    assert sum(a.values()) == 200


# Counts recorded before sample and both noisy_sample branches shared one
# sampler; they pin the seeded stream, including the readout-flip uniforms
# drawn at q = 0.
@pytest.mark.parametrize("p, q, expected", [
    (0.1, 0.0, {0: 8, 2: 16, 3: 7, 4: 17, 5: 6, 6: 2, 7: 4}),
    (0.1, 0.05, {0: 9, 1: 1, 2: 14, 3: 6, 4: 15, 5: 7, 6: 3, 7: 5}),
    (0.0, 0.05, {0: 1, 2: 22, 3: 2, 4: 28, 5: 6, 7: 1}),
    (0.0, 0.0, {2: 21, 3: 3, 4: 29, 5: 7}),
])
def test_noisy_sample_stream_is_pinned(p, q, expected):
    c = Circuit(3, (h(0), cx(0, 1), rx(0.7, 2), ccx(0, 1, 2), swap(0, 2)))
    counts = noisy_sample(c, 2, 60, NoiseModel(p, q), rng_seed=13)
    assert counts == expected
    assert list(counts) == sorted(counts)


def test_noisy_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        noisy_sample(Circuit(1, (x(0),)), 0, 0, NoiseModel(), rng_seed=0)


def test_noisy_sample_requires_a_noise_model():
    with pytest.raises(TypeError, match="tuple"):
        noisy_sample(Circuit(1, (x(0),)), 0, 10, (0.1, 0.0), rng_seed=0)


def test_noise_model_validates_probabilities():
    with pytest.raises(ValueError):
        NoiseModel(-0.1, 0.0)
    with pytest.raises(ValueError):
        NoiseModel(0.0, 1.5)
