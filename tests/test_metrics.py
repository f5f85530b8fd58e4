"""Metrics tests: histogram, collision rate, chi-squared, avalanche, sweeps."""

import math

import numpy as np
import pytest

from qengines import (
    BucketHistogram,
    HashConfig,
    NoiseModel,
    avalanche_score,
    batch_sweep,
    bucket_histogram,
    chi_squared_p,
    chi_squared_survival,
    collision_rate,
    evaluate_batch,
    hash_bits,
    histogram_csv,
    qhash,
    regularized_gamma_q,
    summary_csv,
    to_bitstring,
)

from helpers import chi2_sf_simpson, collision_rate_oracle


def hist_from_counts(counts):
    arr = np.array(counts, dtype=np.int64)
    n = int(math.log2(len(counts)))
    return BucketHistogram(n, arr, int(arr.sum()))


# ---------------------------------------------------------------- histogram

def test_bucket_histogram_basic():
    h = bucket_histogram(["0000", "0000", "1111"], 4)
    assert h.counts[0] == 2
    assert h.counts[15] == 1
    assert h.counts[1:15].sum() == 0
    assert h.total == 3


def test_bucket_histogram_empty():
    h = bucket_histogram([], 4)
    assert h.total == 0
    assert h.counts.sum() == 0


def test_bucket_histogram_uniform_cover():
    hashes = [format(v, "04b") for v in range(16)] * 10
    h = bucket_histogram(hashes, 4)
    assert (h.counts == 10).all()
    assert h.total == 160


def test_bucket_histogram_rejects_wrong_width():
    with pytest.raises(ValueError):
        bucket_histogram(["000"], 4)


def test_bucket_histogram_fields_must_agree():
    with pytest.raises(ValueError):
        BucketHistogram(2, np.array([1, 2, 3, 4]), 5)
    with pytest.raises(ValueError):
        BucketHistogram(3, np.array([1, 2, 3, 4]), 10)


# ---------------------------------------------------------------- collision rate

def test_collision_rate_uniform_closed_form():
    h = hist_from_counts([10] * 16)
    assert collision_rate(h) == 0.625


def test_collision_rate_single_bucket():
    counts = [100] + [0] * 15
    h = hist_from_counts(counts)
    expected = collision_rate_oracle(counts)
    assert expected == pytest.approx((6.25 + math.sqrt(9375 / 16)) / 16, abs=1e-12)
    assert collision_rate(h) == pytest.approx(expected, abs=1e-12)
    assert collision_rate(h) == pytest.approx(1.9035, abs=1e-4)


def test_collision_rate_single_hash():
    counts = [1] + [0] * 15
    h = hist_from_counts(counts)
    assert collision_rate(h) == pytest.approx(collision_rate_oracle(counts),
                                              abs=1e-15)


def test_collision_rate_uniform_family():
    for k in (1, 3, 7):
        h = hist_from_counts([k] * 16)
        assert collision_rate(h) == k / 16


def test_collision_rate_empty_rejected():
    with pytest.raises(ValueError):
        collision_rate(hist_from_counts([0] * 16))


# ---------------------------------------------------------------- chi-squared

def test_chi_squared_uniform_is_zero():
    chi2, p = chi_squared_p(hist_from_counts([10] * 16))
    assert chi2 == 0.0
    assert p == 1.0


def test_chi_squared_single_bucket():
    chi2, p = chi_squared_p(hist_from_counts([100] + [0] * 15))
    assert chi2 == pytest.approx(1500.0, abs=1e-9)
    assert p < 1e-12


def test_chi_squared_empty_rejected():
    with pytest.raises(ValueError):
        chi_squared_p(hist_from_counts([0] * 16))


def test_survival_matches_simpson_oracle():
    for chi2 in (0.0, 10.0, 25.0, 50.0):
        mine = chi_squared_survival(chi2, 15)
        oracle = chi2_sf_simpson(chi2, 15)
        assert abs(mine - oracle) < 1e-6


def test_survival_is_one_at_zero_and_drops_when_representable():
    assert chi_squared_survival(0.0, 15) == 1.0
    # Below ~0.05 the drop from 1.0 underflows double precision; test at the
    # first comfortably representable statistic instead.
    assert chi_squared_survival(0.1, 15) < 1.0


def test_survival_strictly_decreasing():
    xs = [0.1, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 300.0]
    values = [chi_squared_survival(v, 15) for v in xs]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_survival_extreme_tail_clamped():
    assert 0.0 <= chi_squared_survival(1e6, 15) <= 1e-300


def test_gamma_q_domain():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -1.0)
    assert regularized_gamma_q(7.5, 0.0) == 1.0


def test_gamma_q_against_exponential_tail():
    # For a = 1 the upper gamma reduces to exp(-x).
    for xv in (0.1, 1.0, 3.0, 10.0):
        assert regularized_gamma_q(1.0, xv) == pytest.approx(math.exp(-xv),
                                                             rel=1e-12)


# ---------------------------------------------------------------- avalanche

def test_avalanche_constant_hasher_is_zero():
    cfg = HashConfig("PQC3", theta1=0.7, phi1=0.7, theta2=0.7, phi2=0.7)
    inputs = [to_bitstring(i, 8) for i in range(16)]
    assert avalanche_score(cfg, inputs) == 0.0


def test_avalanche_pqc4_exact_quarter():
    # Each input-bit flip toggles exactly one of the four output bits.
    cfg = HashConfig("PQC4")
    inputs = [to_bitstring(i, 8) for i in range(256)]
    assert avalanche_score(cfg, inputs) == 0.25


def test_avalanche_pqc3_golden():
    cfg = HashConfig("PQC3")
    inputs = [to_bitstring(i, 8) for i in range(256)]
    assert avalanche_score(cfg, inputs) == pytest.approx(0.40625, abs=1e-12)


def test_avalanche_positive_with_frozen_goldens():
    # Every entangled template moves under single-bit flips; values frozen
    # from the exact sweep over all 256 eight-bit inputs.
    golden = {"PQC1": 0.1875, "PQC2": 0.5, "PQC5": 0.46875}
    inputs = [to_bitstring(i, 8) for i in range(256)]
    for template, expected in golden.items():
        score = avalanche_score(HashConfig(template), inputs)
        assert 0.0 < score <= 1.0
        assert score == pytest.approx(expected, abs=1e-12)


def longhand_avalanche(cfg, inputs):
    # One hash_bits call per input and per flip, summed in (input, bit) order.
    total = 0.0
    for bits in inputs:
        base = hash_bits(bits, cfg)
        for i in range(len(bits)):
            flipped = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]
            other = hash_bits(flipped, cfg)
            total += sum(a != b for a, b in zip(base, other)) / cfg.n_qubits
    return total / (len(inputs) * len(inputs[0]))


# At n_qubits 3 and 5 the terms d/n round, so only the (input, bit) order
# gives the longhand float; at 4 every term is exact.  Each template runs
# one of the two, on 4-bit inputs: the sampled config costs about 0.3 s a case.
@pytest.mark.parametrize("template, width, n_qubits", [
    *[pytest.param(template, width, 4, id=f"{template}-{width}")
      for template in ("PQC1", "PQC2", "PQC3", "PQC4", "PQC5") for width in (4, 8)],
    *[pytest.param(template, 4, n, id=f"{template}-4-n{n}")
      for template, n in (("PQC1", 5), ("PQC2", 3), ("PQC3", 5), ("PQC4", 3), ("PQC5", 5))],
])
def test_avalanche_mean_equals_longhand(template, width, n_qubits):
    inputs = [to_bitstring(i, width) for i in range(10)]
    configs = [
        HashConfig(template, n_qubits, theta1=0.7 * math.pi, phi1=0.2 * math.pi,
                   theta2=0.4 * math.pi, phi2=0.9 * math.pi),
        HashConfig(template, n_qubits, mode="sampled", shots=16, rng_seed=3,
                   noise=NoiseModel(0.05, 0.02)),
    ]
    for cfg in configs:
        expected = longhand_avalanche(cfg, inputs)
        assert evaluate_batch(cfg, 10, input_width=width).avalanche_mean == expected
        assert avalanche_score(cfg, inputs) == expected


def test_avalanche_rejects_bad_inputs():
    cfg = HashConfig("PQC4")
    with pytest.raises(ValueError):
        avalanche_score(cfg, [])
    with pytest.raises(ValueError):
        avalanche_score(cfg, ["01", "011"])


# ---------------------------------------------------------------- sweeps

def test_sweep_f_avg_grows_with_batch():
    results = batch_sweep(HashConfig("PQC3"), [25, 50, 100], input_width=8)
    totals = [report.histogram.total for _, report in results]
    assert totals == [25, 50, 100]
    f_avgs = [t / 16 for t in totals]
    assert f_avgs == sorted(f_avgs)


def test_sweep_collision_rate_monotone_at_defaults():
    for template in ("PQC1", "PQC2", "PQC3", "PQC4", "PQC5"):
        results = batch_sweep(HashConfig(template), [25, 50, 100], input_width=8)
        rates = [report.collision_rate for _, report in results]
        assert rates[0] <= rates[1] <= rates[2]


def test_sweep_single_input():
    (size, report), = batch_sweep(HashConfig("PQC3"), [1], input_width=8)
    assert size == 1
    counts = report.histogram.counts
    assert report.collision_rate == pytest.approx(
        collision_rate_oracle(list(counts)), abs=1e-15)


def test_sweep_rejects_oversized_batch():
    with pytest.raises(ValueError):
        batch_sweep(HashConfig("PQC3"), [300], input_width=8)
    with pytest.raises(ValueError):
        batch_sweep(HashConfig("PQC3"), [0], input_width=8)


def test_sweep_rejects_negative_input_width():
    with pytest.raises(ValueError, match=r"^input_width must be >= 1, got -1$"):
        evaluate_batch(HashConfig("PQC3"), 10, input_width=-1)
    with pytest.raises(ValueError, match=r"^input_width must be >= 1, got 0$"):
        batch_sweep(HashConfig("PQC3"), [1], input_width=0)


def test_input_width_is_required():
    # There is no automatic width: the caller says how wide the inputs are.
    with pytest.raises(TypeError):
        evaluate_batch(HashConfig("PQC3"), 10)
    with pytest.raises(TypeError):
        batch_sweep(HashConfig("PQC3"), [10])
    with pytest.raises(TypeError):
        evaluate_batch(HashConfig("PQC3"), 10, input_width=None)


def assert_reports_equal(a, b):
    assert a.histogram.n_qubits == b.histogram.n_qubits
    assert a.histogram.total == b.histogram.total
    assert a.histogram.counts.tolist() == b.histogram.counts.tolist()
    assert a.collision_rate == b.collision_rate
    assert a.chi_squared == b.chi_squared
    assert a.p_value == b.p_value
    assert a.avalanche_mean == b.avalanche_mean


@pytest.mark.parametrize("cfg, sizes, width", [
    (HashConfig("PQC3"), [25, 50, 100], 8),
    (HashConfig("PQC1", theta1=0.5 * math.pi, theta2=0.3 * math.pi), [100, 7, 30], 8),
    (HashConfig("PQC5", n_qubits=3), [5, 40], 6),
    (HashConfig("PQC2", mode="sampled", shots=16, rng_seed=4,
                noise=NoiseModel(0.05, 0.02)), [6, 12], 4),
])
def test_sweep_equals_separate_reports(cfg, sizes, width):
    swept = batch_sweep(cfg, sizes, input_width=width)
    assert [size for size, _ in swept] == sizes
    for (size, report), alone in zip(swept, [evaluate_batch(cfg, s, width) for s in sizes]):
        assert_reports_equal(report, alone)


@pytest.fixture
def hash_calls(monkeypatch):
    # Every hash the metrics compute goes through qhash.hash_bits.
    calls = []
    real_hash_bits = qhash.hash_bits

    def counting_hash_bits(bits, cfg):
        calls.append(bits)
        return real_hash_bits(bits, cfg)

    monkeypatch.setattr(qhash, "hash_bits", counting_hash_bits)
    return calls


def flip_closure(values, width):
    """Inputs plus all their single-bit flips, as a set of integers."""
    return {v ^ flip for v in values for flip in [0] + [1 << i for i in range(width)]}


def test_report_hashes_each_distinct_bitstring_once(hash_calls):
    expected = flip_closure(range(100), 8)
    assert len(expected) == 228
    evaluate_batch(HashConfig("PQC3"), 100, input_width=8)
    assert sorted(hash_calls) == sorted(to_bitstring(v, 8) for v in expected)


def test_sweep_hashes_each_distinct_bitstring_once(hash_calls):
    # 0..24 and 0..49 lie inside 0..99, so the sweep needs no more hashes
    # than its largest report.
    expected = set().union(*(flip_closure(range(s), 8) for s in (25, 50, 100)))
    assert len(expected) == 228
    batch_sweep(HashConfig("PQC3"), [25, 50, 100], input_width=8)
    assert sorted(hash_calls) == sorted(to_bitstring(v, 8) for v in expected)


def test_avalanche_hashes_each_distinct_bitstring_once(hash_calls):
    # Over all 256 8-bit inputs every flip is itself an input.
    expected = flip_closure(range(256), 8)
    assert len(expected) == 256
    avalanche_score(HashConfig("PQC3"), [to_bitstring(i, 8) for i in range(256)])
    assert sorted(hash_calls) == sorted(to_bitstring(v, 8) for v in expected)


def test_rotations_only_template_ties_with_entangled_ones_at_defaults():
    # At the 0/pi encoding every template is a classical map, and over inputs
    # 0..99 the rotations-only one and the CX families all reach twelve
    # buckets of 6 and four of 7: the floor/ceiling split of 100/16, hence the
    # integer minimum chi-squared 0.48 and the largest reachable p-value, so
    # PQC4 cannot sit strictly below them.
    p4 = evaluate_batch(HashConfig("PQC4"), 100, input_width=8).p_value
    p3 = evaluate_batch(HashConfig("PQC3"), 100, input_width=8).p_value
    assert p4 == p3 == pytest.approx(0.9999999987041335, abs=1e-12)


# ---------------------------------------------------------------- CSV

def test_histogram_csv_layout():
    text = histogram_csv(hist_from_counts([2, 0, 1, 0] + [0] * 12))
    lines = text.strip().split("\n")
    assert lines[0] == "bucket,count"
    assert lines[1] == "0,2"
    assert lines[3] == "2,1"
    assert len(lines) == 17


def test_summary_csv_layout():
    report = evaluate_batch(HashConfig("PQC4"), 16, input_width=8)
    text = summary_csv([report])
    lines = text.strip().split("\n")
    assert lines[0] == "total,collision_rate,chi_squared,p_value,avalanche"
    fields = lines[1].split(",")
    assert fields[0] == "16"
    assert float(fields[1]) == report.collision_rate
    assert float(fields[2]) == report.chi_squared
    assert float(fields[3]) == report.p_value
    assert float(fields[4]) == report.avalanche_mean
