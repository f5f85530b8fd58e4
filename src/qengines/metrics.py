"""Quality harness for hash outputs.

Collects hash values into bucket histograms and derives a collision rate,
a chi-squared uniformity statistic with its p-value, and an avalanche
score.  The collision rate is (mean bucket count + population standard
deviation over all buckets) / 2^n; lower is better.  The p-value is the
chi-squared survival function with 2^n - 1 degrees of freedom, computed
from a self-contained regularized incomplete gamma (no statistics
library).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qhash import HashConfig, hash_batch
from .sim import MAX_QUBITS, _bits, _integer, _real

_EPS = 1e-16
_MAX_ITER = 10_000


@dataclass
class BucketHistogram:
    """Counts of hash outcomes over all 2^n buckets."""

    n_qubits: int
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        self.n_qubits = _integer(self.n_qubits, "n_qubits")
        if self.counts.shape != (1 << self.n_qubits,) or self.total != self.counts.sum():
            raise ValueError(f"{self.n_qubits}-qubit histogram needs {1 << self.n_qubits} "
                             f"counts summing to total {self.total}")


@dataclass
class MetricsReport:
    histogram: BucketHistogram
    collision_rate: float
    chi_squared: float
    p_value: float
    avalanche_mean: float


def bucket_histogram(hashes: Sequence[str], n_qubits: int) -> BucketHistogram:
    """Tally hash bitstrings into 2^n buckets indexed by basis value."""
    n_qubits = _integer(n_qubits, "n_qubits", 1, MAX_QUBITS)
    if isinstance(hashes, str):
        raise ValueError("hashes must be a list of bitstrings, got a str")
    counts = np.zeros(1 << n_qubits, dtype=np.int64)
    for value in hashes:
        if len(_bits(value, "hash")) != n_qubits:
            raise ValueError(f"hash {value!r} has length {len(value)}, expected {n_qubits}")
        counts[int(value, 2)] += 1
    return BucketHistogram(n_qubits, counts, int(counts.sum()))


def collision_rate(hist: BucketHistogram) -> float:
    """(mean bucket count + population stdev of bucket counts) / 2^n."""
    if hist.total < 1:
        raise ValueError("histogram is empty")
    buckets = hist.counts.size
    f_avg = hist.total / buckets
    stdev = math.sqrt(float(((hist.counts - f_avg) ** 2).sum()) / buckets)
    return (f_avg + stdev) / buckets


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized gamma P(a, x) by power series; good for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Upper regularized gamma Q(a, x) by modified Lentz continued fraction.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    frac = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * frac


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a)."""
    a, x = _real(a, "a"), _real(x, "x")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi_squared_survival(x: float, df: int) -> float:
    """P(X >= x) for a chi-squared variable with df degrees of freedom."""
    x, df = _real(x, "x"), _integer(df, "df", 1)
    if x <= 0.0:
        return 1.0
    return min(1.0, max(0.0, regularized_gamma_q(df / 2.0, x / 2.0)))


def chi_squared_p(hist: BucketHistogram) -> tuple[float, float]:
    """Chi-squared statistic against uniform expectation, and its p-value."""
    if hist.total < 1:
        raise ValueError("histogram is empty")
    buckets = hist.counts.size
    expected = hist.total / buckets
    chi2 = float(((hist.counts - expected) ** 2 / expected).sum())
    return chi2, chi_squared_survival(chi2, buckets - 1)


def _avalanche(cfg: HashConfig, values: Sequence[int], width: int,
               table: dict[int, int]) -> float:
    """Mean avalanche over width-bit input values, after adding to ``table``
    the hash index of every value and single-bit flip it lacks.

    A hash depends only on (input, cfg), in sampled mode too, since
    ``hash_bits`` re-seeds the sampler per input; so one table can serve
    every report of one config and width.  Masks run leftmost bit first and
    the sum runs in (input, bit) order, so the float result is reproducible.
    """
    masks = [1 << i for i in reversed(range(width))]
    wanted = dict.fromkeys(v ^ m for v in values for m in (0, *masks))
    missing = [u for u in wanted if u not in table]
    if missing:
        hashes = hash_batch([format(u, f"0{width}b") for u in missing], cfg)
        table.update(zip(missing, (int(h, 2) for h in hashes)))
    total = 0.0
    for v in values:
        base = table[v]
        for m in masks:
            total += (base ^ table[v ^ m]).bit_count() / cfg.n_qubits
    return total / (len(values) * width)


def avalanche_score(cfg: HashConfig, inputs: Sequence[str]) -> float:
    """Mean normalized output distance under every single-bit input flip.

    Averages HammingDistance(hash(x), hash(x with bit i flipped)) / n_qubits
    over all inputs x and all bit positions i.  Always in [0, 1]; exactly 0
    for a constant hasher.  Each distinct bitstring is hashed once.
    """
    if not inputs or isinstance(inputs, str):
        raise ValueError("inputs must be a non-empty list of bitstrings")
    width = len(inputs[0])
    if width == 0 or any(len(x) != width for x in inputs):
        raise ValueError("inputs must be non-empty and of equal length")
    return _avalanche(cfg, [int(_bits(x, "input bits"), 2) for x in inputs], width, {})


def _report(cfg: HashConfig, size: int, input_width: int,
            table: dict[int, int]) -> MetricsReport:
    avalanche = _avalanche(cfg, range(size), input_width, table)  # fills the table
    counts = np.bincount([table[v] for v in range(size)], minlength=1 << cfg.n_qubits)
    hist = BucketHistogram(cfg.n_qubits, counts, size)
    return MetricsReport(hist, collision_rate(hist), *chi_squared_p(hist), avalanche)


def evaluate_batch(cfg: HashConfig, size: int, input_width: int) -> MetricsReport:
    """Hash the integers 0..size-1, as input_width-bit strings, and report.

    Each input and each of its single-bit flips is hashed once, and the
    histogram and the avalanche mean read the same hash indices.
    """
    (_, report), = batch_sweep(cfg, [size], input_width)
    return report


def batch_sweep(cfg: HashConfig, batch_sizes: Sequence[int],
                input_width: int) -> list[tuple[int, MetricsReport]]:
    """Evaluate a config over several batch sizes of integer inputs.

    Every size is checked before the first hash.  The reports share one
    table from input value to hash index, so an input that several batches
    use is hashed once per sweep.
    """
    sizes = [_integer(size, "batch size", 1) for size in batch_sizes]
    if input_width is None:  # there is no automatic width
        raise TypeError("input_width is required")
    input_width = _integer(input_width, "input_width", 1)
    for size in sizes:
        if size > (1 << input_width):
            raise ValueError(f"batch size {size} exceeds 2^{input_width} distinct inputs")
    table: dict[int, int] = {}
    return [(size, _report(cfg, size, input_width, table)) for size in sizes]


def histogram_csv(hist: BucketHistogram) -> str:
    """Render a histogram as CSV with the fixed header ``bucket,count``."""
    lines = ["bucket,count"]
    lines += [f"{i},{int(c)}" for i, c in enumerate(hist.counts)]
    return "\n".join(lines) + "\n"


def summary_csv(reports: Sequence[MetricsReport]) -> str:
    """Render report rows under the fixed header
    ``total,collision_rate,chi_squared,p_value,avalanche``."""
    lines = ["total,collision_rate,chi_squared,p_value,avalanche"]
    lines += [f"{r.histogram.total},{r.collision_rate!r},{r.chi_squared!r},"
              f"{r.p_value!r},{r.avalanche_mean!r}" for r in reports]
    return "\n".join(lines) + "\n"
