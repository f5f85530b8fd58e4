"""Self-tests of the benchmark's own machinery; every run calls run_all().

    python3 bench/selftest.py

Checks that the generator is deterministic per seed, that the span
self-time arithmetic and the scaling to reference time are right on
synthetic figures, that corrupted
hashes, reports and ciphertexts are counted as failed, and that
BENCHMARK.json names exactly the workloads and metrics the code reports.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import oracle
import workloads as wl

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class SelfTestError(RuntimeError):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def test_generator_is_seeded() -> None:
    for name, cls in wl.WORKLOADS.items():
        first, again, other = cls(11), cls(11), cls(12)
        ops = [first.warmup_ops()] + [first.cycle() for _ in range(3)]
        _expect(ops == [again.warmup_ops()] + [again.cycle() for _ in range(3)],
                f"{name}: the same seed gave different inputs")
        _expect(ops != [other.warmup_ops()] + [other.cycle() for _ in range(3)],
                f"{name}: different seeds gave identical inputs")


def test_self_time_arithmetic() -> None:
    import numpy as np
    import tracing

    # a [0, 10] holds b [1, 4] and c [5, 8]; c holds d [6, 7]; e [11, 12] is a root.
    names = ["a", "b", "c", "d", "e"]
    spans = {
        "start": np.array([0.0, 1.0, 5.0, 6.0, 11.0]),
        "end": np.array([10.0, 4.0, 8.0, 7.0, 12.0]),
        "parent": np.array([-1, 0, 0, 2, -1]),
        "op": np.array([0, 0, 0, 0, 1]),
        "name": np.array([0, 1, 2, 3, 0]),
    }
    _, own = tracing.self_times(spans["parent"], spans["start"], spans["end"])
    _expect(own.tolist() == [4.0, 3.0, 2.0, 1.0, 1.0], f"self times {own.tolist()}")
    totals = tracing.aggregate(names, spans, np.array([0, 1]))
    _expect(totals == {"a": (2, 11.0, 5.0), "b": (1, 3.0, 3.0),
                       "c": (1, 3.0, 2.0), "d": (1, 1.0, 1.0)},
            f"aggregated spans {totals}")
    _expect(tracing.aggregate(names, spans, np.array([1])) == {"a": (1, 1.0, 1.0)},
            "op filter")
    scaled = tracing.aggregate(names, spans, np.array([0, 1]), np.array([2.0, 0.5]))
    _expect(scaled == {"a": (2, 20.5, 8.5), "b": (1, 6.0, 6.0),
                       "c": (1, 6.0, 4.0), "d": (1, 2.0, 2.0)},
            f"spans scaled per op {scaled}")


def test_reference_scaling() -> None:
    import reference

    ref = reference.REFERENCE_S
    _expect(reference.scale(ref, ref) == 1.0, "kernel at reference pace")
    _expect(abs(reference.scale(1.5 * ref, 2.5 * ref) - 0.5) < 1e-12,
            "op between two kernel timings at half the reference pace")
    pace = reference.kernel_seconds()
    _expect(0.0 < pace < 1.0, f"reference kernel took {pace} s")


def test_corrupted_outputs_fail() -> None:
    hashes = ["0101", "1100", "0000"]
    _expect(oracle.check_hashes(hashes, list(hashes)), "correct hashes rejected")
    _expect(not oracle.check_hashes(hashes, ["0101", "1101", "0000"]),
            "corrupted hash accepted")
    _expect(not oracle.check_hashes(None, hashes), "hash without a reference accepted")

    rng = random.Random(5)
    table = [format(rng.randrange(16), "04b") for _ in range(256)]
    exp = oracle.expected_report(table, 100, 4, 8)

    def report(**changes):
        fields = dict(exp, **changes)
        hist = SimpleNamespace(counts=fields["counts"], total=fields["total"])
        return SimpleNamespace(histogram=hist, **{k: fields[k] for k in (
            "collision_rate", "chi_squared", "p_value", "avalanche_mean")})

    _expect(oracle.check_report(exp, report()), "correct report rejected")
    moved = list(exp["counts"])
    src = next(i for i, c in enumerate(moved) if c)
    moved[src] -= 1
    moved[(src + 1) % len(moved)] += 1
    for label, bad in (("histogram", report(counts=moved)),
                       ("p-value", report(p_value=exp["p_value"] * (1 + 1e-5) + 1e-11)),
                       ("chi-squared", report(chi_squared=exp["chi_squared"] + 1e-3)),
                       ("avalanche", report(avalanche_mean=exp["avalanche_mean"] + 1e-9)),
                       ("collision rate", report(collision_rate=exp["collision_rate"] * 1.001))):
        _expect(not oracle.check_report(exp, bad), f"corrupted {label} accepted")

    bits = "0110100111000101"
    plain = oracle.pbm_bytes(4, 4, "1001011000111010")
    text = json.dumps({"orig_bit_len": 16, "bits": bits})
    _expect(oracle.check_cipher(bits, 16, text, plain, plain), "correct cipher rejected")
    flipped = json.dumps({"orig_bit_len": 16, "bits": "1" + bits[1:]})
    _expect(not oracle.check_cipher(bits, 16, flipped, plain, plain),
            "corrupted ciphertext accepted")
    damaged = bytearray(plain)
    damaged[-2] ^= 1
    _expect(not oracle.check_cipher(bits, 16, text, bytes(damaged), plain),
            "corrupted restored image accepted")


def test_benchmark_json_matches_code() -> None:
    import tracing

    doc = json.loads(BENCHMARK_JSON.read_text())
    _expect([w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS),
            "BENCHMARK.json workloads differ from the generators")
    _expect([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(wl.END_TO_END),
            "BENCHMARK.json end_to_end differs from the reported metrics")
    _expect([(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.PER_LAYER,
            "BENCHMARK.json per_layer differs from the traced metrics")


TESTS = (test_generator_is_seeded, test_self_time_arithmetic, test_reference_scaling,
         test_corrupted_outputs_fail, test_benchmark_json_matches_code)


def run_all() -> None:
    for test in TESTS:
        test()


if __name__ == "__main__":
    for test in TESTS:
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
