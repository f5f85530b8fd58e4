"""Seeded workload generators for the benchmark.

Each workload yields its ops in cycles.  A cycle holds a fixed multiset of
op shapes in a seeded order with fresh seeded inputs, and a run measures
whole cycles only, so every run sees the same mix whatever its seed and
however many cycles fit in its time.  The shapes put the median latency
and the tail percentile inside a cost mode, never on the boundary between
two.  The same seed always gives the same ops.

Run ``python3 bench/workloads.py --seed N`` to print each workload's op
mix, input-length mix, share of repeated (config, input) pairs and
payload chunk counts over its first cycles.
"""

from __future__ import annotations

import argparse
import random
from collections import Counter
from dataclasses import dataclass

TEMPLATES = ("PQC1", "PQC2", "PQC3", "PQC4", "PQC5")
# (template, width) hash configs at default angles.
HASH_CONFIGS = [(t, w) for w in (4, 8) for t in TEMPLATES]
CHUNK_BITS = 4

# End-to-end metrics every workload reports.  work_per_s counts hashes on
# hash_stream, reports on quality_eval and plaintext KiB (encrypted and
# decrypted once) on cipher_roundtrip.
END_TO_END = (("setup_s", "s"), ("work_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mib", "MiB"))


@dataclass(frozen=True)
class HashOp:
    """hash_batch(inputs, HashConfig(template, width)) at default angles."""

    template: str
    width: int
    inputs: tuple[str, ...]

    @property
    def config(self):
        return (self.template, self.width)


@dataclass(frozen=True)
class ReportOp:
    """evaluate_batch(HashConfig(template, width), size, input_width=8)."""

    template: str
    width: int
    size: int

    @property
    def config(self):
        return (self.template, self.width)


@dataclass(frozen=True)
class CipherOp:
    """CLI encrypt then decrypt --dims of a PBM; bits None means the glyph."""

    seed_index: int
    width: int
    height: int
    bits: str | None


class _Inputs:
    """Distinct random bitstrings per config.

    8-bit inputs are dealt from a shuffled deck of all 256 values, so they
    repeat only once every value was used; longer ones are redrawn until
    unseen.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}
        self.seen: dict = {}

    def draw(self, config, length: int) -> str:
        if length <= 8:
            deck = self.decks.setdefault((config, length), [])
            if not deck:
                deck.extend(range(1 << length))
                self.rng.shuffle(deck)
            return format(deck.pop(), f"0{length}b")
        seen = self.seen.setdefault(config, set())
        while True:
            value = self.rng.getrandbits(length)
            if value not in seen:
                seen.add(value)
                return format(value, f"0{length}b")


class Workload:
    name = ""
    # What work_per_s counts on this workload, as a metric name and unit.
    work_name = ""
    work_unit = ""
    why = ""
    # op_tail_ms percentile: the highest with at least ten ops beyond it at
    # the op count a run makes today.  It stays fixed, so runs of a faster
    # program report the same percentile.
    TAIL_PERCENTILE: int

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def configs(self) -> list:
        raise NotImplementedError

    def warmup_ops(self) -> list:
        """One cheap op per distinct config or seed, run during set-up."""
        raise NotImplementedError

    def cycle(self) -> list:
        """The next cycle of ops; consecutive calls continue one stream."""
        raise NotImplementedError

    @staticmethod
    def work(op) -> float:
        """Units of work an op completes: hashes, reports or plaintext KiB."""
        raise NotImplementedError


class HashStream(Workload):
    name = "hash_stream"
    work_name, work_unit = "hashes_per_s", "hash/s"
    why = ("all-distinct hash_batch requests: the sim kernel and circuit "
           "build do the work and a memo has nothing to reuse")
    # (input bits, batch size) per config and cycle.
    SHAPES = ((8, 1), (8, 4), (32, 8), (32, 24), (256, 2), (256, 8))
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = _Inputs(self.rng)
        self._warmups = [HashOp(t, w, (self.inputs.draw((t, w), 32),))
                         for t, w in self.configs()]

    def configs(self):
        return list(HASH_CONFIGS)

    def warmup_ops(self):
        return list(self._warmups)

    def cycle(self):
        ops = [HashOp(t, w, tuple(self.inputs.draw((t, w), length)
                                  for _ in range(batch)))
               for t, w in self.configs() for length, batch in self.SHAPES]
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def work(op):
        return len(op.inputs)


class QualityEval(Workload):
    name = "quality_eval"
    work_name, work_unit = "reports_per_s", "report/s"
    why = ("the CLI eval sweep per config: heavy repetition of hash inputs, "
           "so a memo or dedup gains here and nowhere else")
    SIZES = (25, 50, 100)
    INPUT_WIDTH = 8
    TAIL_PERCENTILE = 75

    def configs(self):
        return list(HASH_CONFIGS)

    def warmup_ops(self):
        return [ReportOp(t, w, 1) for t, w in self.configs()]

    def cycle(self):
        # One batch_sweep(cfg, SIZES) per config, issued a report at a time
        # so each report is a latency sample.
        order = self.configs()
        self.rng.shuffle(order)
        return [ReportOp(t, w, size) for t, w in order for size in self.SIZES]

    @staticmethod
    def work(op):
        return 1


class CipherRoundtrip(Workload):
    name = "cipher_roundtrip"
    work_name, work_unit = "cipher_kib_per_s", "KiB/s"
    why = ("CLI encrypt plus decrypt of PBM files: qaes, codec and cli with "
           "no hashing; the glyph prices per-call cost, 64x64 per-chunk cost")
    # Chunk cost depends on the kinds of a key's mixing gates, so each run
    # averages over several keys.
    KEYS = 8
    GLYPHS_PER_CYCLE = 8
    LARGE = (64, 64)
    GLYPH = (10, 10)
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int):
        super().__init__(seed)
        self.key_seeds = [self.rng.randrange(1 << 31) for _ in range(self.KEYS)]
        self.cycles = 0

    def configs(self):
        return list(range(self.KEYS))

    def warmup_ops(self):
        return [CipherOp(k, *self.GLYPH, None) for k in self.configs()]

    def cycle(self):
        w, h = self.LARGE
        ops = [CipherOp(i % self.KEYS, *self.GLYPH, None)
               for i in range(self.GLYPHS_PER_CYCLE)]
        ops.append(CipherOp(self.cycles % self.KEYS, w, h,
                            format(self.rng.getrandbits(w * h), f"0{w * h}b")))
        self.cycles += 1
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def work(op):
        return op.width * op.height / 8 / 1024


WORKLOADS = {cls.name: cls for cls in (HashStream, QualityEval, CipherRoundtrip)}


def hash_keys(op) -> list:
    """The (config, input) pairs an op hashes, one entry per hash call.

    evaluate_batch hashes each input once and again under every single-bit
    flip for the avalanche score.  A cipher op's pair is (seed, payload).
    """
    if isinstance(op, HashOp):
        return [(op.config, b) for b in op.inputs]
    if isinstance(op, ReportOp):
        width = QualityEval.INPUT_WIDTH
        keys = []
        for v in range(op.size):
            keys.append((op.config, v))
            keys += [(op.config, v ^ (1 << i)) for i in range(width)]
            keys.append((op.config, v))
        return keys
    return [(op.seed_index, op.bits)]


def describe(workload: Workload, cycles: int) -> dict:
    ops = [op for _ in range(cycles) for op in workload.cycle()]
    mix = Counter()
    lengths = Counter()
    chunks = Counter()
    for op in ops:
        if isinstance(op, HashOp):
            mix[f"{len(op.inputs[0])}b x{len(op.inputs)}"] += 1
            lengths[len(op.inputs[0])] += len(op.inputs)
        elif isinstance(op, ReportOp):
            mix[f"size {op.size}"] += 1
            lengths[QualityEval.INPUT_WIDTH] += op.size
        else:
            label = "glyph" if op.bits is None else f"{op.width}x{op.height}"
            mix[label] += 1
            chunks[label] = -(-op.width * op.height // CHUNK_BITS)
    keys = [k for op in ops for k in hash_keys(op)]
    return {
        "configs": len(workload.configs()),
        "ops_per_cycle": len(ops) // cycles,
        "op_mix": dict(sorted(mix.items())),
        "input_bits_mix": dict(sorted(lengths.items())),
        "repeated_pair_share": 1 - len(set(keys)) / len(keys),
        "chunks_per_payload": dict(chunks),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cycles", type=int, default=8)
    args = parser.parse_args()
    for name, cls in WORKLOADS.items():
        props = describe(cls(args.seed), args.cycles)
        print(f"{name} (seed {args.seed}, first {args.cycles} cycles): {cls.why}")
        for key, value in props.items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
