"""qengines benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src/``.  The
run generates the workload's inputs from the seed, computes expected
outputs before timing, times whole cycles of ops through the public API
until the timed ops add up to S seconds, and checks every op.  Each
op's time is scaled to a reference host by the reference kernel timed
next to it (see ``reference.py``).  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced cycles with cycles in which each layer's public
functions are wrapped, and reports per-layer metrics plus the tracing
overhead.  The
last line of standard output is the result as JSON; details and the span
file go to ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Set-up is measured this many times per run (this process plus children).
SETUP_SAMPLES = 3
# Fallback tail percentiles, for runs too short for the workload's own.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads of this process at nproc before numpy loads."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= NPROC:
            os.environ[var] = str(NPROC)
    return min(int(os.environ[var]) for var in THREAD_VARS)


THREAD_CAP = _cap_threads()
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402


class Lib:
    """The imported package modules the benchmark calls through."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import qengines
        from qengines import cli, codec, metrics, qaes, qhash, sim
        expected = (SRC / "qengines").resolve()
        if Path(qengines.__file__).resolve().parent != expected:
            raise ImportError(f"qengines was imported from {qengines.__file__}, "
                              f"not from {expected}")
        self.cli, self.codec, self.metrics = cli, codec, metrics
        self.qaes, self.qhash, self.sim = qaes, qhash, sim


class HashRunner:
    def __init__(self, workload, lib, tmp):
        self.lib = lib
        self.cfgs = {c: lib.qhash.HashConfig(*c) for c in workload.configs()}
        self.cycles = 0

    def prepare(self, ops):
        expected = [[oracle.oracle_hash(b, op.template, op.width) for b in op.inputs]
                    for op in ops]
        # Cross-check one width-4 hash per cycle against circuit_unitary,
        # rotating through the request shapes.
        narrow = [i for i, op in enumerate(ops) if op.width == 4]
        i = narrow[self.cycles % len(narrow)]
        op = ops[i]
        if oracle.unitary_hash(op.inputs[0], op.template, 4, self.lib.sim) != expected[i][0]:
            expected[i] = None
        self.cycles += 1
        return expected

    def call(self, op, exp):
        return self.lib.qhash.hash_batch(list(op.inputs), self.cfgs[op.config])

    def check(self, op, exp, out):
        return oracle.check_hashes(exp, out)


class QualityRunner:
    def __init__(self, workload, lib, tmp):
        self.lib = lib
        self.cfgs = {c: lib.qhash.HashConfig(*c) for c in workload.configs()}
        self.width = workload.INPUT_WIDTH
        self.tables = {}

    def prepare(self, ops):
        out = []
        for op in ops:
            if op.config not in self.tables:
                self.tables[op.config] = [
                    oracle.oracle_hash(format(v, f"0{self.width}b"), op.template, op.width)
                    for v in range(1 << self.width)]
            out.append(oracle.expected_report(self.tables[op.config], op.size,
                                              op.width, self.width))
        return out

    def call(self, op, exp):
        return self.lib.metrics.evaluate_batch(self.cfgs[op.config], op.size,
                                               input_width=self.width)

    def check(self, op, exp, out):
        return oracle.check_report(exp, out)


class CipherRunner:
    def __init__(self, workload, lib, tmp):
        self.lib = lib
        self.tmp = tmp
        self.seed_paths = []
        for k, key_seed in enumerate(workload.key_seeds):
            path = tmp / f"seed{k}.json"
            code = lib.cli.main(["keygen", "--rng-seed", str(key_seed),
                                 "--output", str(path)])
            if code != 0:
                raise RuntimeError(f"keygen exited with {code}")
            self.seed_paths.append(path)
        self.glyph = None
        self.specs = {}
        self.count = 0

    def _spec(self, k):
        if k not in self.specs:
            doc = json.loads(self.seed_paths[k].read_text(encoding="ascii"))
            gates = tuple(self.lib.sim.GateOp(g["kind"], tuple(g["qubits"]))
                          for g in doc["mix_gates"])
            self.specs[k] = self.lib.qaes.SeedSpec(doc["version"],
                                                   tuple(doc["sub_table"]), gates)
        return self.specs[k]

    def prepare(self, ops):
        if self.glyph is None:
            letter = self.lib.codec.LETTER_A
            bits = "".join(str(p) for p in letter.pixels)
            path = self.tmp / "glyph.pbm"
            path.write_bytes(oracle.pbm_bytes(letter.width, letter.height, bits))
            self.glyph = (bits, path)
        out = []
        for op in ops:
            if op.bits is None:
                bits, src = self.glyph
            else:
                bits, src = op.bits, self.tmp / f"in{self.count}.pbm"
                src.write_bytes(oracle.pbm_bytes(op.width, op.height, bits))
            out.append({
                "bits": bits, "src": src,
                "cipher": self.tmp / f"cipher{self.count}.json",
                "restored": self.tmp / f"restored{self.count}.pbm",
                "expected": self.lib.qaes.classical_oracle_encrypt(
                    bits, self._spec(op.seed_index)),
            })
            self.count += 1
        return out

    def call(self, op, exp):
        seed = str(self.seed_paths[op.seed_index])
        enc = self.lib.cli.main(["encrypt", "--in", str(exp["src"]), "--seed", seed,
                                 "--output", str(exp["cipher"])])
        dec = self.lib.cli.main(["decrypt", "--in", str(exp["cipher"]), "--seed", seed,
                                 "--dims", f"{op.width}x{op.height}",
                                 "--output", str(exp["restored"])])
        return enc, dec

    def check(self, op, exp, out):
        try:
            ok = (out == (0, 0) and oracle.check_cipher(
                exp["expected"], len(exp["bits"]),
                exp["cipher"].read_text(encoding="ascii"),
                exp["restored"].read_bytes(), exp["src"].read_bytes()))
        except (OSError, UnicodeDecodeError):
            ok = False
        for path in (exp["cipher"], exp["restored"]):
            path.unlink(missing_ok=True)
        if op.bits is not None:
            exp["src"].unlink(missing_ok=True)
        return ok


RUNNERS = {"hash_stream": HashRunner, "quality_eval": QualityRunner,
           "cipher_roundtrip": CipherRunner}


@dataclass
class Stats:
    """Timed ops of a run: ``busy`` is wall time, ``ref_busy`` reference time."""

    latencies: list = field(default_factory=list)
    wall: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    work: float = 0.0
    busy: float = 0.0
    ref_busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    cycles: int = 0


def run_cycle(workload, runner, stats: Stats, op_id: int, tracer=None) -> int:
    """Time and check one cycle of ops into ``stats``; returns the next op id."""
    if tracer is not None:
        tracer.op_id = -2
    ops = workload.cycle()
    expected = runner.prepare(ops)
    pace = reference.kernel_seconds()
    for op, exp in zip(ops, expected):
        if tracer is not None:
            tracer.op_id = op_id
        error = None
        start = time.perf_counter()
        try:
            out = runner.call(op, exp)
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op_id = -2
        after = reference.kernel_seconds()
        scale = reference.scale(pace, after)
        pace = after
        ok = error is None and runner.check(op, exp, out)
        if not ok and stats.failed < 3:
            detail = "".join(traceback.format_exception(error)) if error else "wrong output"
            print(f"op {op_id} failed: {detail}", file=sys.stderr)
        stats.latencies.append(elapsed * scale)
        stats.wall.append(elapsed)
        stats.scales.append(scale)
        stats.busy += elapsed
        stats.ref_busy += elapsed * scale
        stats.work += workload.work(op)
        stats.attempted += 1
        stats.failed += not ok
        op_id += 1
    stats.cycles += 1
    if tracer is not None:
        tracer.end_cycle()
    return op_id


def measure(workload, runner, seconds) -> Stats:
    """Run whole cycles of ops until the timed ops add up to ``seconds``."""
    stats = Stats()
    op_id = 0
    while stats.busy < seconds:
        op_id = run_cycle(workload, runner, stats, op_id)
    return stats


def measure_traced(workload, runner, seconds, tracer):
    """Alternate untraced and traced cycles until their ops add up to ``seconds``.

    Alternating lets both halves see the same machine, so their reference
    time per cycle gives the tracing overhead.  Returns both halves' stats
    and the op ids of the traced ops.
    """
    base, traced, traced_ops = Stats(), Stats(), []
    op_id = 0
    while base.busy + traced.busy < seconds:
        op_id = run_cycle(workload, runner, base, op_id)
        first = op_id
        tracer.install()
        try:
            op_id = run_cycle(workload, runner, traced, op_id, tracer)
        finally:
            tracer.uninstall()
        traced_ops.extend(range(first, op_id))
    return base, traced, traced_ops


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(n: int, preferred: int) -> int:
    """The workload's tail percentile, or a lower one if too few ops ran."""
    for p in (preferred,) + tuple(p for p in TAIL_LADDER if p < preferred):
        if n * (100 - p) >= TAIL_BEYOND * 100:
            return p
    return TAIL_LADDER[-1]


def set_up(workload, tmp, traced: bool):
    """Import, configs and seeds, and one warm-up op per config or seed.

    Returns the runner, the tracer and the set-up time in reference and
    in wall seconds.  The imports are reading and loading files, whose pace
    does not follow the reference kernel's, so only the rest is scaled, by
    the kernel timed before and after it.
    """
    lib = Lib()
    import_s = time.perf_counter() - T0
    before = reference.pace()
    start = time.perf_counter()
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    runner = RUNNERS[workload.name](workload, lib, tmp)
    warmups = workload.warmup_ops()
    work_s = time.perf_counter() - start
    # Warm-up inputs are written and checked outside the set-up time.
    expected = runner.prepare(warmups)
    for op, exp in zip(warmups, expected):
        start = time.perf_counter()
        out = runner.call(op, exp)
        work_s += time.perf_counter() - start
        if not runner.check(op, exp, out):
            raise RuntimeError(f"warm-up op failed: {op}")
    if tracer is not None:
        tracer.uninstall()
    scale = reference.scale(before, reference.pace())
    return runner, tracer, (import_s + work_s * scale, import_s + work_s)


def setup_probe(args) -> tuple[float, float]:
    """Set-up time, in reference and wall seconds, of a fresh process
    running the same workload and seed."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}: {proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    return float(probe["setup_s"]), float(probe["setup_wall_s"])


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": NPROC, "thread_cap": THREAD_CAP, "machine": platform.machine()}


def timings(latencies: list, busy: float, work: float, tail_p: int) -> dict:
    return {
        "work_per_s": work / busy,
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": percentile(latencies, tail_p) * 1000.0,
    }


def end_to_end(stats: Stats, setup_samples: list,
               preferred_tail: int) -> tuple[dict, dict]:
    """End-to-end metrics and run details; ``setup_samples`` holds the
    (reference, wall) seconds of each set-up."""
    tail_p = tail_percentile(stats.attempted, preferred_tail)
    ref_setup, wall_setup = zip(*setup_samples)
    values = {
        "setup_s": statistics.median(ref_setup),
        **timings(stats.latencies, stats.ref_busy, stats.work, tail_p),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wl.END_TO_END}
    detail = {
        "tail_percentile": tail_p,
        "tail_samples_beyond": stats.attempted * (100 - tail_p) / 100,
        "setup_samples_s": ref_setup,
        # The same timings in wall time, as this host ran them.
        "wall": {"setup_s": statistics.median(wall_setup),
                 **timings(stats.wall, stats.busy, stats.work, tail_p)},
        "reference_kernel_ms": {
            "reference": reference.REFERENCE_S * 1000.0,
            "median": reference.REFERENCE_S * 1000.0 / statistics.median(stats.scales),
        },
    }
    return metrics, detail


def run(args) -> int:
    if not (SRC / "qengines" / "__init__.py").is_file():
        print(f"error: no qengines sources under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload](args.seed)
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        runner, tracer, setup = set_up(workload, tmp, bool(args.trace))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0], "setup_wall_s": setup[1]}))
            return 0
        import selftest
        selftest.run_all()
        if args.trace:
            import tracing
            base, stats, traced_ops = measure_traced(workload, runner, args.seconds,
                                                     tracer)
            overhead = 100.0 * (stats.ref_busy / base.ref_busy - 1.0)
            metrics = tracing.layer_metrics(tracer, traced_ops, stats.scales, overhead)
            detail = {"untraced_s_per_cycle": base.ref_busy / base.cycles,
                      "traced_s_per_cycle": stats.ref_busy / stats.cycles,
                      "spans": len(tracer.end),
                      "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      "unlisted_spans": tracing.unlisted_spans(tracer)}
            attempted = base.attempted + stats.attempted
            failed = base.failed + stats.failed
            cycles = base.cycles + stats.cycles
        else:
            stats = measure(workload, runner, args.seconds)
            samples = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            metrics, detail = end_to_end(stats, samples, workload.TAIL_PERCENTILE)
            attempted, failed, cycles = stats.attempted, stats.failed, stats.cycles
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "cycles": cycles,
              "failed_ratio": failed / attempted, **detail, **result}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{args.workload}-spans.npz")

    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload {args.workload} seed {args.seed}: {cycles} cycles, "
          f"{attempted} ops, {failed} failed, failed_ratio {failed / attempted:g}")
    if args.trace:
        print(f"# traced: {detail['spans']} spans; layers never called report 0 "
              "and are not listed here")
    for name, m in metrics.items():
        if args.trace and not m["value"]:
            continue
        label, unit = name, m["unit"]
        if name == "work_per_s":
            label, unit = f"{workload.work_name} (work_per_s)", workload.work_unit
        elif name == "op_tail_ms":
            label = (f"op_tail_ms (p{detail['tail_percentile']:g} of {stats.attempted} ops, "
                     f"{detail['tail_samples_beyond']:g} beyond)")
        print(f"{label} = {m['value']:.6g} {unit}")
    if not args.trace:
        print(f"failed_ratio = {failed / attempted:g} ratio")
        kernel = detail["reference_kernel_ms"]
        print(f"# timings above are reference time; reference kernel {kernel['median']:.4g} ms "
              f"here against {kernel['reference']:g} ms; wall time: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in detail["wall"].items()))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qengines benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
