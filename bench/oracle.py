"""Expected values and output checkers for the benchmark.

Hash expectations come from bit and label propagation, written here
without the library's circuit code: at the default angles (theta = pi,
phi = 0) an encoding layer is a set of X flips, so every template keeps
each qubit in either the Z or the X basis and the modal outcome follows
by hand.  Report expectations are recomputed from those hashes, with a
closed-form chi-squared survival function.  Every tolerance is fixed
below, before any run.
"""

from __future__ import annotations

import json
import math

COLLISION_TOL = 1e-12
CHI2_REL_TOL = 1e-9
P_REL_TOL = 1e-7
P_ABS_TOL = 1e-12
AVALANCHE_TOL = 1e-12
UNITARY_TIE_TOL = 1e-9


def entangler(template: str, n: int) -> list[tuple]:
    """A template's fixed block as ("H", q) and ("CX", control, target) steps."""
    ring = [("CX", i, (i + 1) % n) for i in range(n)] if n >= 2 else []
    if template == "PQC1":
        return [("H", q) for q in range(n)] + ring
    if template == "PQC2":
        return [("CX", i, i + 1) for i in range(n - 1)]
    if template == "PQC3":
        return [("CX", i, j) for i in range(n) for j in range(i + 1, n)]
    if template == "PQC4":
        return []
    if template == "PQC5":
        reverse = [("CX", i, (i - 1) % n) for i in range(n)] if n >= 2 else []
        return ring + reverse
    raise ValueError(f"unknown template {template!r}")


def _blocks(bits: str, n: int) -> list[str]:
    padded = bits + "0" * ((-len(bits)) % n)
    return [padded[k:k + n] for k in range(0, len(padded), n)]


_FLIP_Z = {"0": "1", "1": "0", "+": "+", "-": "-"}
_HADAMARD = {"0": "+", "1": "-", "+": "0", "-": "1"}


def oracle_hash(bits: str, template: str, n: int) -> str:
    """Default-angle hash by propagating Z/X basis labels per qubit.

    A half-turn X rotation flips a Z label and fixes an X label; H swaps
    the bases; a CX whose target is '-' toggles an X-basis control (phase
    kickback), a Z-basis pair acts classically, and the remaining cases
    change only a global phase.  Qubits left in the X basis measure as a
    uniform coin, so the smallest-index tie break reads them as 0.
    """
    steps = entangler(template, n)
    state = ["0"] * n
    for block in _blocks(bits, n):
        for j, ch in enumerate(block):
            if ch == "1":
                q = n - 1 - j
                state[q] = _FLIP_Z[state[q]]
        for step in steps:
            if step[0] == "H":
                state[step[1]] = _HADAMARD[state[step[1]]]
                continue
            _, c, t = step
            if state[t] == "-" and state[c] in "+-":
                state[c] = "+" if state[c] == "-" else "-"
            elif state[t] in "01":
                if state[c] in "+-":
                    raise ValueError("label propagation cannot follow an entangled pair")
                if state[c] == "1":
                    state[t] = _FLIP_Z[state[t]]
    return "".join("0" if state[q] in "+-" else state[q] for q in reversed(range(n)))


def unitary_hash(bits: str, template: str, n: int, sim) -> str:
    """Cross-check through ``sim.circuit_unitary`` on a circuit built here.

    The circuit follows the encoding rule directly (bit j of a block drives
    qubit n-1-j, RX(pi) for 1 and RX(0) for 0) rather than calling
    qhash.build_hash_circuit; ties within UNITARY_TIE_TOL go to the
    smallest index.
    """
    gates = {"H": sim.h, "CX": sim.cx}
    ops = []
    for block in _blocks(bits, n):
        ops += [sim.rx(math.pi if ch == "1" else 0.0, n - 1 - j)
                for j, ch in enumerate(block)]
        ops += [gates[step[0]](*step[1:]) for step in entangler(template, n)]
    column = sim.circuit_unitary(sim.Circuit(n, tuple(ops)))[:, 0]
    probs = [abs(a) ** 2 for a in column]
    top = max(probs)
    index = min(i for i, p in enumerate(probs) if p >= top - UNITARY_TIE_TOL)
    return format(index, f"0{n}b")


def chi2_survival_odd(x: float, df: int) -> float:
    """P(X >= x) for chi-squared with odd df, by the closed-form series.

    Q = erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) sum_{j=1}^{(df-1)/2}
    x^(j-1) / (1*3*...*(2j-1)), summed in log space so large x cannot
    overflow.
    """
    if df % 2 != 1:
        raise ValueError(f"df must be odd, got {df}")
    if x <= 0.0:
        return 1.0
    total = math.erfc(math.sqrt(x / 2.0))
    log_term = 0.5 * math.log(2.0 * x / math.pi) - x / 2.0
    for j in range(1, (df - 1) // 2 + 1):
        total += math.exp(log_term)
        log_term += math.log(x) - math.log(2 * j + 1)
    return min(1.0, total)


def expected_report(table: list[str], size: int, n: int, width: int) -> dict:
    """Report fields for evaluate_batch(cfg, size, input_width=width).

    ``table[v]`` is the oracle hash of integer v rendered in ``width`` bits.
    """
    buckets = 1 << n
    counts = [0] * buckets
    for v in range(size):
        counts[int(table[v], 2)] += 1
    mean = size / buckets
    stdev = math.sqrt(sum((c - mean) ** 2 for c in counts) / buckets)
    chi2 = sum((c - mean) ** 2 for c in counts) / mean
    flips = sum(
        sum(a != b for a, b in zip(table[v], table[v ^ (1 << (width - 1 - i))]))
        for v in range(size) for i in range(width)
    )
    return {
        "counts": counts,
        "total": size,
        "collision_rate": (mean + stdev) / buckets,
        "chi_squared": chi2,
        "p_value": chi2_survival_odd(chi2, buckets - 1),
        "avalanche_mean": flips / n / (size * width),
    }


def check_hashes(expected: list[str] | None, got) -> bool:
    """A hash op passes when every output equals its oracle hash."""
    return expected is not None and list(got) == expected


def check_report(expected: dict, report) -> bool:
    """Histogram exactly; the derived statistics to the fixed tolerances."""
    try:
        counts = [int(c) for c in report.histogram.counts]
        return (
            counts == expected["counts"]
            and int(report.histogram.total) == expected["total"]
            and math.isclose(report.collision_rate, expected["collision_rate"],
                             rel_tol=COLLISION_TOL, abs_tol=COLLISION_TOL)
            and math.isclose(report.chi_squared, expected["chi_squared"],
                             rel_tol=CHI2_REL_TOL, abs_tol=CHI2_REL_TOL)
            and math.isclose(report.p_value, expected["p_value"],
                             rel_tol=P_REL_TOL, abs_tol=P_ABS_TOL)
            and report.avalanche_mean is not None
            and math.isclose(report.avalanche_mean, expected["avalanche_mean"],
                             rel_tol=0.0, abs_tol=AVALANCHE_TOL)
        )
    except (AttributeError, TypeError, ValueError):
        return False


def check_cipher(expected_bits: str, plain_len: int, cipher_json: str,
                 restored: bytes, original: bytes) -> bool:
    """Ciphertext equals the classical oracle; the restored PBM is byte-identical."""
    try:
        doc = json.loads(cipher_json)
    except json.JSONDecodeError:
        return False
    return (isinstance(doc, dict) and doc.get("bits") == expected_bits
            and doc.get("orig_bit_len") == plain_len and restored == original)


def pbm_bytes(width: int, height: int, bits: str) -> bytes:
    """Plain PBM in the canonical layout: magic, dimensions, one row per line."""
    rows = "\n".join(" ".join(bits[r * width:(r + 1) * width]) for r in range(height))
    return f"P1\n{width} {height}\n{rows}\n".encode("ascii")
