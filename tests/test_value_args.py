"""Every real argument, 0/1 string and number text follows one rule each.

A real is a Python or NumPy int or float that is finite and in range; a
bool, a string, None, NaN or an infinity raises ValueError naming the
argument.  A 0/1 string is a str holding only "0" and "1"; anything else
raises ValueError naming the argument and the first bad character.  A
batch of them is never a bare str.  Number text is ASCII decimal.
"""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qengines
from qengines import cli
from qengines import (
    CipherText,
    Circuit,
    GateOp,
    HashConfig,
    NoiseModel,
    ParseError,
    avalanche_score,
    bits_to_image,
    bucket_histogram,
    chi_squared_survival,
    encrypt,
    hash_batch,
    hash_bits,
    keygen,
    noisy_sample,
    read_pbm,
    regularized_gamma_q,
    rx,
    x,
)
from qengines.sim import _decimal

SEED = keygen(0)


def _said(name):
    # The message starts with the argument name, or follows a "malformed ...: ".
    return rf"(^|: ){re.escape(name)} must"


# (site, call with the argument under test, the value it keeps, name in the
# message, a valid value, values just outside the range)
REAL_SITES = [
    ("GateOp.angle", lambda v: GateOp("RX", (0,), angle=v), lambda g: g.angle,
     "RX angle", 0.5, ()),
    ("rx.theta", lambda v: rx(v, 0), lambda g: g.angle, "RX angle", 0.5, ()),
    *[(f"HashConfig.{f}", lambda v, f=f: HashConfig("PQC3", **{f: v}),
       lambda c, f=f: getattr(c, f), f, 0.5, ())
      for f in ("theta1", "phi1", "theta2", "phi2")],
    ("NoiseModel.depolarizing_p", lambda v: NoiseModel(v, 0.0),
     lambda m: m.depolarizing_p, "depolarizing_p", 0.25, (-0.1, 1.1)),
    ("NoiseModel.readout_flip_q", lambda v: NoiseModel(0.0, v),
     lambda m: m.readout_flip_q, "readout_flip_q", 0.25, (-0.1, 1.1)),
    ("regularized_gamma_q.a", lambda v: regularized_gamma_q(v, 1.0), float, "a", 2.0, ()),
    ("regularized_gamma_q.x", lambda v: regularized_gamma_q(2.0, v), float, "x", 1.0, ()),
    ("chi_squared_survival.x", lambda v: chi_squared_survival(v, 3), float, "x", 1.5, ()),
]

HUGE = -10 ** 400  # a Python int past the float range
BAD_REALS = (True, "1", None, math.nan, math.inf, -math.inf, HUGE)


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{site}-{'-10**400' if bad is HUGE else repr(bad)}")
    for site, call, _, name, _, outside in REAL_SITES
    for bad in (*BAD_REALS, *outside)
])
def test_real_argument_rejected(call, name, bad):
    with pytest.raises(ValueError, match=_said(name)):
        call(bad)


@pytest.mark.parametrize("call, kept, good, scalar", [
    pytest.param(call, kept, good, scalar, id=f"{site}-{scalar.__name__}")
    for site, call, kept, _, good, _ in REAL_SITES
    for scalar in (np.float64, np.float32)
])
def test_numpy_real_kept_as_plain_float(call, kept, good, scalar):
    value = kept(call(scalar(good)))
    assert type(value) is float
    assert value == kept(call(good))


def test_integers_kept_as_plain_float():
    assert type(rx(np.int64(1), 0).angle) is float
    assert type(HashConfig("PQC3", phi1=0).phi1) is float
    assert NoiseModel(np.uint8(1), 0) == NoiseModel(1.0, 0.0)


# (site, call with the noise model under test): sim._noise_model owns the rule.
NOISE_SITES = [
    ("noisy_sample.noise", lambda v: noisy_sample(Circuit(1, (x(0),)), 0, 10, v, 0)),
    ("HashConfig.noise-exact", lambda v: HashConfig("PQC3", noise=v)),
    ("HashConfig.noise-sampled", lambda v: HashConfig("PQC3", mode="sampled", noise=v)),
]


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, bad, id=f"{site}-{bad!r}")
    for site, call in NOISE_SITES for bad in ("x", None, 0.02, (0.02, 0.02))
])
def test_noise_argument_rejected(call, bad):
    message = f"noise must be a NoiseModel, got {type(bad).__name__}"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(bad)


# (site, call with the 0/1 string under test, name in the message, a valid value)
BIT_SITES = [
    ("hash_bits.input", lambda v: hash_bits(v, HashConfig("PQC3")), "input bits", "0110"),
    ("encrypt.plaintext", lambda v: encrypt(v, SEED), "plaintext", "0110"),
    ("CipherText.bits", lambda v: CipherText(v, 4), "cipher bits", "0110"),
    ("bucket_histogram.hash", lambda v: bucket_histogram([v], 3), "hash", "011"),
    ("bits_to_image.bits", lambda v: bits_to_image(v, len(v), 1), "pixel bits", "011"),
]

BAD_BITS = ("-01", "0b1", " 01", "1_0", "012", list("0101"))


@pytest.mark.parametrize("call, name, bad", [
    pytest.param(call, name, bad, id=f"{site}-{bad!r}")
    for site, call, name, _ in BIT_SITES for bad in BAD_BITS
])
def test_bitstring_argument_rejected(call, name, bad):
    with pytest.raises(ValueError, match=_said(name)):
        call(bad)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=site) for site, call, _, good in BIT_SITES
])
def test_bitstring_argument_accepted(call, good):
    call(good)


def test_bitstring_message_names_the_first_bad_character_only():
    bits = "0" * 5000 + "x1y"
    with pytest.raises(ValueError) as exc:
        encrypt(bits, SEED)
    assert str(exc.value) == "plaintext must contain only 0/1, got 'x' at index 5000"


# (site, call with a bare str where a list of bitstrings belongs, name in the message)
BATCH_SITES = [
    ("hash_batch.inputs", lambda v: hash_batch(v, HashConfig("PQC3")), "inputs"),
    ("avalanche_score.inputs", lambda v: avalanche_score(HashConfig("PQC3"), v), "inputs"),
    ("bucket_histogram.hashes", lambda v: bucket_histogram(v, 1), "hashes"),
]


@pytest.mark.parametrize("call, name", [
    pytest.param(call, name, id=site) for site, call, name in BATCH_SITES
])
def test_bare_str_batch_rejected(call, name):
    # Iterated, "0101" would be four one-bit items.
    with pytest.raises(ValueError, match=_said(name)):
        call("0101")


@pytest.mark.parametrize("text, value", [
    ("4", 4), ("04", 4), ("-1", -1), ("0", 0), ("4.0", 4.0), ("1.", 1.0),
    (".5", 0.5), ("-.5", -0.5), ("5e-1", 0.5), ("1e0", 1.0), ("1E+3", 1000.0),
])
def test_decimal_text_read(text, value):
    # Digits only read as an int; a point or an exponent as a float.
    read = _decimal(text, "--flag")
    assert (type(read), read) == (type(value), value)


@pytest.mark.parametrize("text", [
    "", "-", ".", "+4", " 4", "4 ", "1_0", "\u0664", "abc", "e5", "1e", "--1",
    "1.5.2", "0x10", "inf", "nan", "1,5",
])
def test_decimal_text_rejected(text):
    with pytest.raises(ValueError, match=_said("--flag")):
        _decimal(text, "--flag")


def test_pbm_pixels_go_through_the_bit_rule():
    with pytest.raises(ParseError, match=_said("pixel bits") + r".*'2' at index 1"):
        read_pbm(b"P1\n2 1\n1 2\n")


def test_rules_have_one_owner_in_the_source():
    # A second finiteness test, 0/1 character set or number parser would be
    # a second rule.  A token must start a word, so NumPy's dtype=float is no
    # argparse type=float.
    package = Path(qengines.__file__).parent
    tokens = ("math.isfinite(", '{"0", "1"}', "isdigit(", "type=int", "type=float")
    found = [(path.name, token) for path in sorted(package.glob("*.py")) for token in tokens
             if path.name != "sim.py"
             and re.search(r"(?<!\w)" + re.escape(token), path.read_text())]
    assert found == []
    sim = (package / "sim.py").read_text()
    assert "def _real(" in sim and "def _bits(" in sim and "def _decimal(" in sim
    assert "float(" not in inspect.getsource(cli._parse_noise)
