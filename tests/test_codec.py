"""Codec tests: PBM round trips, bit conversions, seed/cipher documents."""

import numpy as np
import pytest

from qengines import (
    LETTER_A,
    BitImage,
    CipherText,
    ParseError,
    SeedSpec,
    bits_to_image,
    cipher_from_json,
    cipher_to_json,
    cx,
    decrypt,
    encrypt,
    image_to_bits,
    keygen,
    read_pbm,
    render_ascii,
    seed_from_json,
    seed_to_json,
    swap,
    write_pbm,
    x,
)


# ---------------------------------------------------------------- PBM

def test_read_pbm_basic():
    img = read_pbm(b"P1\n2 2\n1 0\n0 1\n")
    assert (img.width, img.height) == (2, 2)
    assert img.pixels == (1, 0, 0, 1)


def test_read_pbm_packed_rows_and_comments():
    img = read_pbm(b"P1\n# glyph\n2 2\n10\n01\n")
    assert img.pixels == (1, 0, 0, 1)


def test_read_pbm_rejects_other_magic():
    with pytest.raises(ParseError, match="magic"):
        read_pbm(b"P5\n2 2\n...")


def test_read_pbm_rejects_dimension_mismatch():
    with pytest.raises(ParseError):
        read_pbm(b"P1\n2 2\n1 0 0\n")
    with pytest.raises(ParseError):
        read_pbm(b"P1\n2\n1 0\n")
    with pytest.raises(ParseError, match="positive"):
        read_pbm(b"P1\n0 5\n")
    with pytest.raises(ParseError, match="positive"):
        read_pbm(b"P1\n-2 -1\n1 0\n")


def test_pbm_round_trip_10x10():
    assert read_pbm(write_pbm(LETTER_A)) == LETTER_A


def test_pbm_round_trip_random_images():
    rng = np.random.default_rng(42)
    for _ in range(20):
        w = int(rng.integers(1, 33))
        hgt = int(rng.integers(1, 33))
        pixels = tuple(int(p) for p in rng.integers(0, 2, size=w * hgt))
        img = BitImage(w, hgt, pixels)
        assert read_pbm(write_pbm(img)) == img


# ---------------------------------------------------------------- bits

def test_image_to_bits_row_major():
    assert image_to_bits(BitImage(2, 2, (1, 0, 0, 1))) == "1001"


def test_bits_to_image_inverse():
    img = BitImage(3, 2, (1, 0, 1, 0, 1, 0))
    assert bits_to_image(image_to_bits(img), 3, 2) == img


def test_bits_to_image_rejects_wrong_length():
    with pytest.raises(ValueError):
        bits_to_image("101", 2, 2)


def test_bit_image_validation():
    with pytest.raises(ValueError):
        BitImage(0, 3, ())
    with pytest.raises(ValueError):
        BitImage(2, 2, (1, 0, 2, 0))
    with pytest.raises(ValueError):
        BitImage(1, 1, (1.7,))
    with pytest.raises(ValueError):
        BitImage(2, 1, ("1", True))
    with pytest.raises(ValueError):
        BitImage(True, True, (1,))
    with pytest.raises(ValueError):
        BitImage(2.0, 1, (1, 0))
    image = BitImage(np.int64(2), np.uint8(1), (1, 0))
    assert (type(image.width), type(image.height)) == (int, int)
    assert write_pbm(image) == b"P1\n2 1\n1 0\n"


# ---------------------------------------------------------------- glyph

def test_letter_a_shape():
    assert (LETTER_A.width, LETTER_A.height) == (10, 10)
    bits = image_to_bits(LETTER_A)
    assert len(bits) == 100
    assert set(bits) == {"0", "1"}


def test_letter_a_survives_encryption_round_trip():
    bits = image_to_bits(LETTER_A)
    for s in (4, 5):
        seed = keygen(s)
        restored = decrypt(encrypt(bits, seed), seed)
        assert bits_to_image(restored, 10, 10) == LETTER_A


def test_cipher_image_is_not_the_glyph():
    bits = image_to_bits(LETTER_A)
    for s in (6, 7, 8):
        ct = encrypt(bits, keygen(s))
        mismatches = sum(a != b for a, b in zip(bits, ct.bits))
        assert mismatches > 0


def test_render_ascii():
    art = render_ascii(BitImage(2, 2, (1, 0, 0, 1)))
    assert art == "#.\n.#"


# ---------------------------------------------------------------- documents

def test_seed_json_round_trip():
    seed = SeedSpec(1, tuple(range(16)), (cx(0, 1), x(3), swap(1, 2)))
    assert seed_from_json(seed_to_json(seed)) == seed


def test_seed_json_layout():
    import json
    seed = keygen(9)
    doc = json.loads(seed_to_json(seed))
    assert set(doc) == {"version", "sub_table", "mix_gates"}
    assert len(doc["sub_table"]) == 16
    assert all(set(g) == {"kind", "qubits"} for g in doc["mix_gates"])


def test_seed_json_rejects_garbage():
    with pytest.raises(ParseError):
        seed_from_json("not json")
    with pytest.raises(ParseError):
        seed_from_json("{}")
    with pytest.raises(ParseError):
        seed_from_json('{"version": 1, "sub_table": [], "mix_gates": '
                       '[{"kind": "RX", "qubits": [0]}]}')


def test_cipher_json_round_trip():
    ct = CipherText("00111001", 8)
    assert cipher_from_json(cipher_to_json(ct)) == ct


def test_cipher_json_rejects_garbage():
    with pytest.raises(ParseError):
        cipher_from_json("[1,2,3]")
    for doc in ('{"orig_bit_len": 1, "bits": "001"}',
                '{"orig_bit_len": 4, "bits": "01x1"}',
                '{"orig_bit_len": 4, "bits": [0, 1, 1, 0]}',
                '{"orig_bit_len": 9, "bits": "00111001"}'):
        with pytest.raises(ParseError):
            cipher_from_json(doc)
