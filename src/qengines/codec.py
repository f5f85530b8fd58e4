"""Image and container codecs: plain PBM bitmaps, seed and cipher JSON files.

Only the plain (P1) PBM flavor is supported; pixels are 1 for black.  Seed
and cipher files are small ASCII JSON documents with fixed field names and
field types, treated as bit-exact contracts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .qaes import CipherText, SeedSpec
from .sim import GateOp, _bits, _decimal, _integer


class ParseError(ValueError):
    """A file or document that does not match its expected format."""


@dataclass(frozen=True)
class BitImage:
    """A 1-bit image stored as a row-major pixel tuple (1 = black)."""

    width: int
    height: int
    pixels: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        # Kept apart from _integer's lo bound: test_codec and test_cli pin this message.
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        object.__setattr__(self, "pixels", tuple(self.pixels))
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel count {len(self.pixels)} != {self.width}x{self.height}"
            )
        # A type test as well, since 1.0 and True compare equal to 1.
        if set(map(type, self.pixels)) - {int} or set(self.pixels) - {0, 1}:
            raise ValueError("pixels must be the ints 0 or 1")


def read_pbm(data: bytes) -> BitImage:
    """Parse a plain PBM document (magic P1, comments allowed)."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not a plain PBM file: {exc}") from None
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    tokens = " ".join(lines).split()
    if not tokens or tokens[0] != "P1":
        magic = tokens[0] if tokens else "<empty>"
        raise ParseError(f"unsupported magic {magic!r}, expected P1")
    sizes = tokens[1:3]
    if len(sizes) != 2:
        raise ParseError(f"malformed PBM dimensions {' '.join(sizes)!r}, "
                         "expected width and height")
    try:
        return bits_to_image("".join(tokens[3:]), *(_decimal(v, "PBM size") for v in sizes))
    except ValueError as exc:
        raise ParseError(f"malformed PBM: {exc}") from None


def _rows(img: BitImage) -> list[str]:
    bits = image_to_bits(img)
    return [bits[k:k + img.width] for k in range(0, len(bits), img.width)]


def write_pbm(img: BitImage) -> bytes:
    """Serialize to plain PBM: magic, dimensions line, one row per line."""
    rows = "".join(" ".join(row) + "\n" for row in _rows(img))
    return f"P1\n{img.width} {img.height}\n{rows}".encode("ascii")


# The one place 0/1 text and pixel values convert, one C-level pass each way.
_TO_PIXELS = bytes.maketrans(b"01", b"\x00\x01")
_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def image_to_bits(img: BitImage) -> str:
    """Row-major pixel-to-bit conversion."""
    return bytes(img.pixels).translate(_TO_TEXT).decode("ascii")


def bits_to_image(bits: str, width: int, height: int) -> BitImage:
    """Row-major bit-to-pixel conversion; bits must be 0/1 text."""
    pixels = _bits(bits, "pixel bits").encode("ascii").translate(_TO_PIXELS)
    return BitImage(width, height, tuple(pixels))


def seed_to_json(seed: SeedSpec) -> str:
    doc = {
        "version": seed.version,
        "sub_table": list(seed.sub_table),
        "mix_gates": [
            {"kind": g.kind, "qubits": list(g.qubits)} for g in seed.mix_gates
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _typed(value: object, kind: type) -> object:
    # An exact type test, since JSON true is a bool and 1.0 or 1e400 a float.
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _loads(data: str | bytes) -> object:
    return json.loads(data.decode("ascii") if isinstance(data, bytes) else data)


# A document too deeply nested for the JSON parser raises RecursionError.
_DOCUMENT_ERRORS = (KeyError, TypeError, ValueError, RecursionError)


def seed_from_json(data: str | bytes) -> SeedSpec:
    try:
        doc = _loads(data)
        version = _typed(doc["version"], int)
        sub_table = tuple(_typed(v, int) for v in _typed(doc["sub_table"], list))
        mix_gates = tuple(
            GateOp(_typed(g["kind"], str),
                   tuple(_typed(q, int) for q in _typed(g["qubits"], list)))
            for g in _typed(doc["mix_gates"], list)
        )
    except _DOCUMENT_ERRORS as exc:
        raise ParseError(f"malformed seed document: {exc}") from None
    return SeedSpec(version=version, sub_table=sub_table, mix_gates=mix_gates)


def cipher_to_json(ct: CipherText) -> str:
    return json.dumps({"orig_bit_len": ct.orig_bit_len, "bits": ct.bits},
                      indent=2) + "\n"


def cipher_from_json(data: str | bytes) -> CipherText:
    try:
        doc = _loads(data)
        orig_bit_len = _typed(doc["orig_bit_len"], int)
        return CipherText(bits=_typed(doc["bits"], str), orig_bit_len=orig_bit_len)
    except _DOCUMENT_ERRORS as exc:
        raise ParseError(f"malformed cipher document: {exc}") from None


# 10x10 test glyph of the letter A, 1 = black.
_LETTER_A_ROWS = (
    "0000110000",
    "0001111000",
    "0011001100",
    "0110000110",
    "0110000110",
    "0111111110",
    "0111111110",
    "0110000110",
    "0110000110",
    "0110000110",
)

LETTER_A = bits_to_image("".join(_LETTER_A_ROWS), 10, 10)

# render_ascii draws a black pixel as "#" and a white one as ".".
_ASCII_ART = str.maketrans("10", "#.")


def render_ascii(img: BitImage) -> str:
    """Terminal rendering of a bit image, one character per pixel."""
    return "\n".join(_rows(img)).translate(_ASCII_ART)
