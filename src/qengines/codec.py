"""Image and container codecs: plain PBM bitmaps, seed and cipher JSON files.

Only the plain (P1) PBM flavor is supported; pixels are 1 for black.  Seed
and cipher files are small JSON documents with fixed field names, treated
as bit-exact contracts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .qaes import CipherText, SeedSpec
from .sim import GateOp


class ParseError(ValueError):
    """A file or document that does not match its expected format."""


@dataclass(frozen=True)
class BitImage:
    """A 1-bit image stored as a row-major pixel tuple (1 = black)."""

    width: int
    height: int
    pixels: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        object.__setattr__(self, "pixels", tuple(int(p) for p in self.pixels))
        if len(self.pixels) != self.width * self.height:
            raise ValueError(
                f"pixel count {len(self.pixels)} != {self.width}x{self.height}"
            )
        if set(self.pixels) - {0, 1}:
            raise ValueError("pixels must be 0 or 1")


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
    try:
        width, height = int(tokens[1]), int(tokens[2])
    except (IndexError, ValueError):
        raise ParseError("missing or malformed PBM dimensions") from None
    if width < 1 or height < 1:
        raise ParseError(f"PBM dimensions must be positive, got {width}x{height}")
    digits = "".join(tokens[3:])
    if set(digits) - {"0", "1"}:
        raise ParseError("PBM pixel data must contain only 0/1")
    if len(digits) != width * height:
        raise ParseError(
            f"PBM has {len(digits)} pixels, header says {width}x{height}"
        )
    return BitImage(width, height, tuple(int(ch) for ch in digits))


def write_pbm(img: BitImage) -> bytes:
    """Serialize to plain PBM: magic, dimensions line, one row per line."""
    rows = []
    for r in range(img.height):
        row = img.pixels[r * img.width:(r + 1) * img.width]
        rows.append(" ".join(str(p) for p in row))
    return ("P1\n" + f"{img.width} {img.height}\n" + "\n".join(rows) + "\n").encode(
        "ascii"
    )


def image_to_bits(img: BitImage) -> str:
    """Row-major pixel-to-bit conversion."""
    return "".join(str(p) for p in img.pixels)


def bits_to_image(bits: str, width: int, height: int) -> BitImage:
    if len(bits) != width * height:
        raise ValueError(
            f"{len(bits)} bits cannot fill a {width}x{height} image"
        )
    if set(bits) - {"0", "1"}:
        raise ValueError("bits must contain only 0/1")
    return BitImage(width, height, tuple(int(ch) for ch in bits))


def seed_to_json(seed: SeedSpec) -> str:
    doc = {
        "version": seed.version,
        "sub_table": list(seed.sub_table),
        "mix_gates": [
            {"kind": g.kind, "qubits": list(g.qubits)} for g in seed.mix_gates
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def seed_from_json(text: str) -> SeedSpec:
    try:
        doc = json.loads(text)
        version = int(doc["version"])
        sub_table = tuple(int(v) for v in doc["sub_table"])
        mix_gates = tuple(
            GateOp(str(g["kind"]), tuple(int(q) for q in g["qubits"]))
            for g in doc["mix_gates"]
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed seed document: {exc}") from None
    return SeedSpec(version=version, sub_table=sub_table, mix_gates=mix_gates)


def cipher_to_json(ct: CipherText) -> str:
    return json.dumps({"orig_bit_len": ct.orig_bit_len, "bits": ct.bits},
                      indent=2) + "\n"


def cipher_from_json(text: str) -> CipherText:
    try:
        doc = json.loads(text)
        orig_bit_len = int(doc["orig_bit_len"])
        return CipherText(bits=str(doc["bits"]), orig_bit_len=orig_bit_len)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
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

LETTER_A = BitImage(10, 10, tuple(int(ch) for ch in "".join(_LETTER_A_ROWS)))


def render_ascii(img: BitImage, on: str = "#", off: str = ".") -> str:
    """Terminal rendering of a bit image, one character per pixel."""
    rows = []
    for r in range(img.height):
        row = img.pixels[r * img.width:(r + 1) * img.width]
        rows.append("".join(on if p else off for p in row))
    return "\n".join(rows)
