"""Command line front end for hashing, metrics, key generation, and the cipher.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 I/O error.
Angle flags are given in units of pi, so ``--theta1 1.0`` means pi radians.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from pathlib import Path

from . import codec, metrics, qaes, qhash
from .codec import ParseError
from .sim import NoiseModel, _decimal, _real

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4


def _write_atomic(path: str | Path, data: bytes, private: bool = False) -> None:
    # Write to a sibling temp file, then rename into place.  mkstemp makes it
    # 0600, which a private file keeps; any other gets the umask's default mode.
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name)
    try:
        with os.fdopen(fd, "wb") as fh:
            if not private:
                umask = os.umask(0o077)  # read by setting it, then put back at once
                os.umask(umask)
                os.chmod(tmp, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | Path | None, private: bool = False) -> None:
    if output:
        _write_atomic(output, text.encode("ascii"), private)
    else:
        sys.stdout.write(text)


def _parse_input_bits(spec: str) -> str:
    if spec.startswith("bits:"):
        return spec[len("bits:"):]
    if spec.startswith("hex:"):
        digits = spec[len("hex:"):]
        try:
            data = bytes.fromhex(digits)
        except ValueError:
            raise ValueError(f"bad hex input {digits!r}") from None
    elif spec.startswith("file:"):
        data = Path(spec[len("file:"):]).read_bytes()
    else:
        raise ValueError(f"input must start with bits:, hex:, or file:, got {spec!r}")
    if not data:
        raise ValueError(f"input {spec!r} is empty")
    return qhash.to_bitstring(data, 8 * len(data))


def _parse_noise(spec: str) -> NoiseModel:
    parts = spec.split(",")
    if len(parts) != 2:
        raise ValueError(f"noise must be 'p,q', got {spec!r}")
    return NoiseModel(*(_decimal(part, "--noise") for part in parts))


def _hash_config(args: argparse.Namespace) -> qhash.HashConfig:
    # _real first: the product would overflow for an int past the float range.
    angles = {k: _real(_decimal(getattr(args, k), f"--{k}"), f"--{k}") * math.pi
              for k in ("theta1", "phi1", "theta2", "phi2")}
    return qhash.HashConfig(
        template=args.template,
        n_qubits=_decimal(args.qubits, "--qubits"),
        **angles,
        mode=args.mode,
        shots=_decimal(args.shots, "--shots"),
        rng_seed=_decimal(args.rng_seed, "--rng-seed"),
        noise=_parse_noise(args.noise),
    )


def _cmd_hash(args: argparse.Namespace) -> int:
    bits = _parse_input_bits(args.input)
    value = qhash.hash_bits(bits, _hash_config(args))
    _emit(value + "\n", args.output)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    sizes = [_decimal(s, "--batch-sizes") for s in args.batch_sizes.split(",")]
    cfg = _hash_config(args)
    results = metrics.batch_sweep(cfg, sizes, _decimal(args.input_width, "--input-width"))
    summary = metrics.summary_csv([report for _, report in results])
    hists = [(size, metrics.histogram_csv(report.histogram)) for size, report in results]
    if args.output:
        out = Path(args.output)
        _emit(summary, out)
        for size, text in hists:
            _emit(text, out.with_name(f"{out.stem}_hist_{size}{out.suffix or '.csv'}"))
    else:
        stdout = summary + "".join(f"# histogram batch={size}\n{text}" for size, text in hists)
        _emit(stdout, None)
    return EXIT_OK


def _cmd_keygen(args: argparse.Namespace) -> int:
    seed = qaes.keygen(_decimal(args.rng_seed, "--rng-seed"), _decimal(args.gates, "--gates"))
    _emit(codec.seed_to_json(seed), args.output or "seed.json", private=True)
    return EXIT_OK


def _load_seed(path: str) -> qaes.SeedSpec:
    seed = codec.seed_from_json(Path(path).read_bytes())
    qaes._require_structure(seed)
    return seed


def _cmd_encrypt(args: argparse.Namespace) -> int:
    if args.preview and args.infile.startswith("bits:"):
        raise ValueError("--preview needs an image input")
    seed = _load_seed(args.seed)
    image = None
    if args.infile.startswith("bits:"):
        bits = _parse_input_bits(args.infile)
    else:
        image = codec.read_pbm(Path(args.infile).read_bytes())
        bits = codec.image_to_bits(image)
    ct = qaes.encrypt(bits, seed)
    _emit(codec.cipher_to_json(ct), args.output or "cipher.json")
    if args.preview:
        span = image.width * image.height
        padded = ct.bits[:span].ljust(span, "0")
        preview = codec.bits_to_image(padded, image.width, image.height)
        _emit(codec.write_pbm(preview).decode("ascii"), args.preview)
    return EXIT_OK


def _cmd_decrypt(args: argparse.Namespace) -> int:
    seed = _load_seed(args.seed)
    ct = codec.cipher_from_json(Path(args.infile).read_bytes())
    bits = qaes.decrypt(ct, seed)
    text = bits + "\n"
    if args.dims:
        sizes = args.dims.lower().split("x")
        if len(sizes) != 2:
            raise ValueError(f"bad --dims {args.dims!r}, expected WxH")
        img = codec.bits_to_image(bits, *(_decimal(v, "--dims") for v in sizes))
        text = codec.write_pbm(img).decode("ascii")
    _emit(text, args.output)
    return EXIT_OK


def _add_hash_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--template", required=True, choices=qhash.TEMPLATES)
    p.add_argument("--qubits", default="4")
    p.add_argument("--theta1", default="1.0",
                   help="first-layer angle for bit 1, in units of pi")
    p.add_argument("--phi1", default="0.0",
                   help="first-layer angle for bit 0, in units of pi")
    p.add_argument("--theta2", default="1.0")
    p.add_argument("--phi2", default="0.0")
    p.add_argument("--mode", choices=(qhash.MODE_EXACT, qhash.MODE_SAMPLED),
                   default=qhash.MODE_EXACT)
    p.add_argument("--shots", default="1000")
    p.add_argument("--rng-seed", default="0")
    p.add_argument("--noise", default="0,0", help="depolarizing,readout as 'p,q'")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="qengines",
        description="Circuit-based hashing, hash quality metrics, and a "
                    "reversible-gate block cipher.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None)

    sub = parser.add_subparsers(dest="command", required=True)

    p_hash = sub.add_parser("hash", parents=[common],
                            help="hash a bitstring, hex string, or file")
    p_hash.add_argument("--input", required=True,
                        help="bits:..., hex:..., or file:PATH")
    _add_hash_flags(p_hash)
    p_hash.set_defaults(func=_cmd_hash)

    p_eval = sub.add_parser("eval", parents=[common],
                            help="hash integer batches and report quality metrics")
    p_eval.add_argument("--batch-sizes", default="25,50,100")
    p_eval.add_argument("--input-width", default="8")
    _add_hash_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_keygen = sub.add_parser("keygen", parents=[common],
                              help="generate a seed file")
    p_keygen.add_argument("--gates", default="12", help="number of mixing gates")
    p_keygen.add_argument("--rng-seed", default="0")
    p_keygen.set_defaults(func=_cmd_keygen)

    p_encrypt = sub.add_parser("encrypt", parents=[common],
                               help="encrypt a PBM image or bits")
    p_encrypt.add_argument("--in", dest="infile", required=True,
                           help="PBM path or bits:...")
    p_encrypt.add_argument("--seed", required=True, help="seed file path")
    p_encrypt.add_argument("--preview", default=None,
                           help="optional cipher-preview PBM path")
    p_encrypt.set_defaults(func=_cmd_encrypt)

    p_decrypt = sub.add_parser("decrypt", parents=[common],
                               help="decrypt a cipher file")
    p_decrypt.add_argument("--in", dest="infile", required=True,
                           help="cipher file path")
    p_decrypt.add_argument("--seed", required=True, help="seed file path")
    p_decrypt.add_argument("--dims", default=None,
                           help="WxH to emit a PBM instead of bits")
    p_decrypt.set_defaults(func=_cmd_decrypt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
