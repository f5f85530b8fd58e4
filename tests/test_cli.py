"""Command line tests driven through main(argv)."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qengines import LETTER_A, qaes, qhash, validate_seed, seed_from_json, write_pbm
from qengines.cli import build_parser, main


def run_ok(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


# ---------------------------------------------------------------- hash

def test_hash_bits_input(capsys):
    out = run_ok(["hash", "--input", "bits:11110000", "--template", "PQC4"],
                 capsys)
    assert out.strip() == "1111"


def test_hash_golden_stable(capsys):
    first = run_ok(["hash", "--input", "bits:00000000", "--template", "PQC1"],
                   capsys)
    second = run_ok(["hash", "--input", "bits:00000000", "--template", "PQC1"],
                    capsys)
    assert first == second
    assert first.strip() == "0000"


def test_hash_hex_input(capsys):
    out = run_ok(["hash", "--input", "hex:f0", "--template", "PQC4"], capsys)
    assert out.strip() == "1111"


def test_hash_file_input(tmp_path, capsys):
    path = tmp_path / "data.bin"
    path.write_bytes(b"\xf0")
    out = run_ok(["hash", "--input", f"file:{path}", "--template", "PQC4"],
                 capsys)
    assert out.strip() == "1111"


def test_hash_angles_in_pi_units(capsys):
    # theta 1.0 means a half turn, so this matches the default encoding.
    out = run_ok(["hash", "--input", "bits:11110000", "--template", "PQC4",
                  "--theta1", "1.0", "--theta2", "1.0"], capsys)
    assert out.strip() == "1111"


def test_hash_sampled_mode_deterministic(capsys):
    argv = ["hash", "--input", "bits:01100011", "--template", "PQC3",
            "--mode", "sampled", "--shots", "300", "--noise", "0.01,0.01",
            "--rng-seed", "5"]
    assert run_ok(argv, capsys) == run_ok(argv, capsys)


def test_hash_missing_input_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["hash", "--template", "PQC4"])
    assert exc.value.code == 2


def test_hash_bad_input_is_validation_error(capsys):
    assert main(["hash", "--input", "bits:0a1", "--template", "PQC4"]) == 3
    assert main(["hash", "--input", "raw", "--template", "PQC4"]) == 3


@pytest.mark.parametrize("angle", ["nan", "inf"])
def test_hash_non_finite_angle_is_validation_error(angle, capsys):
    assert main(["hash", "--input", "bits:1011", "--template", "PQC3",
                 "--theta1", angle]) == 3
    assert "theta1" in capsys.readouterr().err


def test_hash_output_file(tmp_path, capsys):
    out_path = tmp_path / "hash.txt"
    main(["hash", "--input", "bits:11110000", "--template", "PQC4",
          "--output", str(out_path)])
    assert out_path.read_text().strip() == "1111"


# ---------------------------------------------------------------- eval

def test_eval_writes_summary_and_histograms(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main(["eval", "--template", "PQC3", "--batch-sizes", "25,50,100",
                 "--input-width", "8", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "total,collision_rate,chi_squared,p_value,avalanche"
    assert len(lines) == 4
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates[0] <= rates[1] <= rates[2]
    for size in (25, 50, 100):
        hist = (tmp_path / f"report_hist_{size}.csv").read_text().strip().split("\n")
        assert hist[0] == "bucket,count"
        assert sum(int(line.split(",")[1]) for line in hist[1:]) == size


def test_eval_rotation_only_template_does_not_undercut_entangled_one(tmp_path):
    # At the default 0/pi encoding both templates spread inputs 0..99 into
    # twelve buckets of 6 and four of 7, the floor/ceiling split of 100/16 and
    # so the integer minimum chi-squared 0.48, so their p-values coincide.
    outs = {}
    for template in ("PQC3", "PQC4"):
        out_path = tmp_path / f"{template}.csv"
        assert main(["eval", "--template", template, "--batch-sizes", "100",
                     "--output", str(out_path)]) == 0
        row = out_path.read_text().strip().split("\n")[1].split(",")
        outs[template] = float(row[3])
    assert outs["PQC4"] == outs["PQC3"]


def test_eval_zero_batch_size_rejected(capsys):
    assert main(["eval", "--template", "PQC3", "--batch-sizes", "0"]) == 3


@pytest.mark.parametrize("sizes, err", [
    ("100,2.5", "batch size must be an integer, got 2.5"),
    ("25,300", "batch size 300 exceeds 2^8 distinct inputs"),
])
def test_eval_checks_every_batch_size_before_hashing(sizes, err, monkeypatch, capsys):
    calls = []
    real_hash_bits = qhash.hash_bits

    def counting_hash_bits(*args, **kwargs):
        calls.append(args)
        return real_hash_bits(*args, **kwargs)

    monkeypatch.setattr(qhash, "hash_bits", counting_hash_bits)
    assert main(["eval", "--template", "PQC3", "--batch-sizes", sizes]) == 3
    assert err in capsys.readouterr().err
    assert calls == []


def test_eval_stdout_mode(capsys):
    code = main(["eval", "--template", "PQC4", "--batch-sizes", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("total,collision_rate,chi_squared,p_value,avalanche")
    assert "# histogram batch=16" in out
    assert "bucket,count" in out


def test_eval_negative_input_width_is_validation_error(capsys):
    assert main(["eval", "--template", "PQC3", "--input-width", "-1"]) == 3
    assert "input_width must be >= 1, got -1" in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"

# Summary rows print repr floats, so these files pin every report field bit
# for bit, not just to a tolerance.
EVAL_GOLDENS = {
    f"eval_{t}_q{q}": ["--template", t, "--qubits", str(q)]
    for t in ("PQC1", "PQC2", "PQC3", "PQC4", "PQC5") for q in (4, 8)
}
EVAL_GOLDENS["eval_PQC1_q4_angles"] = ["--template", "PQC1",
                                       "--theta1", "0.5", "--theta2", "0.3"]
EVAL_GOLDENS["eval_PQC3_q4_sampled"] = ["--template", "PQC3", "--mode", "sampled",
                                        "--shots", "50", "--noise", "0.05,0.02",
                                        "--rng-seed", "4"]


@pytest.mark.parametrize("name", sorted(EVAL_GOLDENS))
def test_eval_stdout_matches_golden(name, capsys):
    out = run_ok(["eval", *EVAL_GOLDENS[name]], capsys)
    assert out.encode("ascii") == (GOLDEN / f"{name}.csv").read_bytes()


# ---------------------------------------------------------------- keygen

def test_keygen_writes_valid_seed(tmp_path):
    path = tmp_path / "seed.json"
    assert main(["keygen", "--rng-seed", "7", "--output", str(path)]) == 0
    seed = seed_from_json(path.read_text())
    assert validate_seed(seed) == []
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert len(doc["mix_gates"]) == 12


def test_keygen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["keygen", "--rng-seed", "3", "--output", str(a)])
    main(["keygen", "--rng-seed", "3", "--output", str(b)])
    assert a.read_text() == b.read_text()


# ---------------------------------------------------------------- encrypt/decrypt

@pytest.fixture
def workspace(tmp_path):
    img_path = tmp_path / "a.pbm"
    img_path.write_bytes(write_pbm(LETTER_A))
    seed_path = tmp_path / "seed.json"
    main(["keygen", "--rng-seed", "11", "--output", str(seed_path)])
    return tmp_path, img_path, seed_path


def test_encrypt_decrypt_image_round_trip(workspace):
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    restored_path = tmp_path / "restored.pbm"
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    assert main(["decrypt", "--in", str(cipher_path), "--seed", str(seed_path),
                 "--dims", "10x10", "--output", str(restored_path)]) == 0
    assert restored_path.read_bytes() == img_path.read_bytes()


def test_cli_cipher_derives_the_mix_permutation_once(workspace, monkeypatch):
    # One derivation is one simulator run, for all 16 basis states at once.
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    calls = []
    real_run_circuit = qaes.run_circuit

    def counting_run_circuit(*args, **kwargs):
        calls.append(args)
        return real_run_circuit(*args, **kwargs)

    monkeypatch.setattr(qaes, "run_circuit", counting_run_circuit)
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    assert len(calls) == 1
    calls.clear()
    assert main(["decrypt", "--in", str(cipher_path), "--seed", str(seed_path),
                 "--dims", "10x10", "--output", str(tmp_path / "r.pbm")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------- one parser per process

def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_parser_usable(workspace, capsys):
    tmp_path, img_path, seed_path = workspace
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", "--seed", str(seed_path)])
    assert exc.value.code == 2
    cipher_path = tmp_path / "cipher.json"
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    assert cipher_path.exists()


def test_preview_flag_does_not_carry_over(workspace):
    tmp_path, img_path, seed_path = workspace
    preview_path = tmp_path / "preview.pbm"
    argv = ["encrypt", "--in", str(img_path), "--seed", str(seed_path),
            "--output", str(tmp_path / "cipher.json")]
    assert main(argv + ["--preview", str(preview_path)]) == 0
    preview_path.unlink()
    before = sorted(tmp_path.iterdir())
    assert main(argv) == 0
    assert sorted(tmp_path.iterdir()) == before


def test_output_flag_does_not_carry_over(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["keygen", "--rng-seed", "5", "--output", "other.json"]) == 0
    assert main(["keygen", "--rng-seed", "5"]) == 0
    assert (tmp_path / "seed.json").read_bytes() == (tmp_path / "other.json").read_bytes()


def test_encrypt_preview_is_scrambled(workspace):
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    preview_path = tmp_path / "preview.pbm"
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path), "--preview", str(preview_path)]) == 0
    assert preview_path.read_bytes() != img_path.read_bytes()


def test_encrypt_preview_of_bits_input_writes_nothing(workspace, capsys):
    tmp_path, _, seed_path = workspace
    cipher_path = tmp_path / "c.json"
    preview_path = tmp_path / "p.pbm"
    assert main(["encrypt", "--in", "bits:1011", "--seed", str(seed_path),
                 "--output", str(cipher_path), "--preview", str(preview_path)]) == 3
    assert not cipher_path.exists()
    assert not preview_path.exists()


def test_encrypt_bits_input(workspace, capsys):
    tmp_path, _, seed_path = workspace
    cipher_path = tmp_path / "c.json"
    assert main(["encrypt", "--in", "bits:10010110", "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    assert main(["decrypt", "--in", str(cipher_path),
                 "--seed", str(seed_path)]) == 0
    assert capsys.readouterr().out.strip() == "10010110"


def test_decrypt_with_wrong_seed_differs(tmp_path):
    img_path = tmp_path / "a.pbm"
    img_path.write_bytes(write_pbm(LETTER_A))
    mismatches = 0
    for pair in range(20):
        enc_seed = tmp_path / f"enc{pair}.json"
        dec_seed = tmp_path / f"dec{pair}.json"
        main(["keygen", "--rng-seed", str(1000 + pair), "--output", str(enc_seed)])
        main(["keygen", "--rng-seed", str(2000 + pair), "--output", str(dec_seed)])
        cipher_path = tmp_path / f"cipher{pair}.json"
        restored = tmp_path / f"restored{pair}.pbm"
        main(["encrypt", "--in", str(img_path), "--seed", str(enc_seed),
              "--output", str(cipher_path)])
        main(["decrypt", "--in", str(cipher_path), "--seed", str(dec_seed),
              "--dims", "10x10", "--output", str(restored)])
        if restored.read_bytes() != img_path.read_bytes():
            mismatches += 1
    assert mismatches == 20


def test_missing_seed_file_is_io_error(tmp_path, capsys):
    assert main(["encrypt", "--in", "bits:1010",
                 "--seed", str(tmp_path / "nope.json")]) == 4


def test_corrupt_seed_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    assert main(["encrypt", "--in", "bits:1010", "--seed", str(bad)]) == 4


@pytest.mark.parametrize("doc", [
    {"orig_bit_len": 8, "bits": "0011x001"},
    {"orig_bit_len": 6, "bits": "001110"},
    {"orig_bit_len": 3, "bits": "00111001"},
    {"orig_bit_len": -3, "bits": ""},
], ids=["non_binary_bits", "length_not_multiple_of_4", "inconsistent_orig_bit_len",
        "negative_orig_bit_len"])
def test_malformed_cipher_file_is_io_error(doc, workspace, capsys):
    tmp_path, _, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    cipher_path.write_text(json.dumps(doc))
    assert main(["decrypt", "--in", str(cipher_path), "--seed", str(seed_path)]) == 4
    assert "malformed cipher document" in capsys.readouterr().err


def test_zero_size_pbm_is_io_error(workspace, capsys):
    tmp_path, _, seed_path = workspace
    img_path = tmp_path / "empty.pbm"
    img_path.write_bytes(b"P1\n0 5\n")
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(tmp_path / "c.json")]) == 4
    assert "dimensions must be positive" in capsys.readouterr().err


def test_invalid_seed_content_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1,
        "sub_table": [1, 2, 0] + list(range(3, 16)),
        "mix_gates": [],
    }))
    assert main(["encrypt", "--in", "bits:1010", "--seed", str(bad)]) == 3


def test_unsupported_seed_version_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": -42, "sub_table": list(range(16)),
                               "mix_gates": []}))
    assert main(["encrypt", "--in", "bits:1010", "--seed", str(bad)]) == 3
    assert "unsupported seed version -42" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_seed_is_checked_before_the_input_is_read(command, workspace, capsys):
    # A seed that parses but breaks an invariant fails validation (exit 3)
    # before the missing --in file could fail as an I/O error (exit 4).
    tmp_path, _, seed_path = workspace
    doc = json.loads(seed_path.read_text())
    doc["version"] = 2
    seed_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--in", str(tmp_path / "missing"), "--seed", str(seed_path),
                 "--output", str(out)]) == 3
    assert "invalid seed: unsupported seed version 2" in capsys.readouterr().err
    assert not out.exists()


def test_decrypt_dims_stdout_matches_output_file(workspace, capsys):
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    restored_path = tmp_path / "restored.pbm"
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    argv = ["decrypt", "--in", str(cipher_path), "--seed", str(seed_path),
            "--dims", "10x10"]
    assert run_ok(argv + ["--output", str(restored_path)], capsys) == ""
    stdout = run_ok(argv, capsys).encode("ascii")
    assert stdout == restored_path.read_bytes() == img_path.read_bytes()


def test_bad_dims_is_validation_error(workspace, capsys):
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
          "--output", str(cipher_path)])
    assert main(["decrypt", "--in", str(cipher_path), "--seed", str(seed_path),
                 "--dims", "7x9"]) == 3


# ---------------------------------------------------------------- rejected input

def test_keygen_negative_gate_count_is_validation_error(tmp_path, capsys):
    path = tmp_path / "seed.json"
    assert main(["keygen", "--gates", "-3", "--output", str(path)]) == 3
    assert "n_mix_gates must be >= 0" in capsys.readouterr().err
    assert not path.exists()


def test_keygen_negative_rng_seed_is_validation_error(tmp_path, capsys):
    path = tmp_path / "seed.json"
    assert main(["keygen", "--rng-seed", "-1", "--output", str(path)]) == 3
    assert "rng_seed must be >= 0, got -1" in capsys.readouterr().err
    assert not path.exists()


# Each rule below is checked only where the data takes its type (BitImage,
# the hash and cipher input checks); the CLI must keep the exit code.
REJECTED = [
    (["hash", "--input", "bits:", "--template", "PQC4"], None, 3),
    (["hash", "--input", "bits:0a1", "--template", "PQC4"], None, 3),
    (["encrypt", "--in", "bits:01x1", "--seed", "{seed}"], None, 3),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n2 2\n1 0\n2 1\n", 4),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n2 2\n1 0\n0\n", 4),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n0 5\n", 4),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n-2 -1\n1 0\n", 4),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "0x5"], None, 3),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "3x3"], None, 3),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n1_0 1\n1111111111\n", 4),
    (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], b"P1\n+2 1\n10\n", 4),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "1_0x10"], None, 3),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "+10x10"], None, 3),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "10x 10"], None, 3),
    (["decrypt", "--in", "{cipher}", "--seed", "{seed}", "--dims", "\u0661\u0660x10"],
     None, 3),
    (["hash", "--input", "hex:zz", "--template", "PQC4"], None, 3),
    (["hash", "--input", "file:{pbm}", "--template", "PQC4"], b"", 3),
    (["hash", "--input", "bits:0110", "--template", "PQC4", "--noise", "0.1"], None, 3),
    (["eval", "--template", "PQC4", "--batch-sizes", ","], None, 3),
    (["eval", "--template", "PQC4", "--batch-sizes", "1_6"], None, 3),
    (["eval", "--template", "PQC4", "--batch-sizes", "+5"], None, 3),
    (["eval", "--template", "PQC4", "--batch-sizes", " 5"], None, 3),
]
REJECTED_IDS = ["hash_empty_bits", "hash_non_binary_bits", "encrypt_non_binary_bits",
                "pbm_pixel_2", "pbm_one_pixel_short", "pbm_zero_size", "pbm_negative_size",
                "dims_zero", "dims_too_small", "pbm_size_underscore", "pbm_size_sign",
                "dims_underscore", "dims_sign", "dims_space", "dims_non_ascii_digits",
                "hash_bad_hex", "hash_empty_file", "noise_one_value", "eval_no_batch_sizes",
                "batch_size_underscore", "batch_size_sign", "batch_size_space"]

HASH = ["hash", "--input", "bits:0110", "--template", "PQC4"]
# A number flag takes ASCII decimal text only, so any other spelling exits 3
# naming the flag; a well-formed number of the wrong kind is named by the
# argument that rejects it.  A flag a command does not read is a usage error.
REJECTED_NUMBERS = {
    "qubits_non_ascii_digit": ([*HASH, "--qubits", "\u0664"], 3, "--qubits"),
    "qubits_sign": ([*HASH, "--qubits", "+4"], 3, "--qubits"),
    "qubits_space": ([*HASH, "--qubits", " 4"], 3, "--qubits"),
    "qubits_word": ([*HASH, "--qubits", "abc"], 3, "--qubits"),
    "qubits_float": ([*HASH, "--qubits", "4.0"], 3, "n_qubits must be an integer"),
    "theta1_underscore": ([*HASH, "--theta1", "1_0"], 3, "--theta1"),
    "theta1_non_ascii_digit": ([*HASH, "--theta1", "\u0661"], 3, "--theta1"),
    "theta1_word": ([*HASH, "--theta1", "abc"], 3, "--theta1"),
    "shots_underscore": ([*HASH, "--mode", "sampled", "--shots", "1_0"], 3, "--shots"),
    "noise_underscore": ([*HASH, "--noise", "1_0e-2,0"], 3, "--noise"),
    "noise_space": ([*HASH, "--noise", "0.1, 0"], 3, "--noise"),
    "gates_non_ascii_digit": (["keygen", "--gates", "\u0663"], 3, "--gates"),
    "batch_sizes_empty_item": (["eval", "--template", "PQC4", "--batch-sizes", "2,,3"], 3,
                               "--batch-sizes"),
    "batch_sizes_trailing_comma": (["eval", "--template", "PQC4", "--batch-sizes", "4,"], 3,
                                   "--batch-sizes"),
    "input_width_float": (["eval", "--template", "PQC4", "--batch-sizes", "4",
                           "--input-width", "4.0"], 3, "input_width must be an integer"),
    "encrypt_rng_seed": (["encrypt", "--in", "bits:0110", "--seed", "{seed}",
                          "--rng-seed", "5"], 2, "--rng-seed"),
    # Past int()'s digit limit, the error still names the flag or the PBM field.
    "qubits_too_many_digits": ([*HASH, "--qubits", "9" * 5000], 3, "--qubits"),
    # Within it, a value out of range is named by its size, not repeated.
    "qubits_4300_digits": ([*HASH, "--qubits", "9" * 4300], 3,
                           "n_qubits must be in [1, 8], got an integer of 14285 bits"),
    "pbm_size_too_many_digits": (["encrypt", "--in", "{pbm}", "--seed", "{seed}"], 4,
                                 "malformed PBM: PBM size"),
}
# The PBM file that a row above reads as {pbm}.
REJECTED_NUMBER_PBMS = {"pbm_size_too_many_digits": b"P1\n" + b"9" * 5000 + b" 1\n1\n"}


@pytest.mark.parametrize("argv, pbm, code, err", [
    *[(*row, None) for row in REJECTED],
    *[(argv, REJECTED_NUMBER_PBMS.get(key), code, err)
      for key, (argv, code, err) in REJECTED_NUMBERS.items()],
], ids=[*REJECTED_IDS, *REJECTED_NUMBERS])
def test_rejected_input_keeps_its_exit_code(argv, pbm, code, err, workspace, capsys):
    tmp_path, img_path, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    assert main(["encrypt", "--in", str(img_path), "--seed", str(seed_path),
                 "--output", str(cipher_path)]) == 0
    pbm_path = tmp_path / "bad.pbm"
    if pbm is not None:
        pbm_path.write_bytes(pbm)
    out = tmp_path / "out"
    files = {"seed": seed_path, "cipher": cipher_path, "pbm": pbm_path}
    argv = [a.format(**files) for a in argv] + ["--output", str(out)]
    if code == 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    else:
        assert main(argv) == code
    assert not out.exists()
    if err is not None:
        assert err in capsys.readouterr().err


def test_empty_hex_input_is_named_as_the_input(capsys):
    assert main(["hash", "--input", "hex:", "--template", "PQC1"]) == 3
    err = capsys.readouterr().err
    assert "empty" in err and "width" not in err


def test_out_of_range_number_gives_a_short_message(capsys):
    # The value is named by its size, so the error stays one short line.
    argv, code, _ = REJECTED_NUMBERS["qubits_4300_digits"]
    assert main(argv) == code
    assert len(capsys.readouterr().err) < 100


@pytest.mark.parametrize("flag, spellings", [
    ("--theta1", (".5", "5e-1", "0.5")),
    ("--qubits", ("04", "4")),
])
def test_number_spellings_give_one_output(flag, spellings, capsys):
    argv = ["eval", "--template", "PQC3", "--batch-sizes", "8", "--input-width", "4"]
    outs = [run_ok([*argv, flag, spelling], capsys) for spelling in spellings]
    assert outs == [outs[0]] * len(spellings)


def _seed_doc(**fields):
    doc = {"version": 1, "sub_table": list(range(16)),
           "mix_gates": [{"kind": "CX", "qubits": [0, 1]}]}
    return json.dumps({**doc, **fields}).encode("ascii")


def _cipher_doc(**fields):
    return json.dumps({"orig_bit_len": 4, "bits": "1010", **fields}).encode("ascii")


DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("document", [
    _seed_doc(version=1.7),
    _seed_doc(version=True),
    _seed_doc(version=float("inf")),
    _seed_doc().replace(b'"version": 1', b'"version": 1e400'),
    _seed_doc(sub_table=[0.0] + list(range(1, 16))),
    _seed_doc(sub_table={str(i): i for i in range(16)}),
    _seed_doc(mix_gates={}),
    _seed_doc(mix_gates=[{"kind": "CX", "qubits": [0.9, 1.2]}]),
    _seed_doc(mix_gates=[{"kind": "X", "qubits": [float("inf")]}]),
    _seed_doc(mix_gates=[{"kind": "CX", "qubits": "01"}]),
    _seed_doc(mix_gates=[{"kind": 1, "qubits": [0]}]),
    DEEP,
    _seed_doc().replace(b'"CX"', b'"CX\xc3\xa9"'),
], ids=["version_float", "version_bool", "version_infinity", "version_1e400",
        "sub_table_float", "sub_table_object", "mix_gates_object", "qubits_float",
        "qubit_infinity", "qubits_string", "kind_number", "deep_nesting", "non_ascii"])
def test_malformed_seed_field_is_io_error(document, tmp_path, capsys):
    seed_path = tmp_path / "seed.json"
    seed_path.write_bytes(document)
    out = tmp_path / "c.json"
    assert main(["encrypt", "--in", "bits:1010", "--seed", str(seed_path),
                 "--output", str(out)]) == 4
    assert "malformed seed document" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("document", [
    _cipher_doc(orig_bit_len=float("inf")),
    _cipher_doc(orig_bit_len=4.0),
    _cipher_doc(orig_bit_len=True, bits="1000"),
    _cipher_doc(bits=1010),
    DEEP,
    _cipher_doc().replace(b'"1010"', b'"1010\xc3\xa9"'),
], ids=["orig_bit_len_infinity", "orig_bit_len_float", "orig_bit_len_bool",
        "bits_number", "deep_nesting", "non_ascii"])
def test_malformed_cipher_field_is_io_error(document, workspace, capsys):
    tmp_path, _, seed_path = workspace
    cipher_path = tmp_path / "cipher.json"
    cipher_path.write_bytes(document)
    assert main(["decrypt", "--in", str(cipher_path), "--seed", str(seed_path)]) == 4
    assert "malformed cipher document" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["keygen", "--rng-seed", "5", "--output", str(root / "seed.json")]) == 0
    return root


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8,
)

FIELD_PATHS = {
    "seed": [(), ("version",), ("sub_table",), ("sub_table", 3), ("mix_gates",),
             ("mix_gates", 0), ("mix_gates", 0, "kind"), ("mix_gates", 0, "qubits"),
             ("mix_gates", 0, "qubits", 1)],
    "cipher": [(), ("orig_bit_len",), ("bits",)],
}


@st.composite
def swapped_documents(draw, which):
    # A valid document with the value at one path replaced.
    doc = json.loads(_seed_doc() if which == "seed" else _cipher_doc())
    path = draw(st.sampled_from(FIELD_PATHS[which]))
    # Non-finite numbers get a branch of their own; st.floats() rarely draws them.
    value = draw(st.sampled_from([math.inf, -math.inf, math.nan]) | JSON_VALUES)
    if not path:
        return json.dumps(value).encode("ascii")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode("ascii")


@st.composite
def input_files(draw):
    which = draw(st.sampled_from(["seed", "cipher", "pbm"]))
    if which == "pbm":
        text = st.text(alphabet="P1 \n#0129-ax", max_size=40)
        shaped = text.map(lambda t: ("P1\n" + t).encode("ascii"))
        return which, draw(st.binary(max_size=200) | shaped)
    return which, draw(st.binary(max_size=200) | swapped_documents(which))


@settings(max_examples=300, deadline=None)
@given(case=input_files())
def test_any_input_file_gives_an_exit_code(case, fuzz_dir):
    which, data = case
    path = fuzz_dir / f"input.{which}"
    path.write_bytes(data)
    seed = str(fuzz_dir / "seed.json")
    out = str(fuzz_dir / "out")
    argv = {
        "seed": ["encrypt", "--in", "bits:1010", "--seed", str(path)],
        "cipher": ["decrypt", "--in", str(path), "--seed", seed],
        "pbm": ["encrypt", "--in", str(path), "--seed", seed],
    }[which]
    assert main(argv + ["--output", out]) in (0, 3, 4)
