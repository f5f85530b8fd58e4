"""qengines: a small statevector simulator with two engines built on it.

The hashing engine encodes bitstrings into parameterized circuits and
reads the modal measurement outcome back as a fixed-width hash; the
cipher engine runs 4-bit chunks through a substitution table, a
reversible-gate mixing circuit, and position-dependent rotations.  The
metrics module scores hash quality (collision rate, chi-squared
uniformity, avalanche), and codec handles PBM images plus the seed and
cipher file formats.
"""

from types import ModuleType as _ModuleType

from .sim import (
    Circuit,
    GateOp,
    NoiseModel,
    StateVector,
    apply_gate,
    ccx,
    circuit_unitary,
    cx,
    format_bits,
    gate_matrix,
    h,
    inverse_circuit,
    noisy_sample,
    probabilities,
    run_circuit,
    rx,
    sample,
    swap,
    x,
)
from .qhash import (
    HashConfig,
    TEMPLATES,
    build_hash_circuit,
    entangler_ops,
    hash_batch,
    hash_bits,
    to_bitstring,
)
from .metrics import (
    BucketHistogram,
    MetricsReport,
    avalanche_score,
    batch_sweep,
    bucket_histogram,
    chi_squared_p,
    chi_squared_survival,
    collision_rate,
    evaluate_batch,
    histogram_csv,
    regularized_gamma_q,
    summary_csv,
)
from .qaes import (
    CipherText,
    MixPermutation,
    SeedSpec,
    cipher_entropy_diag,
    classical_oracle_encrypt,
    decrypt,
    encrypt,
    keygen,
    mix_chunk,
    shannon_entropy,
    shift_chunk,
    sub_bytes,
    validate_seed,
)
from .codec import (
    LETTER_A,
    BitImage,
    ParseError,
    bits_to_image,
    cipher_from_json,
    cipher_to_json,
    image_to_bits,
    read_pbm,
    render_ascii,
    seed_from_json,
    seed_to_json,
    write_pbm,
)

__version__ = "0.1.0"

# The public names are exactly the ones imported above.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
