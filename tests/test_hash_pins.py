"""SHA-256 pins of hashes that no golden file and no oracle reaches.

The eval goldens use 8-bit inputs at widths 4 and 8, and `circuit_unitary`
stops at 5 qubits, so these pins cover every template at every width 1-8,
at four angle sets and on inputs long enough that many blocks see
theta2/phi2.  Each pin is one SHA-256 over the concatenated `hash_batch`
outputs.  A pin is regenerated only as a stated contract change.
"""

import hashlib
import math

import numpy as np
import pytest

from qengines import HashConfig, NoiseModel, hash_batch

# (theta1, phi1, theta2, phi2): the default, two quarter-turn sets, a generic one.
ANGLE_SETS = (
    (math.pi, 0.0, math.pi, 0.0),
    (math.pi / 2, 0.0, math.pi / 2, 0.0),
    (math.pi / 2, math.pi, 3 * math.pi / 2, math.pi / 2),
    (0.7, 1.9, 2.3, 0.1),
)
_RNG = np.random.default_rng(2023)
INPUTS = ["".join(str(b) for b in _RNG.integers(0, 2, size=length))
          for length in (1, 8, 33, 64, 150, 300)]

# Templates that differ only in entangler pairs coincide where a width has
# too few qubits to tell them apart (n = 1, and PQC2/PQC3 at n = 2).
EXACT_PINS = {
    ("PQC1", 1): "62ef36db1bc6bdefe7e3e94c8df2a69102a3c6956cd6a5e844a75455365ee0a4",
    ("PQC1", 2): "aba775d1adf40bf6929a350502521fadfce547e114bf58228762904f980c410e",
    ("PQC1", 3): "3189c5f8045ddff79d88e8109bd31afc195d611241999b68dde0b889e5b83c68",
    ("PQC1", 4): "f183b976af48d71abd5b7d1065b0284ce75e9a9b90664eb8958096378f9bbcc5",
    ("PQC1", 5): "00e6f749fc63368c754c67cf80a6548157486340944281a9cf52331f2f713167",
    ("PQC1", 6): "1d2bd822ced3bcd4d0e689b0fde7a1cb7770073755de84e27a2d44814766bf84",
    ("PQC1", 7): "e204ed3facf79082c874884a8488f77a168ddde592a19661c0ea623001c6fe9f",
    ("PQC1", 8): "86fcb0946c2e05ef2c17479482f45b12e9a1cb85b03f64aefea2379929720605",
    ("PQC2", 1): "4213bae146cae39bbc91dcf6b6bcfde06466ef97ed8c847ce93bdea08bd4e049",
    ("PQC2", 2): "1af7225182c736eff9b4bc96f19795205f34ea79d42d2eb00ad4ec7032f8b86d",
    ("PQC2", 3): "c7c198da7a3a1070501b8ef9f4511be4fb462d23302a873dc6b87a5093544e1d",
    ("PQC2", 4): "6a88b2f177616fb49718aa15af0eacb52bddffb86662e501211ddee3d874d607",
    ("PQC2", 5): "8a692238df182343704cf1492e5e1f37ef26961958525a0941ba5849b65ec52f",
    ("PQC2", 6): "f8c98b838148f99b524d7d3e11e89fa6e81c0acd08a84d34621473e16fe840e2",
    ("PQC2", 7): "51211b2b5c96b30f5b3fa3d2e7307c51c2376b6f12aaea61105922b8b9698797",
    ("PQC2", 8): "17b68d185e769056629000e1c5a9a03e2b7c6545bf0c788b2aefe64c6a907bac",
    ("PQC3", 1): "4213bae146cae39bbc91dcf6b6bcfde06466ef97ed8c847ce93bdea08bd4e049",
    ("PQC3", 2): "1af7225182c736eff9b4bc96f19795205f34ea79d42d2eb00ad4ec7032f8b86d",
    ("PQC3", 3): "1025e30731740d52bc61c3f1bd3f759c2e192b8fdc43ecc2785950f381b20473",
    ("PQC3", 4): "8af1ac9b3e350392e49b74ababa7c43b000c59017ebd81f4f69a0c6d33be336c",
    ("PQC3", 5): "8beffae784ca5089de3598f5ca8cee458a76e784685b9e73f743edeef7b154a7",
    ("PQC3", 6): "a2b958d38db6e254e6ccc0514f64fcd00e46637be03e92223d5719f5dac79352",
    ("PQC3", 7): "b0b251484357f8d01c287a142dda43a5da296c0d2406053252fa0d4683b0461d",
    ("PQC3", 8): "0f774555a788aed3c01a9b1d299620c5d5d4511957d3d9ab1ec45688cb758ef4",
    ("PQC4", 1): "4213bae146cae39bbc91dcf6b6bcfde06466ef97ed8c847ce93bdea08bd4e049",
    ("PQC4", 2): "1966aeebd74cf890f6bb8552e88f82b307da0224fb76e784f4c62407c210b898",
    ("PQC4", 3): "8a68d5a91d5633bcffb24f12a45a7ca1ddea60f293344823d5137003af52c663",
    ("PQC4", 4): "bb70d32333cdc9f17768b97652e1a722df7e264969f74d6b70d1b852a7d9f843",
    ("PQC4", 5): "5d8ec5e6e28b13e3ffad494f17fbc56c34bed04ba48d4d7791564d2d220c027f",
    ("PQC4", 6): "c236bc11af51be4a5382fb6a3fa1e7a179186455f6071a547585d3d0356caf98",
    ("PQC4", 7): "35dd2124d3f952961c22aed794967f2ee1b322237f64c500f75737ba0b224b2f",
    ("PQC4", 8): "8e7c1b992f8390e57d3da5eb674f1b30bf85e307ffb054aa28ba82c0e82c3e19",
    ("PQC5", 1): "4213bae146cae39bbc91dcf6b6bcfde06466ef97ed8c847ce93bdea08bd4e049",
    ("PQC5", 2): "ac100e304e6eb87cf32e9d72398c2e4c10623406e5988a5176d9ad39ee432f65",
    ("PQC5", 3): "ee5e1eed47c498f4110e833320fec6df3c05fc6de3e338a0a46f546ada020550",
    ("PQC5", 4): "6d52e6617b3c2e9db8e6edca8fe136e31baf15bfb680f3225a6f89e9b99d804f",
    ("PQC5", 5): "156a23ed2f5c54c8ef18f9d647cd5134c9e8e25484b54734c477966e95bdb2e4",
    ("PQC5", 6): "c0873bb58d80612ac8e1b1cb218c6d5b510922365f81c06273da9ea52e8df121",
    ("PQC5", 7): "de26f295d2054b58cedff4b89e4a9ca5655a959d2f7d74a4971859d3d90e170b",
    ("PQC5", 8): "bb976cb2559b25540671ece7ff6b0b0c7e12e49d6fa12f0e9f2d9fef2644af3e",
}

# n_qubits 4, 1000 shots, rng_seed 1, readout flips only, default angles.
SAMPLED_PINS = {
    "PQC1": "328722ea28a36925f9dc5e9a5304e3f7302d3a7c7448b3c739682a06b41b49b1",
    "PQC2": "03f14d7bb3ab68d173dd90540da8d40600289c8736693d30aacc6e8c2147783f",
    "PQC3": "5d0a1508d1121a5124d6422e24551cb214f5c112c09b3eeb170384210dce9825",
    "PQC4": "33d8b71edf298a80414d31a3b36c655ce707e6bfc2cd1062c70d679b9c4dd73d",
    "PQC5": "6cfac797ff48d3448e19a96d0253d84db30a2d5e107927244470d6f8c67dbf64",
}


def digest(configs):
    return hashlib.sha256(
        "".join(h for cfg in configs for h in hash_batch(INPUTS, cfg)).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize("template, n_qubits", list(EXACT_PINS))
def test_exact_hashes_are_pinned(template, n_qubits):
    configs = [HashConfig(template, n_qubits, *angles) for angles in ANGLE_SETS]
    assert digest(configs) == EXACT_PINS[template, n_qubits]


@pytest.mark.parametrize("template", list(SAMPLED_PINS))
def test_sampled_hashes_are_pinned(template):
    cfg = HashConfig(template, 4, mode="sampled", shots=1000, rng_seed=1,
                     noise=NoiseModel(0.0, 0.02))
    assert digest([cfg]) == SAMPLED_PINS[template]
