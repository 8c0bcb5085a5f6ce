"""Answers of the whole network pipeline, pinned by digest.

For 200 seeded `random_network` draws (every odd seed conserving) and the
catalytic cascade, the sha256 of the JSON of both conservation witnesses,
both first-integral reports, the cross-effect report and the rendered
canonical realization must not change.  A change to a hot path that moves
any answer fails here, and the failing index names the draw.
"""

from __future__ import annotations

import hashlib
import json
import random

from crnkit import (
    canonical_realization,
    find_quadratic_first_integrals,
    format_rational,
    induced_kinetic_ode,
    kinetic_conservation,
    negative_cross_effect,
    parse_network,
    stoichiometric_conservation,
)

from .conftest import CATALYTIC_CASCADE_TEXT
from .support import random_network


def _answers_digest(network) -> str:
    system = induced_kinetic_ode(network)

    def witness(vector):
        return None if vector is None else [format_rational(v) for v in vector.rho]

    payload = {
        "stoichiometric": witness(stoichiometric_conservation(network)),
        "kinetic": witness(kinetic_conservation(system)),
        "qfi": find_quadratic_first_integrals(system).to_dict(system.variables),
        "positive_diagonal": find_quadratic_first_integrals(
            system, "positive-diagonal"
        ).to_dict(system.variables),
        "cross_effect": negative_cross_effect(system).to_dict(),
        "realization": canonical_realization(system).render(),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


PINNED_DRAWS = [
    "d8ff7ce71ea4b5ac", "36f63246c1c96cc6", "75425702087f51f3", "2c35bfdc1934338c",
    "36432aa98a31bc89", "f407e6a1e6eced7f", "afe1e7ca919f2020", "a8d6954d555cc457",
    "37a59069402c22a8", "00c37ee026d12cb2", "209e1cbfb4794207", "efb7daac70f07d69",
    "cb16663cc99cfd4c", "e3de88f42246e869", "e874cf73169b186e", "1ec1b0c80ab5b137",
    "08eb6d567a714ba9", "0d1724a7ee748db1", "9d1455d4c3f09656", "d205b8014bf0f5fa",
    "12734b3a917d240b", "db58b314c8c2b5ef", "0a7b3bdf7c24af58", "d706cabff1908329",
    "cd5eb386704080aa", "b56b4df62e5329a1", "92083723de57e646", "3d4408ac712a2f5d",
    "361c89a979ec7ff1", "35a5b8f5cb2a41f1", "d0513b24fd29fb5f", "b135a67d3dd0ffa4",
    "575b3eefee9aa1f3", "4db5f3bf3267005f", "cf24ed5b47d33959", "f0a4d69aa83b5dce",
    "ae9a77e4a1a044b1", "ed458a5dda849c13", "a10dbafa633fd074", "8cbb0c3338244676",
    "47e1076df4fb5233", "822392b082faa908", "c676c1a344cb51cf", "26bfa0190d5da848",
    "82f94a30627a1ee1", "55d75cddde2a4923", "6177e7869c2b909f", "cf4f2dae7dc7136c",
    "3f8ef704fe782f26", "8f7aabf9e68ce481", "8d761a395d129fae", "2019cc2da7661383",
    "ca500b9c3669405b", "0b99318a29801d2a", "7d0f6d5d104af152", "c515ef80b1397e3f",
    "52deb5588b26db3d", "35a5b8f5cb2a41f1", "9b2f86003fe44527", "2f4984ba9079fd7e",
    "91c1bbfdd47d3bf1", "cee8146dcb7fcd34", "013f9de6050da887", "7598973d8fc647b5",
    "73f960c215f0d34f", "f044d8f935e18d22", "933ae1fba3eb2c43", "d2eb43418ee26e10",
    "8e49b0303397d0cd", "5ae3d3d04cb0cd3e", "ccfb7313034be5ef", "dd1b581cce808d9e",
    "f77d4c4c09ce5b09", "40784eb539a12b90", "036605dc0de40348", "82bfb19f3fec60ac",
    "d3797248346a3027", "84adc587323a47bb", "97c2bf6cfb8a7927", "de37fe87df4775db",
    "072083a34be42ec8", "3cb344d725752a7d", "6d1330e9b13f031d", "fd543d024e74c00e",
    "e94766777aa330bb", "39624a945a95d1a9", "41c83ac6e3a018ef", "a19e2634edc1300f",
    "cfb3ad9409d877dd", "49b5810784d4909a", "dc44f851d0557b00", "1062f6d99fcd0b02",
    "1f854e6313d31164", "b86a57e324f338d0", "3b85e1cd98c2f5e5", "6eaed08605e465af",
    "bb0ef1b59862829d", "0fd101c76eeb8bc4", "80e54409404667a1", "0369af2ba26ed90c",
    "b310d91ef58296d6", "cf3d78fd2a319897", "33acf014782d846a", "d0dfc7ec35557569",
    "5db7c199068243cd", "bb3490f73bc97aba", "b175f7b013a583ce", "2d988d550a98158b",
    "289e44bd6546fd94", "10be8f778547dad4", "2b2d3f3c7e800cbc", "35b6b49706d2f011",
    "c71e5b010516cdad", "261aba02e818cd7f", "01603dc56d23f670", "8074c29497c259ac",
    "e0d1ca917b47c402", "f4374c15d0813276", "49a5a204e66b78f9", "cda2b185e9c84592",
    "1d0ee6695025952f", "713c3e1aae905988", "058d9f5f1e984caf", "c65ff4c1ad90ee04",
    "aa6ea9603a2d89a9", "1d8dd1cc703fed63", "ab1290cf73d53462", "f6f464f6f9200f56",
    "48eb7a58cebafcac", "f189451f6a8cd26c", "20f332390f105dcb", "f05c7d054870d067",
    "e46c96a47c582e2b", "c9d1efafef822748", "765dacfabc2c06df", "5d9bbf6b103315a3",
    "332a3c50de8d448c", "c491f982fa2d8e71", "851a9d350ddefab1", "99667fdb71847d41",
    "63734ee614585e3d", "7c71cdd0ee872618", "2dff79208d324fe2", "9718808200813507",
    "7cb367a416fa39d5", "7312d6175acda72b", "a7f61de4094e98f2", "b00c8498e4de6007",
    "f00b25ff7e9c8c24", "661f3cd45a23e9c7", "1709885eba81150e", "acb8d3fce24e1160",
    "89a099d3c47e9e36", "ea5dbe63ce92d62f", "275f698a743d29c4", "1a14b611fe95939e",
    "800768bb1f942f31", "7936d30ffd868fd8", "9ecd971047568d1c", "0b19c47ca4f8d508",
    "a28400529fe3e4f2", "1bbcc8eb2f2116e6", "4fe8ac97513ceae3", "93ac33ffb4f94ac6",
    "2099fc824d4b2338", "342114a6d2770713", "04a5a50f253afbfb", "7fdfd7d6c2ff3a0d",
    "445008594f056e30", "d1a7f540dbfe5d24", "22bc14f8f1b364f4", "a285268d2913575d",
    "164eab45eb19adaa", "7ae731b5b91768dc", "46389e48ba7d3f41", "4ff9e3b6d1b609e9",
    "330125376097e4f5", "145537f541363cfd", "4bedb26f375194c4", "a94e23b61573391c",
    "4e4ef04353ed94c7", "ae20d34f6b60ae26", "1594dfb2413b6ed4", "c21b991f1d8b9c0d",
    "b0082a070c6abcbd", "53b1740ec0357335", "89d328da165d4119", "14f04f1810e7a361",
    "02d12f8458041fa0", "3471344e02fc25a3", "c56ce7aa19536d45", "dc5dd27fe999a628",
    "21394c2dcd58b827", "ffe200a77dd0fc8d", "1a1c95618587f023", "9aad6c4255904b0d",
    "348b9a8cafc97a47", "b381ea338b3cc161", "9acce30a034dc438", "7129c5ac69a87b2e",
]

PINNED_CASCADE = "6acb901fa3bf38f7"


def test_random_network_answers_are_pinned():
    got = [
        _answers_digest(random_network(random.Random(seed), conserving=seed % 2 == 1))
        for seed in range(200)
    ]
    assert got == PINNED_DRAWS


def test_cascade_answers_are_pinned():
    assert _answers_digest(parse_network(CATALYTIC_CASCADE_TEXT)) == PINNED_CASCADE
