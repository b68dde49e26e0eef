"""Byte-identity gate for refactors of the relation engine and reducer.

The first four digests were recorded before saturation was rewritten as a
loop over the rule functions, the 60- and 80-vertex sparse arenas (the
benchmark's ``sparse-reduce`` inputs) before the closure moved to bitmask
columns, and the 120-vertex one before the columns became the pair store;
a change that alters any of them changes what ``nwr relate`` or
``nwr reduce`` writes, and must say why.
"""

import hashlib

import pytest

import nwr.reduce
from nwr import random_arena, reduce_fixpoint, saturate, serialize_arena


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (random_arena arguments): (relation JSON, reduced arena, reduction report)
GOLDEN = {
    (60, 60, 1 / 25, 1, 3): (
        "4fc2c192abf0ebd16734224b3bbb49df1666bdd2083ff119f7856b3603fc7f85",
        "85e7e96a1a6bb85df55fb03ca3ec0a4121493cb2a086e0a564d629d5aaa079a8",
        "c1a845700d4f1d69ec335717e16c8e8c45222b4bc51ae8fa1f68ac3240843420",
    ),
    (30, 30, 0.07, 1, 3): (
        "459d919b69e98a2cbac9be90b56f178526ebaeb3c7cdc032bd73b2e0d2697b0d",
        "801ab9abfd009d2b6a3b54cc063d7a68294ae8f8d72530aa0b20c3fd37df88d8",
        "010e051e67cc14fda4b9154ecee1ef6ae2737a967c544cb709a955f2eea3dadb",
    ),
    (40, 40, 0.05, 1, 3): (
        "64743322e84a5eaf6f7381aec16e27c7eab952632cd6a92eeed7b1ff51807140",
        "e7a0da747c2f4a46fdbfd185b351c6cd0c91ca220318ae6a4fa1326076bd2d6d",
        "83d46d019831cdccc88925b3a9d1644e529f99af230da8aca9d37b87c1fe70b1",
    ),
    (20, 20, 0.1, 1, 3): (
        "9757ff761294aa293714a25998a66070330a00269a95142ddde33b42d0d39916",
        "90183f4b53e3d5c1d5de11c4052a77908056135c1afbe3becc1d822cb643c38b",
        "c12d33ee00a2cb4783b64ce1d1ade76f2cf2275721dae150d73c2926aba7ece5",
    ),
    (10, 8, 0.3, 1, 1): (
        "86d3061747a5cc36e102bcb6d145f25a5862ef27c525ad80b0f9a1e01a1f13ad",
        "382d7c65df08191bdf8985c54df5371e84ee85549d742ba919dc4ce66554428c",
        "b93ec7eda785d8183efe5d8ff0b3d18bd8da742f98539b1e0023c4b8352bc2b2",
    ),
    (10, 8, 0.3, 1, 5): (
        "1abd051c0f0561ca989377e351dc77c4fe3e2826d1745a7825b3ef316f05da5d",
        "09ce85f44e8d22b425789e8ca7d276de8e3165200adc7fc43316138f5f657862",
        "23ba54edcc0540b898d4a0c8db0fc9fd13525c022d37489fef5233ab96f81a5c",
    ),
    (10, 8, 0.3, 1, 6): (
        "544c34bca5a8b3ea2156a91539a63398568481cce1741a4ea938f95f35c3b79f",
        "a2bcdf7b62605f8fcc16676cf01d7bd99c59ee65506e0bd31a6531b4845af625",
        "744b0eea39f5bad125778b44684b1f6caf0aa040497784ad5574af83761cea99",
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_outputs_are_byte_identical(args, monkeypatch):
    # the reducer's first round saturates the input arena: keep that
    # relation rather than saturating a second time
    relations = []

    def keep(arena):
        relations.append(saturate(arena))
        return relations[-1]

    monkeypatch.setattr(nwr.reduce, "saturate", keep)
    a = random_arena(*args)
    reduced, report = reduce_fixpoint(a)
    digests = (_sha(relations[0].to_json()), _sha(serialize_arena(reduced)), _sha(report.to_json()))
    assert digests == GOLDEN[args]
