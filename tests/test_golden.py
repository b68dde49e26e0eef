"""Byte-identity gate for refactors of the relation engine and reducer.

The first four digests were recorded before saturation was rewritten as a
loop over the rule functions, the 60- and 80-vertex sparse arenas (the
benchmark's ``sparse-reduce`` inputs) before the closure moved to bitmask
columns, the 120-vertex one before the columns became the pair store,
and the 160- and 240-vertex ones before the closure moved onto the
transposed set index; a change that alters any of them changes what
``nwr relate`` or ``nwr reduce`` writes, and must say why.  The ``relate --exact`` and
``certify`` digests were recorded before exact decision moved onto the
bit kernel and ``relate --exact`` began to skip the paths its relation
rules out, the plain ``relate`` ones before the relation got its own flat
JSON writer.  The ``solve`` digests were recorded before value iteration
began to sum each distinct distribution once per sweep, the reduced-arena
and unentered-Nature ones before strategy improvement moved onto one
integer row table and Nature values onto integer sums.
"""

import hashlib
from fractions import Fraction

import pytest

from nwr import (
    lift_family,
    make_arena,
    random_arena,
    random_family,
    reduce_2dp,
    reduce_fixpoint,
    saturate,
    serialize_arena,
    serialize_family,
)
from nwr.cli import main
from _corpus import digraph_instance


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
    (80, 80, 3 / 100, 1, 3): (
        "4d35e4cc1800b867a8b8702a658b288c57c13f8604daf0c9114938aabcf885de",
        "1238466081526e3cfdcd537927e719b9dedf5b04edeae82dc4d52458536c5932",
        "dd01b6986cc6e5b30502f1bfef9e4c5df4c2a3965cd6dc49232c0c1e68de02a1",
    ),
    (120, 120, 1 / 50, 1, 3): (
        "19a5fc0ebccd596494ea3bf80c023d742ce9d197a4861e2e9fd813b778c15534",
        "29ca1e0d7655c55c0791bedc4061ed915770a2dc129b932ae87f8b4c486656cc",
        "e36cfcd0c6597f66a66cecfd44340e79003b57dbb1bd8588117c2836437e0afd",
    ),
}


@pytest.mark.parametrize("args", sorted(GOLDEN))
def test_outputs_are_byte_identical(args):
    # the reducer saturates only the sets it reads, so the relation comes
    # from a saturation of its own
    a = random_arena(*args)
    reduced, report = reduce_fixpoint(a)
    digests = (_sha(saturate(a).to_json()), _sha(serialize_arena(reduced)), _sha(report.to_json()))
    assert digests == GOLDEN[args]


# random_arena(10, 8, 3/10, 1, seed): the relation JSON ``relate --exact`` writes
EXACT_GOLDEN = {
    1: "b632ba8ddb14cd77991576d2e56f7ec5717a1b76c2c4b35156c7b3bf6e57570c",
    4: "ee9f338cbf1fd27424cdba9f6d79ed7832a085d02d56e367fae703d88de1acd8",
    5: "7d96f951516d285bcd3cfb6cad115af68930ce749d227c3971215ad56cca3363",
    6: "a5286bea952cd402e3805e837a30ae61a112cf91d98d9fcc44cf1be97c0c4c2a",
}


@pytest.mark.parametrize("seed", sorted(EXACT_GOLDEN))
def test_relate_exact_is_byte_identical(seed, tmp_path):
    arena_path, out = tmp_path / "a.json", tmp_path / "rel.json"
    arena_path.write_text(serialize_arena(random_arena(10, 8, 0.3, 1, seed)))
    assert main(["relate", str(arena_path), "--exact", "--limit", "18", "--out", str(out)]) == 0
    assert _sha(out.read_text()) == EXACT_GOLDEN[seed]


# (random_arena arguments): the document plain ``relate --out`` writes
RELATE_GOLDEN = {
    (40, 40, 1 / 20, 1, 3): "bd263fa09bc3c9e1e3496f856b522e25f43e064c264f43ed3e2868c6402d8ef4",
    (120, 120, 1 / 50, 1, 3): "12eb066d997ba5536a68e41bfcd76885f84e3a0e91e2bf893bfe4cc008210cc8",
}


@pytest.mark.parametrize("args", sorted(RELATE_GOLDEN))
def test_relate_is_byte_identical(args, tmp_path, capsys):
    arena_path, out = tmp_path / "a.json", tmp_path / "rel.json"
    arena_path.write_text(serialize_arena(random_arena(*args)))
    assert main(["relate", str(arena_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha(out.read_text()) == RELATE_GOLDEN[args]


# digraph_instance(10, 1/4, seed): (stdout, certificate, witness family) of
# ``certify`` on its 2DP encoding; seeds 3, 4 and 5 are refuted, seed 7
# holds and writes no file
CERTIFY_GOLDEN = {
    3: (
        "87a1c9a43538afcfcd86a26bd8298ea2405c047bb6719542294992f34270571f",
        "d49b7a32adae42734535230057e48de8fdc279d099e551ab44f4cb82b1e95e54",
        "389f9c01282f74840e88e26bbae29508fb324ca344af59c87ad09cae9f535f85",
    ),
    4: (
        "4276832a01c6935304939cb79bbb70be817b55ca4f4ea9241d665d480e44aed8",
        "ac8c8497dd47251706caa57c8bc87fa278f286a3f3586f2cf58184c79c39abd8",
        "8828ae376946838d660bcb1b9edab25c3581194b3eeea638b5a0c4a0d8d1be9a",
    ),
    5: (
        "72163c979a305845a4fc1dab6585b83a79b2c5c95439b0de806b291ef09c9d16",
        "f28b0ae3ea4cc686271c112f07697d0300d7b2a5307e1c16301eee182240b86c",
        "d8d98a0ba6d2559ee6b3eb5762827fd044b96fe1051c389aa3525360b6473b46",
    ),
    7: ("10c3e3651ee05e1e19b6b9f96e45cc5c740b733ba3e8c2ed7a14f8c05eb1a41c", None, None),
}


@pytest.mark.parametrize("seed", sorted(CERTIFY_GOLDEN))
def test_certify_2dp_is_byte_identical(seed, tmp_path, capsys):
    graph, terminals = digraph_instance(10, 0.25, seed)
    arena, source, against = reduce_2dp(graph, *terminals)
    arena_path, cert, witness = tmp_path / "a.json", tmp_path / "cert.json", tmp_path / "mu.json"
    arena_path.write_text(serialize_arena(arena))
    argv = ["certify", str(arena_path), "--source", source, "--against", ",".join(sorted(against))]
    argv += ["--limit", "40", "--out", str(cert), "--witness-out", str(witness)]
    assert main(argv) == 0
    files = [_sha(f.read_text()) if f.exists() else None for f in (cert, witness)]
    assert (_sha(capsys.readouterr().out), *files) == CERTIFY_GOLDEN[seed]


# (random_arena arguments), solved under random_family(a, 64, 0), or a
# named case of ``_solve_case``: (``solve --iterate --out``,
# ``solve --exact --out``)
SOLVE_GOLDEN = {
    (100, 100, 0.025, 3, 2): (
        "d05baa9b1a4ceb33be559f46b2a8d6a101dbe72d57d7c0102ac8f37a98864e3e",
        "71de44c8047a88cacd889f542ac22c6dd58c269a32c9a741013fcaaa5f7a5d77",
    ),
    (80, 80, 0.03, 3, 3): (
        "917e46da8f1cf07fcb7b24de905b18a4fdd3f8f7b23e46b13cc68aed188bb6f8",
        "a192f0ae789bdca87e096ba680869a4077a0c4cb0c1749dd6183de7984d5ec6a",
    ),
    "coin": (
        "3a840f27ede325f538bc632f95c743c2cc266251c64ab7bf08bbb35a3af30872",
        "2c8a90c8634703c1f0fc11d3ca4a38fba8678400adbc9a933a39e8be610685d0",
    ),
    "reduced (40, 40, 0.05, 1, 3)": (
        "bffa52e7b4b7e25f3e25a7a5dee99778a45bfa7fe579842e2bce485effe7d07b",
        "6d8d0d6fb8ebf9f684045933301201546954011315fe08928d9e4a8c6c61458d",
    ),
    "unentered nature": (
        "53e60f97b1e7703f32cebbfc26617ecbeba30d4c55f3a34eed029510f3e7ab12",
        "62c07cadce8195cf44195d9ab07e311e5d737fb1c8f2658968d47df9e2152c53",
    ),
}


def _solve_case(case):
    """The arena and family of a ``SOLVE_GOLDEN`` case."""
    if case == "coin":
        arena = make_arena(["v0", "t", "f"], ["n0"], [("v0", "n0"), ("n0", "t"), ("n0", "f")], ["t"])
        return arena, {"n0": {"t": Fraction(1, 3), "f": Fraction(2, 3)}}
    if case == "reduced (40, 40, 0.05, 1, 3)":
        # the reduction of the 80-vertex sparse arena, under the lifted family
        original = random_arena(40, 40, 0.05, 1, 3)
        arena, report = reduce_fixpoint(original)
        return arena, lift_family(arena, random_family(original, 64, 0), report.class_map)
    if case == "unentered nature":
        # no action enters n1, and n2's row is dead: it leads only to z,
        # which has no successor
        edges = [("v0", "n0"), ("v0", "n2"), ("v1", "n0"), ("v1", "n2"), ("n0", "t"), ("n0", "v1")]
        edges += [("n0", "z"), ("n1", "t"), ("n1", "v0"), ("n2", "z")]
        arena = make_arena(["v0", "v1", "t", "z"], ["n0", "n1", "n2"], edges, ["t"])
        third = Fraction(1, 3)
        family = {
            "n0": {"t": third, "v1": third, "z": third},
            "n1": {"t": Fraction(1, 5), "v0": Fraction(4, 5)},
            "n2": {"z": Fraction(1)},
        }
        return arena, family
    arena = random_arena(*case)
    return arena, random_family(arena, 64, 0)


@pytest.mark.parametrize("case", list(SOLVE_GOLDEN), ids=str)
def test_solve_is_byte_identical(case, tmp_path, capsys):
    arena, family = _solve_case(case)
    arena_path, family_path, out = tmp_path / "a.json", tmp_path / "mu.json", tmp_path / "v.json"
    arena_path.write_text(serialize_arena(arena))
    family_path.write_text(serialize_family(family))
    digests = []
    for mode in ("--iterate", "--exact"):
        assert main(["solve", str(arena_path), "--family", str(family_path), mode, "--out", str(out)]) == 0
        digests.append(_sha(out.read_text()))
    capsys.readouterr()
    assert tuple(digests) == SOLVE_GOLDEN[case]
