import warnings
from fractions import Fraction

import pytest

from nwr import Mdp, TargetArena, make_arena

# Hypothesis writes a failing example's patch with a module that imports
# libcst, whose import warns; under ``-W error`` that warning would end
# the session instead of reporting the failure.  Import it once here, with
# only that warning silenced and only around the import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def coin() -> TargetArena:
    """One Protagonist choice into a two-way Nature split; t is the target."""
    return make_arena(
        ["v0", "t", "f"], ["n0"], [("v0", "n0"), ("n0", "t"), ("n0", "f")], ["t"]
    )


@pytest.fixture
def coin_family():
    return {"n0": {"t": Fraction(1, 3), "f": Fraction(2, 3)}}


@pytest.fixture
def mixer_mdp() -> Mdp:
    """Two states that can mix into each other (action a) or exit through a
    biased split (action b); targets are the good exits."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    transition = {
        ("p", "a"): {"p": half, "q": half},
        ("q", "a"): {"p": half, "q": half},
        ("p", "b"): {"t1": quarter, "s1": 3 * quarter},
        ("q", "b"): {"t2": 3 * quarter, "s2": quarter},
    }
    return Mdp(
        frozenset({"p", "q", "t1", "s1", "t2", "s2"}),
        transition,
        frozenset({"t1", "t2"}),
    )


@pytest.fixture
def mixer_arena() -> TargetArena:
    return make_arena(
        ["p", "q", "t1", "s1", "t2", "s2"],
        ["pa", "qa", "pb", "qb"],
        [
            ("p", "pa"), ("p", "pb"), ("q", "qa"), ("q", "qb"),
            ("pa", "p"), ("pa", "q"), ("qa", "p"), ("qa", "q"),
            ("pb", "t1"), ("pb", "s1"), ("qb", "t2"), ("qb", "s2"),
        ],
        ["t1", "t2"],
    )


@pytest.fixture
def mixer_family():
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    return {
        "pa": {"p": half, "q": half},
        "qa": {"p": half, "q": half},
        "pb": {"t1": quarter, "s1": 3 * quarter},
        "qb": {"t2": 3 * quarter, "s2": quarter},
    }


@pytest.fixture
def funnel() -> TargetArena:
    """Every route from p or q must pass through t before the target."""
    return make_arena(
        ["p", "q", "t", "fin", "fail"],
        ["pa", "qa", "ta", "tb"],
        [
            ("p", "pa"), ("pa", "t"), ("pa", "q"),
            ("q", "qa"), ("qa", "t"), ("qa", "p"),
            ("t", "ta"), ("ta", "fin"), ("ta", "fail"),
            ("t", "tb"), ("tb", "fail"), ("tb", "fin"),
        ],
        ["fin"],
    )


@pytest.fixture
def target_into_coin() -> TargetArena:
    """The target t leads only into v, whose one move is a coin between t
    and the dead end z: every play from t passes through v, yet t is worth
    1 and v less."""
    return make_arena(
        ["t", "v", "z"], ["n1", "n2"],
        [("t", "n1"), ("n1", "v"), ("v", "n2"), ("n2", "t"), ("n2", "z")],
        ["t"],
    )


@pytest.fixture
def relay() -> TargetArena:
    """t can always be revisited from wherever q's progress stalls, so t is
    never better than p."""
    return make_arena(
        ["s", "p", "q", "t", "fin", "fail"],
        ["sa", "sb", "pa", "qa", "ta"],
        [
            ("s", "sa"), ("sa", "p"), ("s", "sb"), ("sb", "t"),
            ("p", "pa"), ("pa", "q"), ("pa", "t"),
            ("q", "qa"), ("qa", "fin"), ("qa", "t"),
            ("t", "ta"), ("ta", "fail"), ("ta", "q"),
        ],
        ["fin"],
    )


@pytest.fixture
def spare_left() -> TargetArena:
    """p has one extra successor u, provably dominated by {v, z}."""
    return make_arena(
        ["p", "q", "fin", "fail", "muz", "mvu", "mvz"],
        ["u", "v", "z"],
        [
            ("p", "u"), ("p", "v"), ("p", "z"), ("q", "v"), ("q", "z"),
            ("u", "fail"), ("u", "muz"), ("muz", "z"),
            ("v", "fin"), ("v", "mvu"), ("mvu", "u"), ("v", "mvz"), ("mvz", "z"),
            ("z", "fin"), ("z", "fail"),
        ],
        ["fin"],
    )


@pytest.fixture
def spare_right() -> TargetArena:
    """Mirrored variant: u detours into v, z detours into x, both dominated."""
    return make_arena(
        ["p", "q", "fin", "fail", "muv", "mzx"],
        ["u", "v", "x", "z"],
        [
            ("p", "u"), ("p", "v"), ("p", "x"), ("q", "v"), ("q", "x"), ("q", "z"),
            ("u", "muv"), ("muv", "v"), ("u", "fail"),
            ("v", "fin"), ("v", "fail"), ("x", "fin"), ("x", "fail"),
            ("z", "mzx"), ("mzx", "x"), ("z", "fail"),
        ],
        ["fin"],
    )


def build_selector(sure_t: bool = False) -> TargetArena:
    """p and q can each force reaching s, or t, with probability one; s and
    t then branch to the target or to failure.  With ``sure_t`` the branch
    at t goes straight to the target, making t strictly better than s."""
    nt_edges = [("nt", "fin")] if sure_t else [("nt", "fin"), ("nt", "fail")]
    return make_arena(
        ["p", "q", "s", "t", "fin", "fail"],
        ["pa", "pb", "qa", "qb", "ns", "nt"],
        [
            ("p", "pa"), ("pa", "q"), ("pa", "t"),
            ("p", "pb"), ("pb", "q"), ("pb", "s"),
            ("q", "qa"), ("qa", "p"), ("qa", "s"),
            ("q", "qb"), ("qb", "p"), ("qb", "t"),
            ("s", "ns"), ("ns", "fin"), ("ns", "fail"),
            ("t", "nt"),
        ]
        + nt_edges,
        ["fin"],
    )


@pytest.fixture
def selector() -> TargetArena:
    return build_selector()


@pytest.fixture
def selector_tilted() -> TargetArena:
    return build_selector(sure_t=True)
