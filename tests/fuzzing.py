"""Hypothesis text for the input formats (.grp, .gsys, .esys): valid texts
mutated token by token with the formats' own keywords and with small,
negative and huge integers, or lines of such tokens alone; and argument
lists for the `construct` command."""

from hypothesis import strategies as st

from groupsystems.elementary import extract_elementary_system
from groupsystems.generators import build_context
from groupsystems.groups import cyclic_group, symmetric_group_3
from groupsystems.io import dump_elementary_system, dump_group, parse_system

KEYWORDS = ("group", "system", "window", "alphabet", "all", "seq", "rule", "conv",
            "esys", "depth", "labels", "egrp", "tri", "G", "G0", "Z1", "Z2", "Z3",
            "Z4", "S3", "x0", "x1", "x0+x1", "x2+x0", "x", "#", "+")
SMALL = st.integers(-1, 4).map(str)
INTEGERS = st.one_of(
    st.integers(-3, 6).map(str),                          # small
    st.integers(-10 ** 30, -4).map(str),                  # negative
    st.integers(7, 10 ** 30).map(str),                    # huge
    # past the member cap, and past what int() reads (4300 digits)
    st.sampled_from([str(2 ** 16), str(2 ** 16 + 1), str(2 ** 63), "9" * 5000]),
)
TOKENS = st.one_of(st.sampled_from(KEYWORDS), INTEGERS, SMALL)
LINES = st.lists(TOKENS, min_size=1, max_size=7).map(" ".join)


def _esys_dump(text: str) -> str:
    return dump_elementary_system(extract_elementary_system(build_context(
        parse_system(text))))


# valid texts of each format, which the fuzzer mutates token by token
SEEDS = {
    "grp": [dump_group(g) for g in (cyclic_group(1), cyclic_group(3),
                                    symmetric_group_3())],
    "gsys": ["system R2\nwindow 0 1\nalphabet all Z2\nseq 0 0\nseq 1 1\n",
             "system C2\nwindow 0 3\nrule conv Z2 x0 x0+x1\n",
             "system I\nwindow 0 1\ngroup G 2\n0 1\n1 0\nalphabet 0 G\n"
             "alphabet 1 S3\nseq 1 3\n"],
    "esys": [_esys_dump("system R2\nwindow 0 1\nalphabet all Z2\nseq 0 0\nseq 1 1\n"),
             _esys_dump("system C\nwindow 0 2\nrule conv Z2 x0 x1\n")],
}


@st.composite
def fuzzed_texts(draw, kind: str) -> str:
    """A valid text of the format with a few tokens replaced by keywords
    of the formats or by small, negative and huge integers, and lines
    deleted, repeated or inserted; or lines of such tokens alone."""
    if draw(st.integers(0, 4)) == 0:
        return "\n".join(draw(st.lists(LINES, min_size=1, max_size=10))) + "\n"
    lines = draw(st.sampled_from(SEEDS[kind])).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        edit = draw(st.sampled_from(("token", "token", "delete", "repeat", "insert")))
        if edit == "token" and lines:
            parts = lines[i].split()
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
        elif edit == "delete" and lines:
            del lines[i]
        elif edit == "repeat" and lines:
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(LINES))
    return "\n".join(lines) + "\n"


# -- construct flags ----------------------------------------------------------

GROUP_NAMES = ("Z1", "Z2", "Z3", "Z4", "S3")
HUGE = st.sampled_from([3000, 30000, 10 ** 6, 10 ** 30])
DEPTHS = st.one_of(st.integers(-1, 4), st.sampled_from([10 ** 6, 10 ** 30]))
KERNEL_ITEMS = st.one_of(
    st.builds("{}={}".format, DEPTHS, st.sampled_from(GROUP_NAMES)),
    st.sampled_from(["=Z2", "0", "x=Z2", "0=Z0", "0=Q8", "0=Z2=Z3", "0=z2",
                     "0=Z" + "9" * 5000]),
)
EXT_INDEX_ITEMS = st.one_of(
    st.builds("{}={}".format, DEPTHS,
              st.one_of(st.integers(-3, 3), st.sampled_from([10 ** 6, 10 ** 30]))),
    st.sampled_from(["=1", "0", "0=x", "0=1.5", "0=" + "9" * 5000]),
)


@st.composite
def construct_argvs(draw) -> list:
    """`--window T0 T1 construct ...` with a small, negative or inverted
    window, or one past the member cap (also inverted), ell from -1 to 4
    or huge, and up to two --kernel and --ext-index items each, well
    formed or not.

    A window past the member cap comes with a seed group of order above 1
    and ell from -1 to 4, so its top row alone holds more label tensors
    than the cap, or ell is negative: a long window labelled only by
    trivial groups is a valid construction, uncapped, whose output grows
    with its slots."""
    if draw(st.booleans()):
        t0 = draw(st.integers(-3, 3))
        window = (t0, t0 + draw(st.integers(-3, 5)))
        seed = draw(st.sampled_from(GROUP_NAMES))
        ell = draw(DEPTHS)
    else:
        length = draw(HUGE)
        window = draw(st.sampled_from([(0, length), (-length, 0), (length, 0)]))
        seed = draw(st.sampled_from(GROUP_NAMES[1:]))
        ell = draw(st.integers(-1, 4))
    argv = ["--window", str(window[0]), str(window[1]), "construct",
            "--seed-group", seed, "--ell", str(ell)]
    for flag, items in (("--kernel", KERNEL_ITEMS), ("--ext-index", EXT_INDEX_ITEMS)):
        for item in draw(st.lists(items, max_size=2)):
            argv += [flag, item]
    return argv
