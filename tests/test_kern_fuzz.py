"""Fuzz tests: a mutated **kern file either parses or raises KernError, and
the library parser agrees with the scalar oracle on it."""

import pytest

from quartet_attrib.score import KernError, parse_kern
from test_score import parse_both

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: A small file that reaches most of the parser: meters and a meter change,
#: chords, rests, dots, tuplets, ties across a barline, grace notes, a spine
#: split and merge, an exchange, comments and a non-kern spine.
BASE = "\n".join(
    [
        "!!!COM: fuzz base",
        "**kern\t**kern\t**dynam\t**kern\t**kern",
        "*clefF4\t*clefC3\t*\t*clefG2\t*clefG2",
        "*M4/4\t*M4/4\t*\t*M4/4\t*M4/4",
        "=1\t=1\t=1\t=1\t=1",
        "4GG\t4c\tp\t8e 8g\t(8cc",
        ".\t.\t.\t8f\t8dd)",
        "4r\t4r\t.\t4.e\t[4ee",
        "2G\t2B\t.\t.\t4ee]",
        ".\t.\t.\t8d\t8ccq",
        ".\t.\t.\t.\t12dd",
        ".\t.\t.\t.\t12ee",
        ".\t.\t.\t.\t12ff#",
        "=2\t=2\t=2\t=2\t=2",
        "*\t*^\t*\t*\t*",
        "2GG\t2c\t2e\t.\t2g\t[2gg",
        "*\t*v\t*v\t*\t*\t*",
        "*M3/4\t*M3/4\t*\t*M3/4\t*M3/4",
        "=3\t=3\t=3\t=3\t=3",
        "2.C\t2.G\tf\t2.c\t4gg]",
        ".\t.\t.\t.\t2a-",
        "*\t*\t*\t*x\t*x",
        "=4\t=4\t=4\t=4\t=4",
        "2.r\t2.r\t.\t2.r\t2.r",
        "==\t==\t==\t==\t==",
        "*-\t*-\t*-\t*-\t*-",
    ]
) + "\n"

#: Characters that carry meaning in **kern, plus a few that do not.
ALPHABET = "abcdefgABCDEFGrnq#-.[]_()=*!^vx+%/M0123456789 \t;LJ&"


@st.composite
def mutated(draw):
    lines = BASE.splitlines()
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(("replace", "delete", "insert", "drop_line", "copy_line")))
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if op == "drop_line":
            del lines[i]
        elif op == "copy_line":
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:
            k = draw(st.integers(0, len(line)))
            char = draw(st.sampled_from(ALPHABET))
            if op == "replace":
                lines[i] = line[:k] + char + line[k + 1 :]
            elif op == "delete":
                lines[i] = line[:k] + line[k + 1 :]
            else:
                lines[i] = line[:k] + char + line[k:]
        if not lines:
            break
    return "\n".join(lines) + "\n"


def test_base_file_parses():
    assert len(parse_kern(BASE).voices) == 4


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
)
@hypothesis.given(mutated())
def test_mutated_kern_raises_only_kern_error(text):
    try:
        parse_kern(text)
    except KernError:
        pass


@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(mutated())
def test_mutated_kern_matches_oracle(caplog, text):
    lib, oracle = parse_both(text, caplog)  # clears caplog for each parser
    assert lib == oracle
