"""`export.write_json` against its definition: the text of
`json.dumps(doc, indent=2, sort_keys=True)` and a newline, byte for byte.

The writer has its own encoder because `json.dumps` with `indent` runs
the pure-Python encoder before Python 3.13; `json.dumps` stays the oracle.
"""

from __future__ import annotations

import json
import math
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sthl import export

GOLDEN = Path(__file__).parent / "golden" / "packages"


class Num(float):
    def __repr__(self) -> str:
        return "Num"


class Count(int):
    def __repr__(self) -> str:
        return "Count"


class Text(str):
    pass


class Size(IntEnum):
    LARGE = 7


def _oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _written(doc, directory: Path) -> str:
    path = directory / "doc.json"
    export.write_json(path, doc)
    return path.read_text(encoding="utf-8")


texts = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('"\\/\x00\x08\x0c\x1f\x7fé \U0001f600'),
    ),
    max_size=12,
)
floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.floats().map(Num),
)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([2**64, -(2**64) - 1, Size.LARGE]),
    st.integers().map(Count),
)
scalars = st.one_of(texts, texts.map(Text), floats, ints, st.booleans(), st.none())
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=40,
)


@pytest.fixture(scope="module")
def directory(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("json")


@given(documents)
@settings(max_examples=400, deadline=None)
def test_write_json_is_json_dumps_byte_for_byte(directory, doc):
    assert _written(doc, directory) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, True, False, None,
        2**64 + 1, -(2**70), "", "é\"\\\n\x00", [], {}, (), [[], {}, ()],
        {"b": [1, 2.5, None], "a": {"": ("x", True)}}, Num(1.5), Count(3), Size.LARGE,
    ],
    ids=repr,
)
def test_write_json_edge_values(tmp_path, doc):
    assert _written(doc, tmp_path) == _oracle(doc)


# A bare object's repr holds its address, so it is named by how it is made.
@pytest.mark.parametrize(
    "doc",
    [{1: "a"}, {None: 1}, object(), [{1.5}]],
    ids=lambda doc: "object()" if type(doc) is object else repr(doc),
)
def test_write_json_rejects_what_it_cannot_key_or_encode(tmp_path, doc):
    with pytest.raises(TypeError):
        export.write_json(tmp_path / "doc.json", doc)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()))
def test_golden_scene_documents_rewrite_to_themselves(tmp_path, name):
    path = GOLDEN / name / export.SCENE_FILE
    assert _written(json.loads(path.read_text(encoding="utf-8")), tmp_path) == path.read_text(
        encoding="utf-8"
    )
