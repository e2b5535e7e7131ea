"""Mutated scheme and family files never crash `csw`: every command ends with
one of the documented exit codes (0 pass, 1 claim failure, 2 configuration
error, 3 I/O error) and no exception escapes `cli.main`."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csw import (
    build_K_family,
    build_eps_family,
    build_scheme,
    family_to_json,
    scheme_to_json,
    validate_type,
)
from csw.cli import main

SCHEME = build_scheme(validate_type([1, 2, 4], [2, 3], [0, 1]))
BASES = {
    "scheme": json.dumps(scheme_to_json(SCHEME)),
    "eps": json.dumps(family_to_json(build_eps_family(SCHEME, "1/2"))),
    "k": json.dumps(family_to_json(build_K_family(SCHEME, 2, scale_cap=2))),
}
FAMILY_COMMANDS = [
    ["analyze", "coherence", "--lp-every", "3", "--family"],
    ["analyze", "biorth", "--family"],
    ["analyze", "welldef", "--samples", "10", "--family"],
    ["analyze", "basis-constant", "--family"],
    ["norm", "eval", "--vec", "0:1,3:-1/2", "--norm-mode", "all", "--family"],
]
COMMANDS = {
    "scheme": [["scheme", "check"], ["scheme", "build", "--type"],
               ["norming", "build", "--space", "k", "--param", "2", "--scheme"]],
    "eps": FAMILY_COMMANDS,
    "k": FAMILY_COMMANDS,
}
LEAVES = [None, True, False, 0, 1, -1, 2, 999, 1.5, "", "x", "1", "-1/2", "1/0",
          "2:0", [], {}, [0], [[0, 1]], {"0": "1"}]
KEYS = ["", "x", "-1", "0:0", "1:5", "2:-1", "9:9", "999", "rule", "alpha"]


def mutate(data, doc):
    """Replace, delete or rename one entry somewhere in `doc`, in place."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.integers(0, 3)):
            node = child
            continue
        op = data.draw(st.sampled_from(["replace", "delete", "rename"]))
        if op == "replace":
            node[key] = copy.deepcopy(data.draw(st.sampled_from(LEAVES)))
        elif op == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.sampled_from(KEYS))] = node.pop(key)
        else:
            node.insert(data.draw(st.integers(0, len(node))), child)
        return


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", sorted(BASES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_files_end_with_an_exit_code(workdir, kind, data):
    doc = json.loads(BASES[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    path = workdir / f"{kind}.json"
    path.write_text(json.dumps(doc))
    for argv in COMMANDS[kind]:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, str(path)])
        assert code in (0, 1, 2, 3), argv
