"""Mutated scheme and family files, raw-byte damage to them, and arbitrary
`--vec` and inline `--type` strings never crash `csw`: every command ends with
one of the documented exit codes (0 pass, 1 claim failure, 2 configuration
error, 3 I/O error) and no exception escapes `cli.main`.  A family file that
loads is one whose every set's entries are the writer's for the family
rebuilt from the file's scheme, space, param and scale_cap."""

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
    check_axioms,
    family_from_json,
    family_to_json,
    scheme_from_json,
    scheme_to_json,
    validate_type,
)
from csw.cli import main
from csw.errors import ConfigError

from oracles import mutate_scheme_json

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


def run(argv):
    """The exit code of `csw argv` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def exit_code(argv):
    return run(argv)[0]


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
        assert exit_code([*argv, str(path)]) in (0, 1, 2, 3), argv
    if kind != "scheme":  # the zero vector's norm needs nothing past the load
        code, err = run(["norm", "eval", "--vec", "", "--family", str(path)])
        assert code == 0 or (code in (2, 3) and str(path) in err), (code, err)


@pytest.mark.parametrize("kind", ["eps", "k"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_an_edit_past_the_first_set_of_a_rank_is_refused(kind, data):
    # every set, the first of each rank included: the loader rebuilds them all
    doc = json.loads(BASES[kind])
    key = data.draw(st.sampled_from(sorted(doc["families"])))
    before = json.dumps(doc["families"][key], sort_keys=True)
    for _ in range(data.draw(st.integers(1, 3))):
        if doc["families"][key]:
            mutate(data, doc["families"][key])
    if json.dumps(doc["families"][key], sort_keys=True) == before:
        family_from_json(doc)
    else:
        with pytest.raises(ConfigError, match=f"^{key} is not the writer's"):
            family_from_json(doc)


@pytest.mark.parametrize("kind", ["eps", "k"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_family_file_on_a_scheme_that_fails_its_axioms_is_refused(workdir, kind, data):
    # only the embedded scheme changes: by scheme edits, or by any edits
    doc = json.loads(BASES[kind])
    edit = mutate_scheme_json if data.draw(st.booleans()) else mutate
    for _ in range(data.draw(st.integers(1, 3))):
        edit(data, doc["scheme"])
    try:
        scheme = scheme_from_json(doc["scheme"])
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, ConfigError):
        return  # no scheme to check; the tests above cover what the CLI does
    if check_axioms(scheme).passed:
        return
    with pytest.raises(ConfigError):
        family_from_json(doc)
    path = workdir / f"{kind}-scheme.json"
    path.write_text(json.dumps(doc))
    code, err = run(["norm", "eval", "--vec", "", "--family", str(path)])
    assert code == 2 and str(path) in err, (code, err)


@pytest.mark.parametrize("kind", sorted(BASES))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_bytes_end_with_an_exit_code(workdir, kind, data):
    raw = bytearray(BASES[kind].encode())
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        op = data.draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        if op == "flip" and at < len(raw):
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
        elif op == "delete":
            del raw[at:at + data.draw(st.integers(1, 8))]
        elif op == "insert":
            raw[at:at] = data.draw(st.binary(min_size=1, max_size=4))
        else:
            del raw[at:]
    path = workdir / f"{kind}-bytes.json"
    path.write_bytes(bytes(raw))
    for argv in COMMANDS[kind]:
        assert exit_code([*argv, str(path)]) in (0, 1, 2, 3), argv


VEC_TEXT = st.one_of(st.text(alphabet="0123456789:/,-+. ", max_size=24),
                     st.text(max_size=12))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vec=VEC_TEXT)
def test_vec_strings_end_with_an_exit_code(workdir, vec):
    path = workdir / "k-vec.json"
    if not path.exists():
        path.write_text(BASES["k"])
    argv = ["norm", "eval", "--family", str(path), f"--vec={vec}"]
    assert exit_code(argv) in (0, 1, 2, 3), vec


# every integer at most 40, so no type allocates a large universe
TOKEN = st.one_of(st.integers(-3, 40).map(str),
                  st.sampled_from(["", " ", "x", "1.5", "+2", "0x1", "-"]))


@st.composite
def near_types(draw):
    """A type string that keeps the type arithmetic, or breaks one entry of it."""
    m, n, r = [1], [], []
    for k in range(1, draw(st.integers(0, 3)) + 1):
        rk = draw(st.integers(0, m[-1] - 1))
        nk = draw(st.integers(k + 1, k + 3))
        if nk * (m[-1] - rk) + rk > 40:
            break
        m.append(nk * (m[-1] - rk) + rk)
        n.append(nk)
        r.append(rk)
    parts = [[str(v) for v in part] for part in (m, n, r)]
    if draw(st.booleans()):
        part = draw(st.sampled_from([p for p in parts if p]))
        part[draw(st.integers(0, len(part) - 1))] = draw(TOKEN)
    return ";".join(",".join(part) for part in parts)


TYPE_TEXT = st.one_of(st.lists(st.lists(TOKEN, max_size=5).map(",".join),
                               max_size=4).map(";".join),
                      near_types())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=TYPE_TEXT)
def test_inline_type_strings_end_with_an_exit_code(spec):
    for argv in (["scheme", "build", f"--type={spec}"],
                 ["experiment", "eps", "--eps", "1/2", "--n", "1", f"--type={spec}"]):
        assert exit_code(argv) in (0, 1, 2, 3), spec
