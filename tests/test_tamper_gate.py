"""Tamper gate: untrusted JSON is read or refused, never crashed on.

Every golden certificate, and one refute candidate file, with one node (an
object entry or a list element at any depth) replaced by a hostile value:
verify_certificate returns a bool or raises ApproxcatError, and the CLI
commands that read such files (normalize, exchange, refute) never exit 4,
the code of an internal error. Huge integers are left out: the readers do
not cap sizes yet, so a declared dimension of 10**9 is still accepted.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from approxcat.cli import INTERNAL_ERROR_EXIT, main
from approxcat.counterex import LoopQuiverConfig, assemble_member
from approxcat.errors import ApproxcatError
from approxcat.fields import FieldSpec
from approxcat.rep import Rep, hom_basis
from approxcat.serialize import evidence_to_jsonable, morphism_to_jsonable, verify_certificate

GOLDEN = pathlib.Path(__file__).parent / "golden"
HOSTILE = [None, 0, -1, 2, 1.5, 3.0, "", "x", "3", "F4", [], [[]], {}, {"a": 1}, True, False]
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _paths(node, prefix=()):
    """The path of every node below node, as tuples of keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _certificates():
    """(name, certificate) for every certificate in the golden corpus; a
    file holds one, or a bundle of them keyed by name."""
    out = []
    for p in sorted(GOLDEN.glob("*.json")):
        data = json.loads(p.read_text())
        for name, item in [("", data)] if "type" in data else sorted(data.items()):
            if isinstance(item, dict) and "format" in item and "type" in item:
                out.append((f"{p.stem}:{name}", item))
    return out


CERTIFICATES = _certificates()
FILTRATIONS = [(n, c) for n, c in CERTIFICATES if c["type"] == "filtration"]


def _candidate_file():
    """The workspace and candidate file of a refute run on two loops."""
    cfg = LoopQuiverConfig(2, FieldSpec.prime(2))
    v, evidence = assemble_member(cfg, 1, 1, [1, 0])
    phi = hom_basis(Rep.simple(cfg.quiver(), cfg.field, 1), v)[0]
    workspace = {"format": 1, "quiver": cfg.quiver().to_jsonable(), "field": "F2"}
    candidate = {"candidate": morphism_to_jsonable(phi), "evidence": evidence_to_jsonable(evidence)}
    return workspace, candidate


WORKSPACE, CANDIDATE = _candidate_file()


def _tampered(draw, data):
    """A copy of data with one node, drawn by draw, replaced by a hostile value."""
    path = draw(st.sampled_from(list(_paths(data))))
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(st.sampled_from(HOSTILE))
    return data


def _run(argv, files):
    """main(argv) with each name in argv that files maps replaced by the
    path of a file holding that JSON; returns the exit code and stdout."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            paths[name] = pathlib.Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(data))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--json-only"] + [str(paths.get(a, a)) for a in argv])
    return code, out.getvalue()


def test_corpus_is_found():
    assert len(CERTIFICATES) >= 20 and len(FILTRATIONS) >= 9


@SETTINGS
@given(st.sampled_from(CERTIFICATES), st.data())
def test_verify_returns_a_bool_or_refuses(named, data):
    tampered = _tampered(data.draw, named[1])
    try:
        ok = verify_certificate(tampered)
    except ApproxcatError:
        return
    assert isinstance(ok, bool)


@SETTINGS
@given(st.sampled_from(FILTRATIONS), st.data())
def test_filtration_commands_never_crash(named, data):
    files = {"cert": _tampered(data.draw, named[1])}
    for argv in (["normalize", "--certificate", "cert"],
                 ["exchange", "--certificate", "cert", "--index", "0"]):
        code, out = _run(argv, files)
        assert code != INTERNAL_ERROR_EXIT, out


@SETTINGS
@given(st.data())
def test_refute_never_crashes(data):
    files = {"ws": WORKSPACE, "cand": _tampered(data.draw, CANDIDATE)}
    code, out = _run(["refute", "--workspace", "ws", "--candidate", "cand"], files)
    assert code != INTERNAL_ERROR_EXIT, out
