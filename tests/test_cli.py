"""End-to-end tests of the command line, calling main() directly."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from approxcat.approx import AddCategory, left_approx_add, member_add
from approxcat.cli import main
from approxcat.counterex import MAX_LOOPS, LoopQuiverConfig, assemble_member
from approxcat.errors import ShapeError
from approxcat.extfilt import FiltrationCertificate, OrderedFamily, member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver, loop_quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    direct_sum,
    hom_basis,
    subrep_from_bases,
)
from approxcat.scenarios import run_scenario
from approxcat.serialize import (
    certificate_to_jsonable,
    evidence_to_jsonable,
    morphism_to_jsonable,
    verify_certificate,
)

F2 = FieldSpec.prime(2)
A2 = Quiver(2, [("a", 0, 1)])
GOLDEN = pathlib.Path(__file__).parent / "golden"

A2_WORKSPACE = {
    "format": 1,
    "quiver": {
        "vertices": 2,
        "arrows": [{"id": "a", "source": 0, "target": 1}],
    },
    "field": "F2",
    "reps": {
        "S1": {"dims": [1, 0], "maps": {}},
        "S2": {"dims": [0, 1], "maps": {}},
        "P1": {"dims": [1, 1], "maps": {"a": [[1]]}},
        "SS": {"dims": [1, 1], "maps": {"a": [[0]]}},
    },
    "handles": {
        "simples1": {"add": ["S1"]},
        "simples2": {"add": ["S2"]},
        "projs": {"add": ["P1", "S2"]},
        "semis": {"ext": ["simples1", "simples2"]},
        "inline": {"ext": [{"add": ["S1"]}, "simples2"]},
    },
}

LOOP_WORKSPACE = {
    "format": 1,
    "quiver": {
        "vertices": 2,
        "arrows": [
            {"id": "alpha1", "source": 0, "target": 0},
            {"id": "alpha2", "source": 0, "target": 0},
            {"id": "beta", "source": 0, "target": 1},
        ],
    },
    "field": "F2",
    "reps": {
        "S1": {"dims": [1, 0], "maps": {}},
        "S2": {"dims": [0, 1], "maps": {}},
        "M": {"dims": [1, 1], "maps": {"beta": [[1]]}},
        "W": {
            "dims": [2, 1],
            "maps": {"alpha1": [[0, 0], [1, 0]], "beta": [[1, 0]]},
        },
    },
    "handles": {
        "add_s1": {"add": ["S1"]},
        "add_m": {"add": ["M"]},
        "xy": {"ext": ["add_s1", "add_m"]},
    },
}

ONE_LOOP_WORKSPACE = {
    "format": 1,
    "quiver": {
        "vertices": 1,
        "arrows": [{"id": "alpha1", "source": 0, "target": 0}],
    },
    "field": "F2",
    "reps": {
        "S": {"dims": [1], "maps": {"alpha1": [[0]]}},
        "J2": {"dims": [2], "maps": {"alpha1": [[0, 1], [0, 0]]}},
    },
    "handles": {"adds": {"add": ["S"]}},
}


@pytest.fixture
def a2_ws(tmp_path):
    p = tmp_path / "a2.json"
    p.write_text(json.dumps(A2_WORKSPACE))
    return str(p)


@pytest.fixture
def loop_ws(tmp_path):
    p = tmp_path / "loop.json"
    p.write_text(json.dumps(LOOP_WORKSPACE))
    return str(p)


@pytest.fixture
def one_loop_ws(tmp_path):
    p = tmp_path / "oneloop.json"
    p.write_text(json.dumps(ONE_LOOP_WORKSPACE))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestHomExt:
    def test_hom_line_into_w(self, capsys, loop_ws):
        code, out, err = run(
            capsys, ["hom", "--workspace", loop_ws, "--from", "S2", "--to", "W"]
        )
        assert code == 0
        assert out["dim"] == 1
        assert len(out["basis"]) == 1
        assert "= 1" in err

    def test_hom_zero(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["hom", "--workspace", a2_ws, "--from", "S1", "--to", "P1"]
        )
        assert code == 0
        assert out["dim"] == 0

    def test_ext1(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["ext1", "--workspace", a2_ws, "--from", "S1", "--to", "S2"]
        )
        assert code == 0
        assert out["dim"] == 1

    def test_json_only_suppresses_summary(self, capsys, a2_ws):
        code, out, err = run(
            capsys,
            ["--json-only", "hom", "--workspace", a2_ws, "--from", "S1", "--to", "S1"],
        )
        assert code == 0
        assert out["dim"] == 1
        assert err == ""


class TestApprox:
    def test_left_add(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            ["approx-left", "--workspace", a2_ws, "--of", "P1", "--into", "simples2"],
        )
        assert code == 0
        assert verify_certificate(out["certificate"])

    def test_right_add_minimized(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            [
                "approx-right", "--workspace", a2_ws,
                "--of", "S1", "--into", "projs", "--minimize",
            ],
        )
        assert code == 0
        assert out["approximating_dims"] == [1, 1]
        assert verify_certificate(out["certificate"])

    @pytest.mark.parametrize("x, y", [("simples1", "simples2"), ("inline", "semis")])
    def test_left_into_an_ext_handle_is_approx_ext(self, capsys, tmp_path, x, y):
        # approx-left takes any handle tree: its nested certificate
        # verifies and is the one approx-ext gives for the same x * y
        ws = json.loads(json.dumps(A2_WORKSPACE))
        ws["handles"]["xy"] = {"ext": [x, y]}
        path = tmp_path / "xy.json"
        path.write_text(json.dumps(ws))
        code, out, _ = run(
            capsys, ["approx-left", "--workspace", str(path), "--of", "P1", "--into", "xy"]
        )
        assert code == 0
        assert verify_certificate(out["certificate"])
        code, ext, _ = run(
            capsys, ["approx-ext", "--workspace", str(path), "--of", "P1", "--x", x, "--y", y]
        )
        assert code == 0
        assert json.dumps(out, sort_keys=True) == json.dumps(ext, sort_keys=True)

    def test_minimize_refuses_an_ext_approximation(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            ["approx-left", "--workspace", a2_ws, "--of", "P1", "--into", "semis", "--minimize"],
        )
        assert code == 2
        assert "minimize_approx needs an add-approximation" in out["error"]["message"]

    def test_right_into_an_ext_handle_refused(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["approx-right", "--workspace", a2_ws, "--of", "S1", "--into", "semis"]
        )
        assert code == 2
        assert "--into must name an add handle" in out["error"]["message"]

    def test_left_ext(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", a2_ws,
                "--of", "P1", "--x", "simples1", "--y", "simples2",
            ],
        )
        assert code == 0
        # the approximating object is S1: P1 surjects onto it and nothing
        # more of P1 reaches the extension category
        assert out["approximating_dims"] == [1, 0]
        assert verify_certificate(out["certificate"])

    def test_left_ext_rejects_cycles(self, capsys, loop_ws):
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", loop_ws,
                "--of", "M", "--x", "add_s1", "--y", "add_m",
            ],
        )
        assert code == 3
        assert out["error"]["code"] == "NonAcyclicQuiver"

    def test_left_ext_subclosed_on_loop(self, capsys, one_loop_ws):
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", one_loop_ws,
                "--of", "J2", "--x", "adds", "--y", "adds",
                "--assume-subobject-closed",
            ],
        )
        assert code == 0
        assert verify_certificate(out["certificate"])

    @pytest.mark.parametrize("field, want", [("F3", 0), ("Q", 3)])
    def test_left_ext_subclosed_report_is_verified(self, capsys, tmp_path, field, want):
        # add{S, J2} is closed under subobjects but not vertex-simple: over
        # F3 the closure is checked and the report verifies; over Q nothing
        # decides it, so the report's verify refuses with exit 3
        ws = json.loads(json.dumps(ONE_LOOP_WORKSPACE))
        ws["field"] = field
        ws["handles"]["addsj"] = {"add": ["S", "J2"]}
        path = tmp_path / "oneloop.json"
        path.write_text(json.dumps(ws))
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", str(path), "--of", "J2",
                "--x", "adds", "--y", "addsj", "--assume-subobject-closed",
            ],
        )
        assert code == want
        if want:
            assert out["error"]["code"] == "RationalFieldUnsupported"
        else:
            assert verify_certificate(out["certificate"])

    @pytest.mark.parametrize("x, y", [("semis", "projs"), ("simples1", "inline"),
                                      ("inline", "semis")])
    def test_left_ext_of_handle_trees(self, capsys, a2_ws, x, y):
        code, out, _ = run(
            capsys, ["approx-ext", "--workspace", a2_ws, "--of", "P1", "--x", x, "--y", y]
        )
        assert code == 0
        assert out["certificate"]["handle"]["kind"] == "ext"
        assert verify_certificate(out["certificate"])

    def test_subclosed_needs_an_add_y(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", a2_ws, "--of", "P1",
                "--x", "simples1", "--y", "semis", "--assume-subobject-closed",
            ],
        )
        assert code == 2
        assert "--y must name an add handle" in out["error"]["message"]

    def test_subclosed_nested_x_needs_projectives(self, capsys, tmp_path):
        # the image replaces the projectives at the top level only; the
        # approximation into the nested x needs them again
        ws = json.loads(json.dumps(ONE_LOOP_WORKSPACE))
        ws["handles"]["nested"] = {"ext": ["adds", "adds"]}
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(ws))
        code, out, _ = run(
            capsys,
            [
                "approx-ext", "--workspace", str(path), "--of", "J2",
                "--x", "nested", "--y", "adds", "--assume-subobject-closed",
            ],
        )
        assert code == 3
        assert out["error"]["code"] == "NonAcyclicQuiver"

    def test_deterministic_output(self, capsys, a2_ws):
        argv = ["approx-left", "--workspace", a2_ws, "--of", "P1", "--into", "projs"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestMembership:
    def test_member_add_found(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["member-add", "--workspace", a2_ws, "--rep", "P1", "--in", "projs"]
        )
        assert code == 0
        assert out["member"] is True
        assert out["evidence"]["multiplicities"] == [1, 0]

    def test_member_add_absent(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            ["member-add", "--workspace", a2_ws, "--rep", "S1", "--in", "simples2"],
        )
        assert code == 1
        assert out == {"member": False}

    def test_member_add_absent_by_arrow_rank(self, capsys, tmp_path):
        # over F3 the hom space to S2^3 + S1^3 is beyond the exhaustive
        # iso bound; the rank of the arrow map gives the sound negative
        ws = json.loads(json.dumps(A2_WORKSPACE))
        ws["field"] = "F3"
        ws["reps"]["R"] = {"dims": [3, 3], "maps": {"a": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}}
        ws["handles"]["simples21"] = {"add": ["S2", "S1"]}
        path = tmp_path / "rank1.json"
        path.write_text(json.dumps(ws))
        code, out, _ = run(
            capsys,
            ["member-add", "--workspace", str(path), "--rep", "R", "--in", "simples21"],
        )
        assert code == 1
        assert out == {"member": False}

    def test_member_add_absent_by_hom_dimensions(self, capsys, tmp_path):
        # Kronecker over F3: R_1^3 + R_2 against R_1^4 is past the exhaustive
        # iso bound with equal arrow ranks; dim End 10 against dim Hom 12
        # gives the sound negative
        ws = {
            "format": 1,
            "quiver": {"vertices": 2, "arrows": [
                {"id": "a", "source": 0, "target": 1}, {"id": "b", "source": 0, "target": 1}]},
            "field": "F3",
            "reps": {
                "R1": {"dims": [1, 1], "maps": {"a": [[1]], "b": [[1]]}},
                "M": {"dims": [4, 4], "maps": {
                    "a": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    "b": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]}},
            },
            "handles": {"r1": {"add": ["R1"]}},
        }
        path = tmp_path / "kronecker.json"
        path.write_text(json.dumps(ws))
        code, out, _ = run(
            capsys, ["member-add", "--workspace", str(path), "--rep", "M", "--in", "r1"]
        )
        assert code == 1
        assert out == {"member": False}

    def test_member_ext_found_inline_handle(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["member-ext", "--workspace", a2_ws, "--rep", "SS", "--in", "inline"]
        )
        assert code == 0
        assert out["member"] is True

    def test_member_ext_absent(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["member-ext", "--workspace", a2_ws, "--rep", "P1", "--in", "semis"]
        )
        assert code == 1
        assert out == {"member": False}

    def test_member_ext_needs_ext_handle(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["member-ext", "--workspace", a2_ws, "--rep", "P1", "--in", "projs"]
        )
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"

    def test_member_filt_found(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            [
                "member-filt", "--workspace", a2_ws,
                "--rep", "P1", "--family", "S2,S1", "--depth", "2",
            ],
        )
        assert code == 0
        assert out["member"] is True
        assert verify_certificate(out["certificate"])

    def test_member_filt_too_shallow(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            [
                "member-filt", "--workspace", a2_ws,
                "--rep", "P1", "--family", "S2,S1", "--depth", "1",
            ],
        )
        assert code == 1
        assert out == {"member": False}

    def test_budget_exit_does_not_depend_on_earlier_commands(self, capsys, tmp_path):
        ws = json.loads(json.dumps(A2_WORKSPACE))
        ws["reps"]["R"] = {"dims": [3, 3], "maps": {"a": [[1, 0, 0], [0, 1, 0], [0, 0, 0]]}}
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps(ws))
        argv = ["member-filt", "--workspace", str(path), "--rep", "R",
                "--family", "P1", "--depth", "3"]
        tight = ["--max-total-dim", "2"] + argv
        assert run(capsys, tight)[0] == 3
        assert run(capsys, argv)[:2] == (1, {"member": False})
        assert run(capsys, tight)[0] == 3

    def test_budget_flag_reaches_search(self, capsys, loop_ws):
        code, out, _ = run(
            capsys,
            [
                "--max-total-dim", "1",
                "member-ext", "--workspace", loop_ws, "--rep", "W", "--in", "xy",
            ],
        )
        assert code == 3
        assert out["error"]["code"] == "BudgetExceeded"

    def test_flags_accepted_after_subcommand(self, capsys, loop_ws):
        code, out, err = run(
            capsys,
            [
                "member-ext", "--workspace", loop_ws, "--rep", "W", "--in", "xy",
                "--max-total-dim", "1", "--json-only",
            ],
        )
        assert code == 3
        assert out["error"]["code"] == "BudgetExceeded"
        assert err == ""

    @staticmethod
    def _member_filt_j2(ws):
        return ["member-filt", "--workspace", ws, "--rep", "J2", "--family", "S", "--depth", "1"]

    @pytest.mark.parametrize("flag", ["--max-total-dim", "--max-subspaces"])
    @pytest.mark.parametrize("value", ["-5", "abc", "2.5"])
    def test_bad_budget_flag_is_an_input_error(self, capsys, one_loop_ws, flag, value):
        member_filt = self._member_filt_j2(one_loop_ws)
        for argv in ([flag, value] + member_filt, member_filt + [flag, value]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out["error"]["code"] == "ShapeMismatch"
            assert flag in out["error"]["message"] and flag in err

    @pytest.mark.parametrize("var", ["APPROXCAT_MAX_TOTAL_DIM", "APPROXCAT_MAX_SUBSPACES"])
    @pytest.mark.parametrize("value", ["abc", "-5", ""])
    def test_bad_budget_variable_is_an_input_error(
        self, capsys, monkeypatch, one_loop_ws, var, value
    ):
        monkeypatch.setenv(var, value)
        code, out, _ = run(capsys, self._member_filt_j2(one_loop_ws))
        assert code == 2
        assert var in out["error"]["message"]


def _split_pair_certificate():
    """S1 + S2 filtered as S1 below, S2 above, over the family (S2, S1)."""
    s1 = Rep.simple(A2, F2, 0)
    s2 = Rep.simple(A2, F2, 1)
    m, _, _ = direct_sum([s1, s2])
    u, incl = subrep_from_bases(m, [Matrix(F2, 1, 1, [1]), Matrix(F2, 1, 0)])
    filt = Filtration([RepMorphism.zero(Rep.zero(A2, F2), u), incl])
    family = OrderedFamily([s2, s1])
    evidence = tuple(member_add(filt.factor(j), family) for j in range(2))
    return FiltrationCertificate(filt, m, family, evidence)


class TestFiltrationCommands:
    def test_exchange_swaps_split_layers(self, capsys, tmp_path):
        cert_file = tmp_path / "split.json"
        cert_file.write_text(
            json.dumps(certificate_to_jsonable(_split_pair_certificate()))
        )
        code, out, _ = run(
            capsys, ["exchange", "--certificate", str(cert_file), "--index", "0"]
        )
        assert code == 0
        assert out["factor_dims"] == [[0, 1], [1, 0]]

    def test_exchange_reports_obstruction(self, capsys, tmp_path, a2_ws):
        main(
            [
                "member-filt", "--workspace", a2_ws,
                "--rep", "P1", "--family", "S2,S1", "--depth", "2",
            ]
        )
        cert = json.loads(capsys.readouterr().out)["certificate"]
        cert_file = tmp_path / "p1.json"
        cert_file.write_text(json.dumps(cert))
        code, out, _ = run(
            capsys, ["exchange", "--certificate", str(cert_file), "--index", "0"]
        )
        assert code == 3
        assert out["error"]["code"] == "ExtObstruction"

    def test_normalize_splits_mixed_layer(self, capsys, tmp_path, a2_ws):
        main(
            [
                "member-filt", "--workspace", a2_ws,
                "--rep", "SS", "--family", "S2,S1", "--depth", "2",
            ]
        )
        found = json.loads(capsys.readouterr().out)
        assert found["certificate"]["filtration"]["steps"]
        cert_file = tmp_path / "ss.json"
        cert_file.write_text(json.dumps(found["certificate"]))
        code, out, _ = run(
            capsys, ["normalize", "--certificate", str(cert_file)]
        )
        assert code == 0
        assert out["depth"] == 2
        assert verify_certificate(out["certificate"])

    def test_exchange_rejects_tampered_certificate(self, capsys, tmp_path):
        data = certificate_to_jsonable(_split_pair_certificate())
        data["member"]["dims"] = [2, 1]
        cert_file = tmp_path / "bad.json"
        cert_file.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, ["exchange", "--certificate", str(cert_file), "--index", "0"]
        )
        assert code == 2
        assert out["error"]["code"] == "CertificateInvalid"


class TestRefute:
    def _candidate_file(self, tmp_path, coefficients):
        cfg = LoopQuiverConfig(2, F2)
        v, evidence = assemble_member(cfg, 1, 1, coefficients)
        phi = hom_basis(Rep.simple(cfg.quiver(), F2, 1), v)[0]
        p = tmp_path / "candidate.json"
        p.write_text(
            json.dumps(
                {
                    "candidate": morphism_to_jsonable(phi),
                    "evidence": evidence_to_jsonable(evidence),
                }
            )
        )
        return str(p)

    def test_refutes_candidate(self, capsys, tmp_path, loop_ws):
        cand = self._candidate_file(tmp_path, [1, 0])
        code, out, err = run(
            capsys, ["refute", "--workspace", loop_ws, "--candidate", cand]
        )
        assert code == 1
        assert out["refuted"] is True
        assert verify_certificate(out["witness"])
        assert "refuted" in err

    def test_refutes_with_escalation(self, capsys, tmp_path, loop_ws):
        cand = self._candidate_file(tmp_path, [1, 1])
        code, out, _ = run(
            capsys, ["refute", "--workspace", loop_ws, "--candidate", cand]
        )
        assert code == 1
        assert out["witness"]["escalated"] is True
        assert verify_certificate(out["witness"])

    def test_candidate_file_must_be_complete(self, capsys, tmp_path, loop_ws):
        p = tmp_path / "half.json"
        p.write_text(json.dumps({"candidate": {}}))
        code, out, _ = run(
            capsys, ["refute", "--workspace", loop_ws, "--candidate", str(p)]
        )
        assert code == 2

    @pytest.mark.parametrize("edit", ["multiplicities", "components"])
    def test_malformed_candidate_is_an_input_error(self, capsys, tmp_path, loop_ws, edit):
        cand = pathlib.Path(self._candidate_file(tmp_path, [1, 0]))
        data = json.loads(cand.read_text())
        if edit == "multiplicities":
            data["evidence"]["sub_evidence"]["multiplicities"] = ["x"]
        else:
            data["candidate"]["components"] = 5
        cand.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["refute", "--workspace", loop_ws, "--candidate", str(cand)])
        assert code == 2
        assert out["error"]["code"] == "CertificateInvalid"


class TestVerify:
    def _cert_file(self, capsys, tmp_path, a2_ws):
        main(["approx-left", "--workspace", a2_ws, "--of", "P1", "--into", "simples2"])
        data = json.loads(capsys.readouterr().out)["certificate"]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(data))
        return p, data

    def test_verify_good(self, capsys, tmp_path, a2_ws):
        p, _ = self._cert_file(capsys, tmp_path, a2_ws)
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 0
        assert out == {"verified": True}

    def test_verify_tampered(self, capsys, tmp_path, a2_ws):
        p, data = self._cert_file(capsys, tmp_path, a2_ws)
        data["side"] = "right"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}

    def test_verify_refuses_a_huge_multiplicity(self, capsys, tmp_path):
        s1, s2 = Rep.simple(A2, F2, 0), Rep.simple(A2, F2, 1)
        data = certificate_to_jsonable(left_approx_add(s1, AddCategory([s1, s2])))
        data["evidence"]["multiplicities"] = [10**9, 0]
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}

    @pytest.mark.parametrize("n_loops", [MAX_LOOPS + 1, 10**9])
    def test_verify_refuses_an_oversize_loop_count(self, capsys, tmp_path, n_loops):
        # the level is refused before any stage is built; at 10**9 loops
        # the stage used to exhaust memory (exit 4)
        data = json.loads((GOLDEN / "refutation-F3.json").read_text())
        data["config"]["n_loops"] = n_loops
        p = tmp_path / "loops.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}

    @pytest.mark.parametrize("label", [2, [1]])
    def test_verify_non_string_field_label(self, capsys, tmp_path, label):
        # content that fails to rebuild is a negative, never a crash (exit 4)
        data = json.loads((GOLDEN / "filtration-F2.json").read_text())
        data["field"] = label
        p = tmp_path / "field.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}

    @pytest.mark.parametrize("entry", ["1/0", "1/00", "-7/0"])
    def test_verify_zero_denominator_is_negative(self, capsys, tmp_path, entry):
        # tampered content reads as a negative, never as a crash (exit 4)
        data = json.loads((GOLDEN / "filtration-Q.json").read_text())
        data["member"]["maps"]["a"][0][0] = entry
        p = tmp_path / "q.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}

    def test_verify_exponent_entry_is_bounded(self, tmp_path):
        # Fraction would read "1e999999999" as 10**999999999 and not finish;
        # a scalar string is read only in the form the writer produces
        data = json.loads((GOLDEN / "filtration-Q.json").read_text())
        data["member"]["maps"]["a"][0][0] = "1e999999999"
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(data))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "approxcat.cli", "--json-only", "verify",
             "--certificate", str(p)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 1
        assert json.loads(done.stdout) == {"verified": False}

    def test_verify_bad_envelope(self, capsys, tmp_path):
        p = tmp_path / "env.json"
        p.write_text(json.dumps({"format": 2, "type": "approximation"}))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 2
        assert out["error"]["code"] == "CertificateInvalid"


def _forged_j3_certificate():
    """A depth-2 "filtration" of J3 over [S] on the one-loop quiver: 0 -> M1
    -> J3 with M1 = S + S (zero loop) mapped onto span(e2, e3), a stable
    subspace on which the loop of J3 does not act by zero. Both cokernels lie
    in add(S), but the second step is not natural, and J3 has Loewy length
    3, so it lies in no F_2."""
    loop = loop_quiver(1)
    s = Rep.simple(loop, F2, 0)
    j3 = Rep(loop, F2, [3], {"alpha1": Matrix(F2, 3, 3, [0, 0, 0, 1, 0, 0, 0, 1, 0])})
    m1 = Rep(loop, F2, [2])
    zero = Rep.zero(loop, F2)
    steps = [RepMorphism.zero(zero, m1),
             RepMorphism(m1, j3, [Matrix(F2, 3, 2, [0, 0, 1, 0, 0, 1])], check=False)]
    filt = Filtration(steps)
    family = OrderedFamily([s])
    evidence = tuple(member_add(filt.factor(j), family) for j in range(2))
    assert all(ev is not None for ev in evidence)
    return FiltrationCertificate(filt, j3, family, evidence)


class TestForgedFiltration:
    def test_refused_in_process(self):
        cert = _forged_j3_certificate()
        assert cert.verify() is False
        assert not cert.filtration.steps[1].is_natural()
        assert member_filt(cert.member, cert.family, 2) is None
        real = member_filt(cert.member, cert.family, 3)
        assert real is not None and real.verify()

    def test_refused_from_json(self):
        data = json.loads(json.dumps(certificate_to_jsonable(_forged_j3_certificate())))
        assert verify_certificate(data) is False

    def test_refused_by_the_cli(self, capsys, tmp_path):
        p = tmp_path / "forged.json"
        p.write_text(json.dumps(certificate_to_jsonable(_forged_j3_certificate())))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 1
        assert out == {"verified": False}


class TestScenario:
    def test_fast_scenario_passes(self, capsys):
        code, out, err = run(capsys, ["scenario", "simple-covers-a2"])
        assert code == 0
        assert out["passed"] is True
        assert out["failures"] == []
        assert "pass" in err

    def test_sampled_scenario_accepts_knobs(self, capsys):
        code, out, _ = run(
            capsys, ["scenario", "loop-refutation", "--samples", "4", "--seed", "7"]
        )
        assert code == 0
        assert out["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["nilpotent-loop", "--seed", "3", "--samples", "0"],
        ["simple-covers-a2", "--seed", "3"],
        ["filt-normalize-a2", "--samples", "4"],
    ])
    def test_knobs_refused_where_no_scenario_reads_them(self, capsys, argv):
        code, out, _ = run(capsys, ["scenario"] + argv)
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"

    def test_unknown_scenario_rejected(self, capsys):
        code, out, _ = run(capsys, ["scenario", "no-such-thing"])
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"
        assert "no-such-thing" in out["error"]["message"]

    def test_unknown_scenario_with_knobs_is_reported_as_unknown(self, capsys):
        code, out, _ = run(capsys, ["scenario", "no-such-thing", "--samples", "3"])
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"
        assert "unknown scenario 'no-such-thing'" in out["error"]["message"]


def test_cli_import_loads_no_command_module():
    # fresh interpreters: this process has imported everything already
    src = pathlib.Path(__file__).resolve().parent.parent / "src"

    def modules(imports):
        done = subprocess.run(
            [sys.executable, "-c", f"import sys{imports}; print(sorted(sys.modules))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split("'"))

    loaded = modules(", approxcat.cli")
    assert "approxcat.cli" in loaded and "approxcat.serialize" in loaded
    assert not {"approxcat.counterex", "approxcat.extfilt", "approxcat.scenarios"} & loaded
    # nor the standard modules that only dataclasses and the rationals need
    added = loaded - modules("")
    assert not {"dataclasses", "inspect", "fractions", "decimal"} & added


class TestUsageErrors:
    """A usage error is an input error like any other: one JSON report on
    stdout and exit 2, under --json-only as well; --help still exits 0."""

    @pytest.mark.parametrize("argv,missing", [
        ([], "command"),
        (["hom"], "--workspace"),
        (["scenario", "no-such-name"], "no-such-name"),
    ], ids=["bare", "hom-without-options", "unknown-scenario"])
    def test_usage_error_is_one_report(self, capsys, argv, missing):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"
        assert missing in out["error"]["message"]
        assert err.startswith("error[ShapeMismatch]")
        code, out, err = run(capsys, ["--json-only"] + argv)
        assert (code, out["error"]["code"], err) == (2, "ShapeMismatch", "")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


# (path, value) edits of the A2 workspace that make it malformed
BAD_WORKSPACE_EDITS = {
    "dims-not-integers": (("reps", "S1", "dims"), ["x", 1]),
    "dims-not-a-list": (("reps", "S1", "dims"), 5),
    "reps-not-an-object": (("reps",), []),
    "handles-not-an-object": (("handles",), ["simples1"]),
    "add-not-a-list": (("handles", "simples1"), {"add": 5}),
    "add-name-not-a-string": (("handles", "simples1"), {"add": [["S1"]]}),
    "ext-not-a-list": (("handles", "semis"), {"ext": 5}),
    "entry-not-a-scalar": (("reps", "P1", "maps", "a"), [["z"]]),
    "vertices-not-an-integer": (("quiver", "vertices"), "x"),
    "add-and-ext": (("handles", "projs"), {"add": ["P1", "S2"], "ext": ["simples1", "simples2"]}),
}


class TestWorkspaceErrors:
    @pytest.mark.parametrize("name", sorted(BAD_WORKSPACE_EDITS))
    def test_malformed_workspace_is_an_input_error(self, capsys, tmp_path, name):
        path, value = BAD_WORKSPACE_EDITS[name]
        data = json.loads(json.dumps(A2_WORKSPACE))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, ["member-add", "--workspace", str(p), "--rep", "P1", "--in", "projs"]
        )
        assert code == 2
        assert out["error"]["code"] != "InternalError"

    @pytest.mark.parametrize("text", [
        # json raises a plain ValueError, not JSONDecodeError, for an integer
        # past the digit limit, and RecursionError for deep nesting
        json.dumps(A2_WORKSPACE).replace('"format": 1', '"format": ' + "1" * 5000),
        "[" * 100_000 + "]" * 100_000,
    ], ids=["long-integer", "deep-nesting"])
    def test_unparsable_json_is_an_input_error(self, capsys, tmp_path, text):
        p = tmp_path / "huge.json"
        p.write_text(text)
        code, out, _ = run(
            capsys, ["hom", "--workspace", str(p), "--from", "S1", "--to", "S1"]
        )
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"

    def test_missing_file(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            [
                "hom", "--workspace", str(tmp_path / "nope.json"),
                "--from", "S1", "--to", "S1",
            ],
        )
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"

    def test_wrong_format(self, capsys, tmp_path):
        p = tmp_path / "ws.json"
        p.write_text(json.dumps({"format": 9}))
        code, out, _ = run(
            capsys, ["hom", "--workspace", str(p), "--from", "S1", "--to", "S1"]
        )
        assert code == 2

    def test_unknown_rep_name(self, capsys, a2_ws):
        code, out, _ = run(
            capsys, ["hom", "--workspace", a2_ws, "--from", "S9", "--to", "S1"]
        )
        assert code == 2
        assert "S9" in out["error"]["message"]

    def test_unknown_arrow_id_rejected(self, capsys, tmp_path):
        # A2 has no arrow "b": reading T's map as zero would make the
        # answer below a false sound negative
        data = json.loads(json.dumps(A2_WORKSPACE))
        data["reps"]["T"] = {"dims": [1, 1], "maps": {"b": [[1]]}}
        data["handles"]["addP1"] = {"add": ["P1"]}
        p = tmp_path / "stray.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, ["member-add", "--workspace", str(p), "--rep", "T", "--in", "addP1"]
        )
        assert code == 2
        assert "'b'" in out["error"]["message"]

    def test_name_collision_rejected(self, capsys, tmp_path):
        data = json.loads(json.dumps(A2_WORKSPACE))
        data["handles"]["S1"] = {"add": ["S1"]}
        p = tmp_path / "clash.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, ["hom", "--workspace", str(p), "--from", "S1", "--to", "S1"]
        )
        assert code == 2
        assert "collision" in out["error"]["message"]

    def test_unknown_handle_reference(self, capsys, tmp_path):
        data = json.loads(json.dumps(A2_WORKSPACE))
        data["handles"]["broken"] = {"ext": ["ghost", "simples2"]}
        p = tmp_path / "ref.json"
        p.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, ["hom", "--workspace", str(p), "--from", "S1", "--to", "S1"]
        )
        assert code == 2
        assert "ghost" in out["error"]["message"]

    def test_rep_where_handle_expected(self, capsys, a2_ws):
        code, out, _ = run(
            capsys,
            ["member-add", "--workspace", a2_ws, "--rep", "P1", "--in", "S1"],
        )
        assert code == 2


class TestInternalError:
    def test_crash_is_not_a_negative(self, capsys, monkeypatch, a2_ws):
        def crash(*_):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr("approxcat.cli.hom_basis", crash)
        code, out, err = run(
            capsys, ["hom", "--workspace", a2_ws, "--from", "S1", "--to", "P1"]
        )
        assert code == 4
        assert out["error"] == {
            "code": "InternalError", "message": "RuntimeError: simulated defect",
        }
        assert "Traceback" in err


class TestCertificateFilesReadOnce:
    """exchange and normalize read their file through the certificate
    reader, envelope checks included: a malformed file is an input error
    (exit 2)."""

    @pytest.mark.parametrize("command", ["normalize", "exchange"])
    @pytest.mark.parametrize("edit", [("type", "approximation"), ("format", 99), ("format", True)])
    def test_filtration_commands_check_the_envelope(self, capsys, tmp_path, command, edit):
        data = certificate_to_jsonable(_split_pair_certificate())
        data[edit[0]] = edit[1]
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data))
        argv = [command, "--certificate", str(cert_file)]
        code, out, _ = run(capsys, argv + (["--index", "0"] if command == "exchange" else []))
        assert code == 2
        assert out["error"]["code"] == "CertificateInvalid"

    def test_filtration_commands_need_a_filtration_certificate(self, capsys, tmp_path):
        cert_file = tmp_path / "approx.json"
        cert_file.write_text((GOLDEN / "approximation-F2.json").read_text())
        code, out, _ = run(capsys, ["normalize", "--certificate", str(cert_file)])
        assert code == 2
        assert "not a filtration certificate" in out["error"]["message"]


class TestEmptySweepRefused:
    """A refutation sweep of no samples checks nothing, so it cannot pass."""

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_cli_exits_2(self, capsys, samples):
        code, out, _ = run(capsys, ["scenario", "loop-refutation", "--samples", samples])
        assert code == 2
        assert out["error"]["code"] == "ShapeMismatch"

    @pytest.mark.parametrize("samples", [0, -3])
    def test_run_scenario_refuses(self, samples):
        with pytest.raises(ShapeError):
            run_scenario("loop-refutation", samples=samples)
