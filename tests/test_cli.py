"""End-to-end tests of the command line, calling main() directly."""

import json

import pytest

from approxcat.approx import member_add
from approxcat.cli import main
from approxcat.counterex import LoopQuiverConfig, assemble_member
from approxcat.extfilt import FiltrationCertificate, OrderedFamily
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import Quiver
from approxcat.rep import (
    Filtration,
    Rep,
    RepMorphism,
    direct_sum,
    hom_basis,
    subrep_from_bases,
)
from approxcat.serialize import (
    certificate_to_jsonable,
    evidence_to_jsonable,
    morphism_to_jsonable,
    verify_certificate,
)

F2 = FieldSpec.prime(2)
A2 = Quiver(2, [("a", 0, 1)])

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
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert flag in captured.err

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
    handle = family.add_handle()
    evidence = tuple(member_add(filt.factor(j), handle) for j in range(2))
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

    def test_verify_bad_envelope(self, capsys, tmp_path):
        p = tmp_path / "env.json"
        p.write_text(json.dumps({"format": 2, "type": "approximation"}))
        code, out, _ = run(capsys, ["verify", "--certificate", str(p)])
        assert code == 2
        assert out["error"]["code"] == "CertificateInvalid"


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

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["scenario", "no-such-thing"])
        capsys.readouterr()


class TestWorkspaceErrors:
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
