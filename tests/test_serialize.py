import copy
import json
import pathlib
import time
from fractions import Fraction

import pytest

from approxcat import serialize
from approxcat.approx import (
    AddCategory,
    ExtCategory,
    left_approx_add,
    left_approx_ext,
    member_add,
)
from approxcat.counterex import (
    LoopQuiverConfig,
    assemble_member,
    build_standard,
    refute,
)
from approxcat.errors import ApproxcatError, CertificateError
from approxcat.extfilt import member_filt
from approxcat.fields import FieldSpec
from approxcat.matrix import Matrix
from approxcat.quiver import a2_quiver
from approxcat.rep import Rep, hom_basis
from approxcat.serialize import (
    approx_certificate_from_jsonable,
    certificate_from_jsonable,
    certificate_to_jsonable,
    evidence_from_jsonable,
    config_from_jsonable,
    evidence_to_jsonable,
    filtration_certificate_from_jsonable,
    handle_from_jsonable,
    handle_to_jsonable,
    morphism_from_jsonable,
    morphism_to_jsonable,
    refutation_witness_from_jsonable,
    rep_from_jsonable,
    rep_to_jsonable,
    verify_certificate,
)

Q = FieldSpec.rationals()
F2 = FieldSpec.prime(2)
F3 = FieldSpec.prime(3)
A2 = a2_quiver()
GOLDEN = pathlib.Path(__file__).parent / "golden"


def p1(field):
    return Rep(A2, field, [1, 1], {"a": Matrix(field, 1, 1, [1])})


def through_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


class TestValueRoundTrips:
    def test_rep(self):
        r = p1(F2)
        back = rep_from_jsonable(A2, F2, through_json(rep_to_jsonable(r)))
        assert back == r

    def test_rational_rep(self):
        r = Rep(A2, Q, [2, 1], {"a": Matrix(Q, 1, 2, ["1/2", 3])})
        data = through_json(rep_to_jsonable(r))
        assert data["maps"]["a"] == [["1/2", 3]]
        assert rep_from_jsonable(A2, Q, data) == r

    def test_zero_dimension_maps(self):
        s1 = Rep.simple(A2, F2, 0)
        back = rep_from_jsonable(A2, F2, through_json(rep_to_jsonable(s1)))
        assert back == s1
        assert back.map("a").rows == 0 and back.map("a").cols == 1

    def test_morphism(self):
        s2 = Rep.simple(A2, F2, 1)
        f = hom_basis(s2, p1(F2))[0]
        back = morphism_from_jsonable(A2, F2, through_json(morphism_to_jsonable(f)))
        assert back == f

    def test_handles(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        handle = ExtCategory(AddCategory([s1]), AddCategory([s2, p1(F2)]))
        back = handle_from_jsonable(A2, F2, through_json(handle_to_jsonable(handle)))
        assert back == handle

    def test_empty_handle(self):
        empty = AddCategory([], quiver=A2, field=F2)
        back = handle_from_jsonable(A2, F2, through_json(handle_to_jsonable(empty)))
        assert back == empty

    def test_evidence(self):
        s1 = Rep.simple(A2, F2, 0)
        ev = member_add(s1, AddCategory([s1, p1(F2)]))
        back = evidence_from_jsonable(A2, F2, through_json(evidence_to_jsonable(ev)))
        assert back == ev


class TestApproxCertificates:
    def test_add_approximation_round_trip(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        data = through_json(certificate_to_jsonable(cert))
        assert data["type"] == "approximation" and data["format"] == 1
        assert verify_certificate(data)
        back = approx_certificate_from_jsonable(data)
        assert back.verify()
        assert back == cert

    def test_ext_approximation_round_trip(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        cert = left_approx_ext(s2, AddCategory([s1]), AddCategory([p1(F2)]))
        data = through_json(certificate_to_jsonable(cert))
        assert verify_certificate(data)
        assert data["evidence"]["kind"] == "ext"

    def test_tampered_entry_detected(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        data = through_json(certificate_to_jsonable(cert))
        data["morphism"]["components"][0] = [[0]]
        assert not verify_certificate(data)

    def test_malformed_maps_are_refused(self):
        # a map under an id the quiver lacks, or maps that are not an object,
        # is a bad input, not a zero map
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        data = through_json(certificate_to_jsonable(cert))
        data["morphism"]["target"]["maps"]["zz"] = [[1]]
        assert not verify_certificate(data)
        with pytest.raises(ApproxcatError, match="'zz'"):
            rep_from_jsonable(A2, F2, data["morphism"]["target"])
        data = through_json(certificate_to_jsonable(cert))
        data["morphism"]["source"]["maps"] = []
        assert not verify_certificate(data)

    def test_huge_multiplicity_is_refused_before_the_sum_is_built(self):
        s1, s2 = Rep.simple(A2, F2, 0), Rep.simple(A2, F2, 1)
        data = through_json(certificate_to_jsonable(left_approx_add(s1, AddCategory([s1, s2]))))
        data["evidence"]["multiplicities"] = [10**9, 0]
        start = time.perf_counter()
        assert not verify_certificate(data)
        assert time.perf_counter() - start < 1.0

    def test_huge_count_of_a_zero_generator_is_not_laid_out(self):
        s1, zero = Rep.simple(A2, F2, 0), Rep.zero(A2, F2)
        data = through_json(certificate_to_jsonable(left_approx_add(s1, AddCategory([s1, zero]))))
        data["evidence"]["multiplicities"] = [1, 10**9]
        start = time.perf_counter()
        assert verify_certificate(data)
        assert time.perf_counter() - start < 1.0
        data["evidence"]["multiplicities"] = [1, -1]
        assert not verify_certificate(data)

    def test_tampered_side_detected(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        data = through_json(certificate_to_jsonable(cert))
        data["side"] = "right"
        assert not verify_certificate(data)

    def test_serialization_is_deterministic(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        a = json.dumps(certificate_to_jsonable(cert), sort_keys=True)
        b = json.dumps(certificate_to_jsonable(cert), sort_keys=True)
        assert a == b


class TestFiltrationCertificates:
    def test_round_trip(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        cert = member_filt(p1(F2), [s2, s1], 2)
        data = through_json(certificate_to_jsonable(cert))
        assert data["type"] == "filtration"
        assert verify_certificate(data)
        back = filtration_certificate_from_jsonable(data)
        assert back.verify()
        assert back == cert

    def test_tampered_member_detected(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        cert = member_filt(p1(F2), [s2, s1], 2)
        data = through_json(certificate_to_jsonable(cert))
        data["member"]["maps"]["a"] = [[0]]
        assert not verify_certificate(data)

    def test_broken_filtration_is_a_sound_negative(self):
        s1 = Rep.simple(A2, F2, 0)
        s2 = Rep.simple(A2, F2, 1)
        cert = member_filt(p1(F2), [s2, s1], 2)
        data = through_json(certificate_to_jsonable(cert))
        del data["filtration"]["steps"][0]
        assert not verify_certificate(data)

    def test_empty_family_round_trips(self):
        # the zero member over an explicit empty family: the reader builds the
        # family over the certificate's own quiver and field, so what verifies
        # in process verifies from its JSON too
        cert = member_filt(Rep.zero(A2, F2), AddCategory([], quiver=A2, field=F2), 1)
        assert cert is not None and cert.verify()
        data = through_json(certificate_to_jsonable(cert))
        assert data["family"] == [] and data["factor_assignments"][0]["multiplicities"] == []
        assert verify_certificate(data) is True
        back = filtration_certificate_from_jsonable(data)
        assert back.verify() and back == cert
        assert certificate_to_jsonable(back) == data


class TestRefutationWitnesses:
    def test_round_trip(self):
        cfg = LoopQuiverConfig(2, F2)
        member, ev = assemble_member(cfg, 0, 1, [])
        _, s2, _ = build_standard(cfg)
        phi = hom_basis(s2, member)[0]
        witness = refute(phi, ev)
        data = through_json(certificate_to_jsonable(witness))
        assert data["type"] == "refutation"
        assert verify_certificate(data)
        back = refutation_witness_from_jsonable(data)
        assert back.verify()
        assert back == witness

    def test_tampered_index_detected(self):
        cfg = LoopQuiverConfig(2, F2)
        member, ev = assemble_member(cfg, 0, 1, [])
        _, s2, _ = build_standard(cfg)
        witness = refute(hom_basis(s2, member)[0], ev)
        data = through_json(certificate_to_jsonable(witness))
        data["i0"] = 2
        assert not verify_certificate(data)


# the envelope checks hold for both readers
READERS = (verify_certificate, certificate_from_jsonable)


class TestEnvelope:
    def _any_cert_data(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        return through_json(certificate_to_jsonable(cert))

    def test_format_checked(self):
        data = self._any_cert_data()
        data["format"] = 2
        for read in READERS:
            with pytest.raises(CertificateError):
                read(data)

    def test_type_checked(self):
        data = self._any_cert_data()
        for kind in ("blessing", ["approximation"]):
            data["type"] = kind
            for read in READERS:
                with pytest.raises(CertificateError):
                    read(data)
        del data["type"]
        for read in READERS:
            with pytest.raises(CertificateError):
                read(data)

    def test_object_required(self):
        for read in READERS:
            with pytest.raises(CertificateError):
                read([1, 2, 3])

    @pytest.mark.parametrize("label", [2, [1], {"a": 1}, None])
    def test_non_string_field_label_is_negative(self, label):
        with pytest.raises(ApproxcatError):
            FieldSpec.from_label(label)
        data = json.loads((GOLDEN / "filtration-F2.json").read_text())
        data["field"] = label
        assert verify_certificate(data) is False

    def test_missing_content_field_is_negative(self):
        data = self._any_cert_data()
        del data["morphism"]["components"]
        assert not verify_certificate(data)


class TestStrictReads:
    """Values the readers used to convert leniently are refused: only JSON
    integers are integers, and a matrix is read only in the row shape that
    to_jsonable writes."""

    @pytest.mark.parametrize("dims", [[2, 1.5], [2, True], "21"])
    def test_misread_member_dims_are_negative(self, dims):
        # int(1.5) and int(True) read as 1, and "21" as the dims [2, 1]
        data = json.loads((GOLDEN / "filtration-Q.json").read_text())
        assert data["member"]["dims"] == [2, 1] and verify_certificate(data)
        data["member"]["dims"] = dims
        assert verify_certificate(data) is False

    @pytest.mark.parametrize("block", [[], [[]]])
    def test_zero_column_map_needs_one_row_per_target_dimension(self, block):
        # a 2x0 map is two empty rows
        assert Matrix.from_jsonable(Q, [[], []], rows=2, cols=0) == Matrix(Q, 2, 0)
        with pytest.raises(ApproxcatError):
            Matrix.from_jsonable(Q, block, rows=2, cols=0)
        with pytest.raises(ApproxcatError):
            rep_from_jsonable(A2, F2, {"dims": [0, 2], "maps": {"a": block}})

    def test_boolean_format_is_refused(self):
        data = json.loads((GOLDEN / "approximation-F2.json").read_text())
        data["format"] = True
        for read in READERS:
            with pytest.raises(CertificateError):
                read(data)

    @pytest.mark.parametrize("value", [1, "yes", None])
    def test_escalated_must_be_a_bool(self, value):
        data = json.loads((GOLDEN / "refutation-F2.json").read_text())
        assert verify_certificate(data)
        data["escalated"] = value
        assert verify_certificate(data) is False

    def test_boolean_entry_is_not_a_scalar(self):
        with pytest.raises(ApproxcatError):
            F2.coerce(True)
        with pytest.raises(ApproxcatError):
            Matrix.from_jsonable(F2, [[True]])


class TestSharedReads:
    """rep_from_jsonable, morphism_from_jsonable and evidence_from_jsonable
    read equal data once, from one bounded cache keyed on the parser, the
    quiver, the field and the data's marshal text; a copy that differs in
    one typed value misses it and is read, and refused, afresh."""

    def _warm_witness(self):
        # W recurs in the witness: as w, in its evidence, in the nonzero map
        # and as the target of every vanishing-proof morphism
        data = json.loads((GOLDEN / "refutation-F3.json").read_text())
        assert verify_certificate(data)
        hits = serialize._read.cache_info().hits
        assert verify_certificate(data)
        assert serialize._read.cache_info().hits > hits
        return data

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("where", ["dims", "beta"])
    def test_a_recurring_rep_with_a_non_integer_is_refused(self, where, value):
        data = self._warm_witness()
        quiver = config_from_jsonable(data["config"]).quiver()
        tampered = copy.deepcopy(data)
        w = tampered["vanishing_proof"][0][0]["target"]
        assert w == data["w"]
        if where == "dims":
            assert w["dims"][1] == 1
            w["dims"][1] = value
        else:
            assert w["maps"]["beta"][0][0] == 1
            w["maps"]["beta"][0][0] = value
        assert w == data["w"]  # equal as Python values, true == 1 == 1.0
        for _ in range(2):  # a refusal is not cached, so it is raised again
            assert verify_certificate(tampered) is False
            with pytest.raises(ApproxcatError):
                rep_from_jsonable(quiver, F3, w)
        assert verify_certificate(data)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("where", ["component", "multiplicities"])
    def test_a_recurring_morphism_or_evidence_with_a_non_integer_is_refused(self, where, value):
        data = self._warm_witness()
        quiver = config_from_jsonable(data["config"]).quiver()
        tampered = copy.deepcopy(data)
        if where == "component":
            key, read = "nonzero_target_map", morphism_from_jsonable
            entry = tampered[key]["components"][1][0]
        else:
            key, read = "w_evidence", evidence_from_jsonable
            entry = tampered[key]["sub_evidence"]["multiplicities"]
        assert entry[0] == 1
        entry[0] = value
        assert tampered[key] == data[key]  # equal as Python values
        # the integer form stays cached: it is read again as one shared object
        assert read(quiver, F3, data[key]) is read(quiver, F3, copy.deepcopy(data[key]))
        for _ in range(2):  # a refusal is not cached, so it is raised again
            assert verify_certificate(tampered) is False
            with pytest.raises(ApproxcatError):
                read(quiver, F3, tampered[key])
        assert verify_certificate(data)

    def test_a_tuple_is_not_read_as_the_cached_list(self):
        data = {"dims": [1, 1], "maps": {"a": [[1]]}}
        assert rep_from_jsonable(A2, F2, data) == p1(F2)
        with pytest.raises(CertificateError):
            rep_from_jsonable(A2, F2, {"dims": (1, 1), "maps": {"a": [[1]]}})

    def test_data_marshal_refuses_is_read_uncached(self):
        size = serialize._read.cache_info().currsize
        data = {"dims": [1, 1], "maps": {"a": [[Fraction(1, 2)]]}}
        assert rep_from_jsonable(A2, Q, data).map("a") == Matrix(Q, 1, 1, ["1/2"])
        assert serialize._read.cache_info().currsize == size

    def test_equal_data_shares_one_rep_and_the_cache_is_bounded(self):
        data = through_json(rep_to_jsonable(p1(F2)))
        assert rep_from_jsonable(A2, F2, data) is rep_from_jsonable(A2, F2, copy.deepcopy(data))
        assert rep_from_jsonable(A2, F2, data) is not rep_from_jsonable(A2, Q, data)
        info = serialize._read.cache_info()
        assert info.maxsize == 256 and info.currsize <= info.maxsize

    def test_equal_morphism_and_evidence_data_share_one_object(self):
        s1 = Rep.simple(A2, F2, 0)
        cert = left_approx_add(s1, AddCategory([p1(F2)]))
        for value, write, read in ((cert.morphism, morphism_to_jsonable, morphism_from_jsonable),
                                   (cert.evidence, evidence_to_jsonable, evidence_from_jsonable)):
            data = through_json(write(value))
            back = read(A2, F2, data)
            assert back == value
            assert read(A2, F2, copy.deepcopy(data)) is back
            assert read(A2, Q, data) is not back
        # the morphism inside the evidence is the one read from equal data
        iso = through_json(morphism_to_jsonable(cert.evidence.iso))
        ev = evidence_from_jsonable(A2, F2, through_json(evidence_to_jsonable(cert.evidence)))
        assert ev.iso is morphism_from_jsonable(A2, F2, iso)
