import json

import pytest
from hypothesis import given, strategies as st

from chainplan import (
    ANY,
    NA,
    Cpe,
    ExploitClass,
    ExploitType,
    PrivilegeLevel,
    Protocol,
    VersionTriple,
    all_classes,
    class_name,
    cpe_matches,
    cpe_to_string,
    load_catalog,
    load_records,
    parse_class_name,
    parse_cpe,
    records_from_dict,
    split_version,
)
from chainplan.catalog import ExploitMatrix, ExploitRecord, product_token
from chainplan.errors import DuplicateId, MalformedCpe, SchemaError, UnknownClass

from conftest import FIXTURES

EXPECTED_CLASS_NAMES = {
    "PE_L_H", "PE_L_R", "PE_H_R",
    "RCE_TCP_N_L", "RCE_TCP_N_H", "RCE_TCP_N_R",
    "RCE_TCP_L_H", "RCE_TCP_L_R", "RCE_TCP_H_R",
    "RCE_UDP_N_L", "RCE_UDP_N_H", "RCE_UDP_N_R",
    "RCE_UDP_L_H", "RCE_UDP_L_R", "RCE_UDP_H_R",
}


class TestPrivilegeLevel:
    def test_total_order(self):
        assert PrivilegeLevel.NONE < PrivilegeLevel.LOW < PrivilegeLevel.HIGH \
            < PrivilegeLevel.ROOT
        assert len(PrivilegeLevel) == 4
        assert max(PrivilegeLevel) is PrivilegeLevel.ROOT
        assert min(PrivilegeLevel) is PrivilegeLevel.NONE

    def test_letters(self):
        assert [p.letter for p in PrivilegeLevel] == ["N", "L", "H", "R"]

    def test_parse(self):
        assert PrivilegeLevel.parse("root") is PrivilegeLevel.ROOT
        assert PrivilegeLevel.parse("n") is PrivilegeLevel.NONE
        with pytest.raises(UnknownClass):
            PrivilegeLevel.parse("SUPER")


class TestExploitClasses:
    def test_parse_rce(self):
        c = parse_class_name("RCE_TCP_N_L")
        assert c == ExploitClass(ExploitType.RCE, Protocol.TCP,
                                 PrivilegeLevel.NONE, PrivilegeLevel.LOW)

    def test_parse_pe_case_insensitive(self):
        c = parse_class_name("pe_l_r")
        assert c == ExploitClass(ExploitType.PE, None,
                                 PrivilegeLevel.LOW, PrivilegeLevel.ROOT)

    def test_parse_invalid_pe_combo(self):
        with pytest.raises(UnknownClass):
            parse_class_name("PE_N_R")

    @pytest.mark.parametrize("bad", ["", "RCE_TCP_N", "PE_L_R_X", "RCE_ICMP_N_L",
                                     "RCE_TCP_L_L", "PE_H_H", "nonsense"])
    def test_parse_rejects(self, bad):
        with pytest.raises(UnknownClass):
            parse_class_name(bad)

    def test_class_name_examples(self):
        assert class_name(ExploitClass(ExploitType.RCE, Protocol.TCP,
                                       PrivilegeLevel.NONE, PrivilegeLevel.HIGH)) \
            == "RCE_TCP_N_H"
        assert class_name(ExploitClass(ExploitType.PE, None,
                                       PrivilegeLevel.HIGH, PrivilegeLevel.ROOT)) \
            == "PE_H_R"

    def test_exactly_fifteen_classes(self):
        names = {class_name(c) for c in all_classes()}
        assert names == EXPECTED_CLASS_NAMES
        assert len(all_classes()) == 15

    def test_round_trip_all(self):
        for c in all_classes():
            assert parse_class_name(class_name(c)) == c

    def test_exhaustive_combination_filter(self):
        valid = 0
        for exploit_type in ExploitType:
            for protocol in (None,) + tuple(Protocol):
                for required in PrivilegeLevel:
                    for acquired in PrivilegeLevel:
                        try:
                            ExploitClass(exploit_type, protocol, required, acquired)
                            valid += 1
                        except UnknownClass:
                            pass
        assert valid == 15


class TestCpe:
    def test_parse_couchdb(self):
        cpe = parse_cpe("cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*")
        assert cpe.part == "a"
        assert cpe.vendor == "apache"
        assert cpe.product == "couchdb"
        assert cpe.version == "2.0.0"
        assert all(getattr(cpe, attr) is ANY for attr in
                   ("update", "edition", "language", "sw_edition",
                    "target_sw", "target_hw", "other"))

    def test_parse_all_any(self):
        cpe = parse_cpe("cpe:2.3:*:*:*:*:*:*:*:*:*:*:*")
        assert all(v is ANY for v in cpe.attributes())

    def test_parse_field_count(self):
        with pytest.raises(MalformedCpe):
            parse_cpe("cpe:2.3:a:apache")

    def test_parse_prefix(self):
        with pytest.raises(MalformedCpe):
            parse_cpe("cpe:/a:apache:couchdb:2.0.0")

    def test_escaped_colon(self):
        cpe = parse_cpe("cpe:2.3:a:vendor:name\\:with\\:colons:1.0:*:*:*:*:*:*:*")
        assert cpe.product == "name:with:colons"
        assert parse_cpe(cpe_to_string(cpe)) == cpe

    def test_na_field(self):
        cpe = parse_cpe("cpe:2.3:a:apache:couchdb:2.0.0:-:*:*:*:*:*:*")
        assert cpe.update is NA

    def test_product_token(self):
        assert product_token(parse_cpe("cpe:2.3:o:canonical:ubuntu_linux:16.04:"
                                       "*:*:*:*:*:*:*")) == "o--canonical--ubuntu_linux"
        with pytest.raises(ValueError):
            product_token(Cpe(part="a"))


_value = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_.:*\\-"),
    min_size=1, max_size=10,
)
_attribute = st.one_of(st.just(ANY), st.just(NA), _value)


@given(part=st.sampled_from(["a", "o", "h", ANY]),
       attrs=st.lists(_attribute, min_size=10, max_size=10))
def test_cpe_string_round_trip(part, attrs):
    cpe = Cpe(part, *attrs)
    assert parse_cpe(cpe_to_string(cpe)) == cpe


class TestVersionTriple:
    def test_examples(self):
        assert split_version("2.0.0") == VersionTriple(2, 0, 0)
        assert split_version("16.4") == VersionTriple(16, 4, 0)
        assert split_version("16.04") == VersionTriple(16, 4, 0)
        assert split_version(ANY) == VersionTriple(None, None, None)
        assert split_version(NA) == VersionTriple(None, None, None)

    def test_non_numeric_tokens(self):
        assert split_version("1.0.beta") == VersionTriple(1, 0, None)
        assert split_version("banana") == VersionTriple(None, 0, 0)

    def test_truncation(self):
        assert split_version("2.0.0.1") == VersionTriple(2, 0, 0)

    def test_idempotent_on_numeric(self):
        triple = split_version("4.8.0")
        rebuilt = ".".join(str(c) for c in triple.components())
        assert split_version(rebuilt) == triple

    def test_wildcard_matches_anything(self):
        assert VersionTriple(None, None, None).matches(VersionTriple(9, 9, 9))
        assert VersionTriple(2, None, 0).matches(VersionTriple(2, 5, 0))
        assert not VersionTriple(2, 0, 0).matches(VersionTriple(2, 1, 0))


class TestCpeMatches:
    COUCH = "cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*"

    def test_exact_match(self):
        assert cpe_matches(parse_cpe(self.COUCH), parse_cpe(self.COUCH))

    def test_version_wildcard(self):
        pattern = parse_cpe("cpe:2.3:o:linux:linux_kernel:*:*:*:*:*:*:*:*")
        installed = parse_cpe("cpe:2.3:o:linux:linux_kernel:4.8.0:*:*:*:*:*:*:*")
        assert cpe_matches(pattern, installed)

    def test_vendor_mismatch(self):
        pattern = parse_cpe("cpe:2.3:a:apache:couchdb:2.0.0:*:*:*:*:*:*:*")
        installed = parse_cpe("cpe:2.3:a:canonical:couchdb:2.0.0:*:*:*:*:*:*:*")
        assert not cpe_matches(pattern, installed)

    def test_case_insensitive(self):
        pattern = parse_cpe("cpe:2.3:a:Apache:CouchDB:2.0.0:*:*:*:*:*:*:*")
        assert cpe_matches(pattern, parse_cpe(self.COUCH))

    @given(attrs=st.lists(st.sampled_from(["x", "y", ANY]), min_size=10, max_size=10),
           flip=st.integers(min_value=0, max_value=10))
    def test_wildcard_monotonicity(self, attrs, flip):
        installed = parse_cpe("cpe:2.3:a:x:x:x:x:x:x:x:x:x:x")
        pattern = Cpe("a", *attrs)
        values = [pattern.part] + list(attrs)
        values[flip] = ANY
        widened = Cpe(*values)
        if cpe_matches(pattern, installed):
            assert cpe_matches(widened, installed)

    def test_reflexive_on_fully_specified(self):
        cpe = parse_cpe("cpe:2.3:a:v:p:1.2.3:u:e:l:se:ts:th:o")
        assert cpe_matches(cpe, cpe)


class TestRecordsAndCatalog:
    def test_load_motivating(self):
        matrix = load_catalog(FIXTURES / "motivating_catalog.json")
        assert matrix.ids == (
            "drupal_restful_web_service",
            "apache_couchdb_arbitrary_command_execution",
            "linux_kernel_udp_fragmentation_offset_ufo_pe",
        )
        classes = [class_name(r.exploit_class) for r in matrix]
        assert classes == ["RCE_TCP_N_L", "RCE_TCP_N_H", "PE_L_R"]

    def test_empty_catalog(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"records": []}')
        assert load_catalog(path).records == ()

    def test_duplicate_id(self, tmp_path):
        record = {"id": "x", "name": "x", "source": "other", "description": "d",
                  "class": "PE_L_R"}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"records": [record, record]}))
        with pytest.raises(DuplicateId):
            load_records(path)

    def test_unclassified_rejected_by_load_catalog(self, tmp_path):
        record = {"id": "x", "name": "x", "source": "other", "description": "d"}
        path = tmp_path / "uncls.json"
        path.write_text(json.dumps({"records": [record]}))
        with pytest.raises(SchemaError) as err:
            load_catalog(path)
        assert err.value.pointer == "/records/0/class"
        # but the classifier pipeline may load it
        records = load_records(path)
        assert records[0].exploit_class is None

    def test_schema_error_pointer(self, tmp_path):
        record = {"id": "x", "name": "x", "source": "other", "description": "d",
                  "cves": [{"id": "CVE-BAD"}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"records": [record]}))
        with pytest.raises(SchemaError) as err:
            load_records(path)
        assert err.value.pointer == "/records/0/cves/0/id"

    @pytest.mark.parametrize("key, value, pointer", [
        ("cves", 5, "/records/0/cves"),
        ("cves", [{"id": "CVE-2019-6340", "description": 5}], "/records/0/cves/0/description"),
        ("vulnerable_configs", "cpe:2.3:a:x:y:1:*:*:*:*:*:*:*", "/records/0/vulnerable_configs"),
    ])
    def test_wrong_types_raise_schema_error(self, key, value, pointer):
        data = json.loads((FIXTURES / "motivating_catalog.json").read_text())
        data["records"][0][key] = value
        with pytest.raises(SchemaError) as err:
            records_from_dict(data)
        assert err.value.pointer == pointer

    def test_cve_id_validation(self):
        with pytest.raises(SchemaError):
            ExploitRecord(id="x", name="x", source="other", description="d",
                          cve_ids=("CVE-12-1",), cve_descriptions=("d",))

    def test_matrix_requires_classes(self):
        record = ExploitRecord(id="x", name="x", source="other", description="d")
        with pytest.raises(SchemaError):
            ExploitMatrix((record,))
