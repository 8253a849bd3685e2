import json
import random

import pytest

from chainplan import (
    ExploitRecord,
    PrivilegeLevel,
    class_name,
    parse_class_name,
)
from chainplan.classifier import (
    ClassificationOutcome,
    apply_cvss_override,
    build_prompt,
    classify_llm,
    default_few_shots,
    evaluate,
    extract_required_privilege,
    parse_cvss,
    system_prompt,
)
from chainplan.errors import (
    MalformedVector,
    MissingDescription,
    MissingTruth,
    UnparseableReply,
)

from conftest import aix_invscout_record, FIXTURES
from oracles import cvss_required_privilege_letter, weighted_prf

GOLDEN = FIXTURES.parent / "tests" / "golden"


# --- CVSS -----------------------------------------------------------------------

# (vector, expected PR letter or None); drawn across versions and metrics
CVSS_TABLE = [
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "N"),
    ("CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", "L"),
    ("CVSS:3.1/AV:L/AC:L/PR:H/UI:N/S:C/C:H/I:H/A:H", "H"),
    ("CVSS:3.0/AV:N/AC:H/PR:N/UI:R/S:U/C:L/I:L/A:N", "N"),
    ("CVSS:3.0/AV:A/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N", "L"),
    ("CVSS:3.0/AV:P/AC:H/PR:H/UI:R/S:C/C:H/I:H/A:H", "H"),
    ("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:H", "N"),
    ("CVSS:3.1/AV:L/AC:H/PR:L/UI:R/S:U/C:L/I:L/A:L", "L"),
    ("CVSS:3.0/AV:N/AC:L/PR:H/UI:N/S:C/C:L/I:L/A:L", "H"),
    ("AV:N/AC:L/Au:N/C:P/I:P/A:P", None),
    ("AV:L/AC:H/Au:S/C:C/I:C/A:C", None),
    ("CVSS:3.1/AV:N/AC:L/PR:L/UI:R/S:C/C:H/I:L/A:N", "L"),
]

_LETTER = {"N": PrivilegeLevel.NONE, "L": PrivilegeLevel.LOW, "H": PrivilegeLevel.HIGH}


class TestCvss:
    def test_parse_v31(self):
        vector = parse_cvss("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
        assert vector.version == "3.1"
        assert vector.metric("PR") == "N"
        assert parse_cvss(vector.reserialize()).metrics == vector.metrics

    def test_parse_v2(self):
        vector = parse_cvss("AV:N/AC:L/Au:N/C:P/I:P/A:P")
        assert vector.version == "2.0"
        assert vector.metric("PR") is None

    @pytest.mark.parametrize("bad", [
        "", "CVSS:4.0/AV:N/PR:N", "CVSS:3.1/AV:N",          # no PR on v3
        "AV:N/AC:L/Au:N/PR:N",                               # PR on v2
        "CVSS:3.1/AV:N/AV:L/PR:N", "not a vector at all!!",
    ])
    def test_malformed(self, bad):
        with pytest.raises(MalformedVector):
            parse_cvss(bad)

    @pytest.mark.parametrize("vector,expected", CVSS_TABLE)
    def test_extraction_table(self, vector, expected):
        got = extract_required_privilege([vector])
        assert got == (None if expected is None else _LETTER[expected])
        # cross-check against the independent regex oracle
        assert cvss_required_privilege_letter([vector]) == expected

    def test_first_v3_wins(self):
        vectors = ["AV:N/AC:L/Au:N/C:P/I:P/A:P",
                   "CVSS:3.1/AV:N/AC:L/PR:H/UI:N/S:U/C:H/I:H/A:H",
                   "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"]
        assert extract_required_privilege(vectors) is PrivilegeLevel.HIGH

    def test_empty_and_v2_only(self):
        assert extract_required_privilege([]) is None
        assert extract_required_privilege(["AV:N/AC:L/Au:N/C:P/I:P/A:P"]) is None

    def test_malformed_skipped_not_fatal(self):
        vectors = ["garbage!!", "CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H"]
        assert extract_required_privilege(vectors) is PrivilegeLevel.LOW


# --- prompts ---------------------------------------------------------------------

class TestPrompts:
    def test_system_prompt_mentions_every_class_and_privilege(self):
        text = system_prompt()
        for name in ("PE_L_H", "PE_L_R", "PE_H_R",
                     "RCE_TCP_N_L", "RCE_TCP_N_H", "RCE_TCP_N_R",
                     "RCE_TCP_L_H", "RCE_TCP_L_R", "RCE_TCP_H_R",
                     "RCE_UDP_N_L", "RCE_UDP_N_H", "RCE_UDP_N_R",
                     "RCE_UDP_L_H", "RCE_UDP_L_R", "RCE_UDP_H_R"):
            assert name in text
        for phrase in ("no privileges:", "low privileges:", "high privileges:",
                       "root privileges:"):
            assert phrase in text

    def test_default_few_shots(self):
        shots = default_few_shots()
        assert len(shots) == 6
        assert shots[0].label == "PE_L_R"

    def test_sections_in_order(self):
        bundle = build_prompt(aix_invscout_record(), default_few_shots())
        text = bundle.target_text
        a = text.index("Exploit Description:")
        b = text.index("CVE Descriptions:")
        c = text.index("Vulnerable Versions:")
        assert a < b < c

    def test_golden_aix(self):
        bundle = build_prompt(aix_invscout_record(), default_few_shots())
        golden = (GOLDEN / "prompt_aix.txt").read_text(encoding="utf-8")
        assert bundle.render_text() == golden

    def test_deterministic(self):
        record = aix_invscout_record()
        shots = default_few_shots()
        first = build_prompt(record, shots).render_text().encode()
        second = build_prompt(record, shots).render_text().encode()
        assert first == second

    def test_zero_cves_renders_empty_section(self):
        record = ExploitRecord(id="x", name="x", source="other",
                               description="Remote overflow.")
        text = build_prompt(record, default_few_shots()).target_text
        assert "CVE Descriptions:\n\nVulnerable Versions:" in text

    def test_missing_description(self):
        record = ExploitRecord(id="x", name="x", source="other", description="  ")
        with pytest.raises(MissingDescription):
            build_prompt(record, default_few_shots())

    def test_exactly_six_shots_required(self):
        with pytest.raises(ValueError):
            build_prompt(aix_invscout_record(), default_few_shots()[:5])


# --- classify_llm -----------------------------------------------------------------

class StubEndpoint:
    """Scripted endpoint: returns queued replies in order."""

    def __init__(self, replies, model="stub-model"):
        self.replies = list(replies)
        self.model = model
        self.calls = []

    def complete(self, messages):
        self.calls.append(messages)
        return self.replies.pop(0)


def _record(**overrides):
    base = dict(id="rec", name="rec", source="other",
                description="A remote exploit against a service.")
    base.update(overrides)
    return ExploitRecord(**base)


class TestClassifyLlm:
    def test_direct_parse(self):
        client = StubEndpoint(["RCE_TCP_N_L"])
        outcome = classify_llm(_record(), client)
        assert class_name(outcome.predicted) == "RCE_TCP_N_L"
        assert outcome.provenance == "llm"
        assert len(client.calls) == 1

    def test_retry_then_accept(self):
        client = StubEndpoint(["I think it is PE_L_H.", "PE_L_H"])
        outcome = classify_llm(_record(), client)
        assert class_name(outcome.predicted) == "PE_L_H"
        assert len(client.calls) == 2
        # the retry transcript carries a corrective instruction
        assert "nothing else" in client.calls[1][-1]["content"]

    def test_unparseable_after_retry(self):
        client = StubEndpoint(["no idea", "still no idea"])
        with pytest.raises(UnparseableReply):
            classify_llm(_record(), client)

    def test_cvss_override_changes_required_only(self):
        record = _record(cvss_vectors=(
            "CVSS:3.1/AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H",))
        client = StubEndpoint(["RCE_TCP_N_H"])
        outcome = classify_llm(record, client)
        assert class_name(outcome.predicted) == "RCE_TCP_L_H"
        assert outcome.provenance == "cvss_override"

    def test_cvss_override_skipped_when_invalid(self):
        # HIGH required would collide with the HIGH grant: keep the LLM label
        record = _record(cvss_vectors=(
            "CVSS:3.1/AV:N/AC:L/PR:H/UI:N/S:U/C:H/I:H/A:H",))
        client = StubEndpoint(["RCE_TCP_N_H"])
        outcome = classify_llm(record, client)
        assert class_name(outcome.predicted) == "RCE_TCP_N_H"
        assert outcome.provenance == "llm"

    def test_override_preserves_other_attributes(self):
        rng = random.Random(5)
        from chainplan import all_classes

        for predicted in all_classes():
            level = rng.choice(list(PrivilegeLevel)[:3])
            record = _record(cvss_vectors=(
                f"CVSS:3.1/AV:N/AC:L/PR:{level.letter}/UI:N/S:U/C:H/I:H/A:H",))
            adjusted, _ = apply_cvss_override(predicted, record)
            assert adjusted.exploit_type == predicted.exploit_type
            assert adjusted.protocol == predicted.protocol
            assert adjusted.acquired == predicted.acquired

    def test_cache_round_trip(self, tmp_path):
        record = _record()
        client = StubEndpoint(["RCE_TCP_N_L", "SHOULD-NOT-BE-CALLED"])
        first = classify_llm(record, client, cache_dir=tmp_path)
        second = classify_llm(record, client, cache_dir=tmp_path)
        assert first == second
        assert len(client.calls) == 1
        cached = list(tmp_path.glob("*.json"))
        assert len(cached) == 1
        ClassificationOutcome.from_dict(json.loads(cached[0].read_text()))

    @pytest.mark.parametrize("entry", [
        b"{not json",
        b"\xff\xfe{bad",
        b"[]",
        b'{"record_id": "rec", "provenance": "llm"}',
        b'{"record_id": "rec", "predicted": 5, "provenance": "llm"}',
        b'{"record_id": "rec", "predicted": "NOT_A_CLASS", "provenance": "llm"}',
        b'{"record_id": "other", "predicted": "PE_L_R", "provenance": "llm"}',
    ])
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, caplog, entry):
        record = _record()
        expected = classify_llm(record, StubEndpoint(["RCE_TCP_N_L"]), cache_dir=tmp_path)
        (cached,) = tmp_path.glob("*.json")
        cached.write_bytes(entry)
        client = StubEndpoint(["RCE_TCP_N_L", "SHOULD-NOT-BE-CALLED"])
        with caplog.at_level("WARNING", logger="chainplan.classifier"):
            assert classify_llm(record, client, cache_dir=tmp_path) == expected
        assert len(client.calls) == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"ignoring corrupt classifier cache entry {cached}"]
        # overwritten with the fresh outcome, which the next call reads back
        assert ClassificationOutcome.from_dict(json.loads(cached.read_text())) == expected
        assert list(tmp_path.iterdir()) == [cached]
        assert classify_llm(record, client, cache_dir=tmp_path) == expected
        assert len(client.calls) == 1


# --- evaluate ---------------------------------------------------------------------

def _outcome(record_id, name):
    return ClassificationOutcome(record_id=record_id,
                                 predicted=parse_class_name(name),
                                 provenance="manual")


class TestEvaluate:
    def test_perfect(self):
        truth = [("a", parse_class_name("RCE_TCP_N_L")),
                 ("b", parse_class_name("PE_L_R"))]
        predictions = [_outcome("a", "RCE_TCP_N_L"), _outcome("b", "PE_L_R")]
        report = evaluate(predictions, truth)
        for metrics in (report.type, report.protocol, report.required,
                        report.acquired, report.overall):
            assert metrics.precision == metrics.recall == metrics.f1 == 1.0

    def test_three_record_hand_computation(self):
        truth = [("r1", parse_class_name("RCE_TCP_N_L")),
                 ("r2", parse_class_name("RCE_TCP_N_H")),
                 ("r3", parse_class_name("PE_L_R"))]
        predictions = [_outcome("r1", "RCE_TCP_N_L"),
                       _outcome("r2", "RCE_TCP_N_R"),  # acquired H mislabeled R
                       _outcome("r3", "PE_L_R")]
        report = evaluate(predictions, truth)
        assert report.type.f1 == pytest.approx(1.0, abs=1e-9)
        assert report.protocol.f1 == pytest.approx(1.0, abs=1e-9)
        assert report.required.f1 == pytest.approx(1.0, abs=1e-9)
        # acquired, by hand: labels L/H/R each support 1;
        # L: P=1 R=1 F1=1; H: no predictions -> 0; R: tp=1 fp=1 -> P=.5 R=1 F1=2/3
        assert report.acquired.precision == pytest.approx(0.5, abs=1e-9)
        assert report.acquired.recall == pytest.approx(2 / 3, abs=1e-9)
        assert report.acquired.f1 == pytest.approx(5 / 9, abs=1e-9)
        assert report.overall.precision == pytest.approx(2 / 3, abs=1e-9)
        assert report.overall.recall == pytest.approx(2 / 3, abs=1e-9)
        assert report.overall.f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_permutation_invariance(self):
        truth = [("r1", parse_class_name("RCE_TCP_N_L")),
                 ("r2", parse_class_name("RCE_UDP_N_H")),
                 ("r3", parse_class_name("PE_H_R"))]
        predictions = [_outcome("r1", "RCE_TCP_N_L"),
                       _outcome("r2", "RCE_TCP_N_H"),
                       _outcome("r3", "PE_L_R")]
        a = evaluate(predictions, truth)
        b = evaluate(list(reversed(predictions)), list(reversed(truth)))
        assert a == b

    def test_weighted_recall_equals_accuracy(self):
        rng = random.Random(11)
        from chainplan import all_classes

        classes = all_classes()
        truth, predictions = [], []
        for i in range(60):
            true = rng.choice(classes)
            predicted = rng.choice(classes)
            truth.append((f"r{i}", true))
            predictions.append(ClassificationOutcome(
                record_id=f"r{i}", predicted=predicted, provenance="manual"))
        report = evaluate(predictions, truth)
        accuracy = sum(
            1 for outcome, (_, true) in zip(predictions, truth)
            if outcome.predicted == true
        ) / len(truth)
        assert report.overall.recall == pytest.approx(accuracy, abs=1e-12)

    def test_matches_independent_formula(self):
        rng = random.Random(3)
        pairs = [(rng.choice("ABC"), rng.choice("ABC")) for _ in range(40)]
        from chainplan.classifier import weighted_metrics

        ours = weighted_metrics(pairs)
        p, r, f = weighted_prf(pairs)
        assert (ours.precision, ours.recall, ours.f1) == pytest.approx((p, r, f))

    def test_missing_truth(self):
        with pytest.raises(MissingTruth):
            evaluate([_outcome("ghost", "PE_L_R")], [])
