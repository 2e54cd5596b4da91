"""Tests for the dataset generators and the Fig. 1 policies."""


from repro import reference_authorized_view
from repro.accesscontrol.evaluator import StreamingEvaluator
from repro.datasets import (
    HospitalConfig,
    doctor_policy,
    generate_hospital,
    researcher_policy,
    secretary_policy,
)
from repro.datasets.policies import random_policy_for
from repro.datasets.real import generate_sigmod, generate_treebank, generate_wsu
from repro.xmlkit.events import TEXT


def small_hospital():
    return generate_hospital(HospitalConfig(folders=8, seed=5))


class TestHospitalGenerator:
    def test_deterministic(self):
        a = generate_hospital(HospitalConfig(folders=5, seed=1))
        b = generate_hospital(HospitalConfig(folders=5, seed=1))
        assert a == b
        c = generate_hospital(HospitalConfig(folders=5, seed=2))
        assert a != c

    def test_schema_shape(self):
        doc = small_hospital()
        assert doc.tag == "Hospital"
        folders = doc.find_all("Folder")
        assert len(folders) == 8
        for folder in folders:
            admin = folder.find("Admin")
            assert admin is not None
            assert admin.find("SSN") is not None
            assert admin.find("Age") is not None
            assert folder.find("MedActs") is not None
            assert folder.find("Analysis") is not None

    def test_tag_inventory(self):
        doc = small_hospital()
        tags = doc.distinct_tags()
        for tag in ["Hospital", "Folder", "Admin", "MedActs", "Act",
                    "Details", "Comments", "Analysis", "LabResults",
                    "RPhys", "Cholesterol"]:
            assert tag in tags

    def test_scaling(self):
        small = generate_hospital(HospitalConfig(folders=5))
        big = generate_hospital(HospitalConfig(folders=20))
        assert big.count_elements() > 2 * small.count_elements()


class TestHospitalPolicies:
    def view(self, policy, doc=None):
        doc = doc or small_hospital()
        events = StreamingEvaluator(policy).run_events(
            list(doc.iter_events()), with_index=True
        )
        reference = reference_authorized_view(doc, policy)
        assert events == reference
        return doc, events

    def test_secretary_sees_only_admin(self):
        _doc, events = self.view(secretary_policy())
        tags = {e[1] for e in events if e[0] == 0}
        assert "Admin" in tags and "SSN" in tags
        assert "Act" not in tags and "LabResults" not in tags
        # Structural path is present.
        assert "Folder" in tags and "Hospital" in tags

    def test_doctor_sees_own_acts_only(self):
        doc = small_hospital()
        # Pick a physician who actually signs an act in this document.
        signer = next(
            node.text()
            for node in doc.descendants()
            if node.tag == "RPhys" and node.text().startswith("doctor")
        )
        policy = doctor_policy(signer)
        _doc, events = self.view(policy, doc)
        texts = {e[1] for e in events if e[0] == TEXT}
        assert signer in texts

    def test_doctor_denied_foreign_details(self):
        doc = small_hospital()
        policy = doctor_policy("doctor0")
        reference = reference_authorized_view(doc, policy)
        # Details of acts by other physicians must not appear: check by
        # scanning the original document for foreign acts' comments.
        foreign_comments = set()
        for act in (n for n in doc.descendants() if n.tag == "Act"):
            rphys = act.find("RPhys")
            if rphys is not None and rphys.text() != "doctor0":
                details = act.find("Details")
                if details is not None:
                    comments = details.find("Comments")
                    if comments is not None:
                        foreign_comments.add(comments.text())
        delivered_texts = {e[1] for e in reference if e[0] == TEXT}
        # Comments texts are reused across acts; only assert when some
        # foreign comment text is not also a doctor0 comment.
        own_comments = set()
        for act in (n for n in doc.descendants() if n.tag == "Act"):
            rphys = act.find("RPhys")
            if rphys is not None and rphys.text() == "doctor0":
                details = act.find("Details")
                if details is not None:
                    comments = details.find("Comments")
                    if comments is not None:
                        own_comments.add(comments.text())
        for comment in foreign_comments - own_comments:
            assert comment not in delivered_texts

    def test_researcher_filtered_by_cholesterol(self):
        doc = generate_hospital(HospitalConfig(folders=30, seed=9))
        policy = researcher_policy()
        _doc, events = self.view(policy, doc)
        # Cholesterol values above 250 must never be delivered.
        opens = []
        delivered_high = False
        stack = []
        for event in events:
            if event[0] == 0:
                stack.append(event[1])
            elif event[0] == 2:
                stack.pop()
            elif event[0] == TEXT and stack and stack[-1] == "Cholesterol":
                if float(event[1]) > 250:
                    delivered_high = True
        assert not delivered_high

    def test_researcher_needs_protocol(self):
        doc = small_hospital()
        policy = researcher_policy()
        reference = reference_authorized_view(doc, policy)
        # Exactly the Ages of patients with a protocol are delivered.
        folders_with_protocol = sum(
            1 for folder in doc.find_all("Folder") if folder.find("Protocol")
        )
        delivered_ages = sum(
            1 for event in reference if event[0] == 0 and event[1] == "Age"
        )
        assert delivered_ages == folders_with_protocol
        assert 0 < folders_with_protocol < len(doc.find_all("Folder"))


class TestRealDatasetSubstitutes:
    def test_wsu_shape(self):
        doc = generate_wsu(scale=0.2)
        assert doc.max_depth() == 3  # root/course/field (flat)
        assert len(doc.distinct_tags()) >= 15
        # Tiny elements: average text per element well under 10 bytes.
        assert doc.text_size() / doc.count_elements() < 10

    def test_sigmod_shape(self):
        doc = generate_sigmod(scale=0.5)
        assert len(doc.distinct_tags()) <= 12
        assert doc.max_depth() == 6
        assert 4.0 < doc.average_depth() < 6.0

    def test_treebank_shape(self):
        doc = generate_treebank(scale=0.1)
        assert len(doc.distinct_tags()) >= 250
        assert doc.max_depth() > 12
        # Recursive: some tag nests within itself somewhere.
        found_recursive = False
        for node in doc.descendants():
            inner = set()
            for descendant in node.descendants():
                if descendant is not node and descendant.tag == node.tag:
                    found_recursive = True
                    break
            if found_recursive:
                break
        assert found_recursive

    def test_determinism(self):
        assert generate_wsu(0.05) == generate_wsu(0.05)
        assert generate_sigmod(0.05) == generate_sigmod(0.05)
        assert generate_treebank(0.02) == generate_treebank(0.02)


class TestRandomPolicies:
    def test_policies_parse_and_apply(self):
        doc = generate_sigmod(scale=0.2)
        for seed in range(5):
            policy = random_policy_for(doc, rules=8, seed=seed)
            assert len(policy) == 8
            events = StreamingEvaluator(policy).run_events(
                list(doc.iter_events()), with_index=True
            )
            reference = reference_authorized_view(doc, policy)
            assert events == reference

    def test_has_positive_rule(self):
        doc = generate_wsu(scale=0.05)
        for seed in range(5):
            policy = random_policy_for(doc, rules=4, seed=seed)
            assert any(rule.is_positive for rule in policy.rules)
