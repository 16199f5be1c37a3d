"""Tests for the claims checklist (repro.sim.validate)."""

from pathlib import Path

import pytest

from repro.sim.validate import Claim, report, validate_all

GOLDEN = Path(__file__).parent / "data" / "validate_golden.txt"


@pytest.fixture(scope="module")
def claims(executor):
    return validate_all(executor)


class TestValidateAll:
    def test_all_claims_pass(self, claims):
        failing = [c for c in claims if not c.passed]
        assert not failing, f"failing claims: {[(c.exp_id, c.name) for c in failing]}"

    def test_every_experiment_covered(self, claims):
        ids = {c.exp_id for c in claims}
        for exp in ("Table III", "Table IV", "Table V", "Table VI",
                    "Fig. 6", "Fig. 7", "Fig. 9", "Fig. 10", "Fig. 11",
                    "Fig. 12", "Fig. 13"):
            assert exp in ids, exp

    def test_claim_count(self, claims):
        assert len(claims) >= 14

    def test_verdict_strings(self):
        assert Claim("x", "y", "a", "b", True).verdict == "ok"
        assert Claim("x", "y", "a", "b", False).verdict == "FAIL"


class TestReport:
    def test_renders_summary_line(self, claims):
        text = report(claims)
        assert "claim checklist" in text
        assert f"{len(claims)}/{len(claims)} passing" in text

    def test_matches_golden_snapshot(self, claims):
        # Every measured string, pinned: a model change that moves any
        # rendered number must update tests/data/validate_golden.txt.
        assert report(claims) + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_contains_paper_values(self, claims):
        text = report(claims)
        assert "11.4x" in text
        assert "60.0 mm2" in text
