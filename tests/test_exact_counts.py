"""The closed forms are exact at every size, and arithmetic failures exit 2."""

import json

from votelace import enumeration
from votelace.cli import main
from votelace.enumeration import (
    enriched_count,
    enriched_count_formula,
    reduced_enriched_count,
    reduced_enriched_count_closed,
)


def test_n2_formula_at_thirteen_candidates():
    # the first size where a double-precision evaluation is off (by 6)
    assert enriched_count_formula("n2", 13) == 7811573420851200 == enriched_count(13, 2)


def test_n2_formula_matches_recurrence_up_to_300():
    for m in range(0, 301):
        assert enriched_count_formula("n2", m) == enriched_count(m, 2), m


def test_reduced_closed_form_at_130_candidates_and_8_voters():
    # a double-precision evaluation overflows here
    assert reduced_enriched_count_closed(130, 8) == reduced_enriched_count(130, 8)


def test_reduced_closed_form_matches_recurrence():
    for m in range(200):
        for n in range(1, 12):
            assert reduced_enriched_count_closed(m, n) == reduced_enriched_count(m, n), (m, n)


def test_cli_formula_at_200_candidates(capsys):
    code = main(["count", "--method", "formula", "--n", "2", "--m", "200", "--domain", "enriched"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "formula"
    assert int(payload["count"]) == enriched_count(200, 2)


def test_cli_maps_arithmetic_errors_to_exit_two(capsys, monkeypatch):
    def overflow(which, index):
        raise OverflowError("too large")

    monkeypatch.setattr(enumeration, "enriched_count_formula", overflow)
    code = main(["count", "--method", "formula", "--n", "2", "--m", "5", "--domain", "enriched"])
    assert code == 2
    assert "too large" in capsys.readouterr().err
