"""The frozen verdict table holds exactly the rows generate() writes."""

import verdict_rows


def test_frozen_keys_are_the_generated_keys():
    # a row whose checker or policy is gone fails here instead of lingering
    assert list(verdict_rows._frozen()) == [k for k, _ in verdict_rows.reports()]
