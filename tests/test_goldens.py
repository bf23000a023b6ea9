"""Seeded outputs must match the digests pinned in ``goldens.json``.

A failure means a seeded witness, report, hitting set, finder result, CLI
output or CSV changed. If the change is intended, delete the moved entries
from ``goldens.json``, rerun ``tests/make_goldens.py`` and say in CHANGES.md
which digest moved and why.
"""

from __future__ import annotations

import json
import warnings

import pytest

from make_goldens import CASES, GOLDENS_PATH

GOLDENS = json.loads(GOLDENS_PATH.read_text(encoding="ascii"))


def test_every_case_is_pinned():
    assert sorted(GOLDENS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert CASES[name]() == GOLDENS[name], f"seeded output of {name} changed"
