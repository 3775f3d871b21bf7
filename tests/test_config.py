"""Contracts of the tolerance table."""
import pathlib
import re

import equimorse
from equimorse.config import TOLERANCES, tol


def test_every_tolerance_entry_is_read():
    # an entry nothing reads would accept an EQUIMORSE_TOL_* override that
    # changes nothing
    src = pathlib.Path(equimorse.__file__).parent
    read = set()
    for path in src.glob("*.py"):
        read.update(re.findall(r'tol\("(\w+)"\)', path.read_text()))
    assert set(TOLERANCES) <= read, sorted(set(TOLERANCES) - read)


def test_override_replaces_a_single_entry(monkeypatch):
    monkeypatch.setenv("EQUIMORSE_TOL_DEDUP", "0.5")
    assert tol("dedup") == 0.5
    assert tol("newton_grad") == TOLERANCES["newton_grad"]
