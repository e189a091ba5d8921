"""Every entry of ``tests/golden/golden.json``, recomputed in process.

The file pins outputs bit for bit (see ``tests/golden/record.py`` for the
entries and the one command that re-records them).  A moved hash fails
naming the first entry that moved; so does an environment other than the
recorded one, whose NumPy, libm or BLAS may round differently.
"""

from golden import record

GOLDEN = record.load()


def _first(moved):
    name, was, now = moved[0]
    return f"{name}: recorded {was}, computed {now} ({len(moved)} moved)"


def test_environment_is_the_recorded_one():
    moved = record.moved(GOLDEN["environment"], record.environment())
    assert not moved, _first(moved)


def test_every_entry_hashes_as_recorded(tmp_path):
    moved = record.moved(GOLDEN["entries"], dict(record.entries(tmp_path)))
    assert not moved, _first(moved)


def test_moved_names_the_first_differing_entry():
    old = {"a": "1", "b": "2", "c": "3"}
    assert record.moved(old, {"a": "1", "b": "9", "c": "8"})[0] == ("b", "2", "9")
    assert record.moved(old, {"a": "1", "b": "2"}) == [("c", "3", None)]
