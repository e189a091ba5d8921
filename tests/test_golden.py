"""Every entry of ``tests/golden/golden.json``, recomputed in process.

The file pins outputs bit for bit (see ``tests/golden/record.py`` for the
entries and the one command that re-records them).  A moved hash fails
naming the first entry that moved and the BLAS thread count it ran at; so
does an environment other than the recorded one, whose NumPy, libm or BLAS
may round differently.  That test runs first, and on another CPU it names
the kernels OpenBLAS and NumPy picked there beside the recorded ones.  The
hashes hold at any OpenBLAS thread count: the ``project`` entries, whose
products are the ones BLAS could split across threads, are also recomputed
in a child process at one thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpswf
from golden import record

GOLDEN = record.load()


def _first(moved):
    name, was, now = moved[0]
    return f"{name}: recorded {was}, computed {now} ({len(moved)} moved)"


def test_environment_is_the_recorded_one():
    # runs before any hash is compared; on another CPU it names both kernels,
    # OpenBLAS's core and NumPy's SIMD targets, as recorded and as found
    env = record.environment()
    moved = record.moved(GOLDEN["environment"], env)
    kernels = {key: (GOLDEN["environment"].get(key), env[key])
               for key in ("blas_core", "numpy_simd")}
    assert not moved, f"{_first(moved)}; kernels (recorded, found): {kernels}"


def test_every_entry_hashes_as_recorded(tmp_path):
    moved = record.moved(GOLDEN["entries"], dict(record.hashes(tmp_path)))
    assert not moved, f"{_first(moved)}; BLAS threads: {record.blas_threads()}"


def test_project_entries_hash_as_recorded_at_one_blas_thread():
    # OpenBLAS reads its thread count when it loads, so in a child process
    script = ("import json; from golden import record; print(json.dumps("
              "[record.blas_threads(), {name: record._sha(*parts) "
              "for name, parts in record.project_entries()}]))")
    path = [str(Path(gpswf.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(path + [os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    threads, computed = json.loads(run.stdout)
    assert threads in (1, None) and computed.keys() <= GOLDEN["entries"].keys()
    recorded = {name: GOLDEN["entries"][name] for name in computed}
    moved = record.moved(recorded, computed)
    assert not moved, _first(moved)


def test_moved_names_the_first_differing_entry():
    old = {"a": "1", "b": "2", "c": "3"}
    assert record.moved(old, {"a": "1", "b": "9", "c": "8"})[0] == ("b", "2", "9")
    assert record.moved(old, {"a": "1", "b": "2"}) == [("c", "3", None)]


def test_compare_gives_each_moved_entry_its_worst_moves():
    old = {"same": ["x=1.5"], "num": ["a 1.0 b 2.0e-3", "4\n8"], "text": ["n=3"],
           "bytes": ["ab" * 40], "gone": ["1"]}
    new = {"same": ["x=1.5"], "num": ["a 1.5 b 2.5e-3", "4\n8"], "text": ["n=3 x"],
           "bytes": ["cd" * 40], "added": ["2"]}
    assert record.compare(old, new) == [
        "num: abs 5.00e-01, rel 3.33e-01", "text: part 0: text differs",
        "bytes: part 0: text differs", "added: only in NEW", "gone: only in OLD"]
