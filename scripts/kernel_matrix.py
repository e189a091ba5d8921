"""Tier-1 once per CPU-kernel setting, each in its own process.

The golden file and the bitwise tests pin outputs to the last bit, and the
kernels that OpenBLAS and NumPy pick on a CPU may round a product apart.
This runs Tier-1 four times from the repository root: under the kernels
picked here, with OpenBLAS forced to its Haswell (AVX2) and its
Sandybridge (AVX) kernels, and with NumPy's AVX-512 loops disabled.  Both
settings are read once, when the library loads, so each run is a fresh
``pytest`` process.  For each setting it prints the kernels the run found,
the count of failed tests and their ids::

    python scripts/kernel_matrix.py

A change that adds a bitwise assertion states the kernels it holds on from
this one command.  ``test_environment_is_the_recorded_one`` fails under any
forced kernel by design: it names the kernels found beside the recorded
ones.  The four runs take about two minutes on two cores.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = [
    ("default", {}),
    ("OPENBLAS_CORETYPE=Haswell", {"OPENBLAS_CORETYPE": "Haswell"}),
    ("OPENBLAS_CORETYPE=Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
    ("NPY_DISABLE_CPU_FEATURES=X86_V4,AVX512_ICL,AVX512_SPR",
     {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"}),
]
KERNELS = ("from golden import record; env = record.environment(); "
           "print(env['blas_core'], ','.join(env['numpy_simd']))")


def _run(extra):
    # Tier-1's path: src ahead of the caller's; the kernel probe reads tests/golden
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **extra)
    kernels = subprocess.run([sys.executable, "-c", KERNELS], cwd=ROOT, capture_output=True,
                             env=dict(env, PYTHONPATH=f"{ROOT / 'tests'}{os.pathsep}{path}"),
                             text=True)
    start = time.perf_counter()
    tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                            "no:cacheprovider", "--continue-on-collection-errors"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in tier1.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    summary = tier1.stdout.strip().splitlines()[-1] if tier1.stdout.strip() else ""
    return kernels.stdout.strip() or kernels.stderr.strip(), failed, summary, seconds


def main():
    for name, extra in SETTINGS:
        kernels, failed, summary, seconds = _run(extra)
        print(f"{name}: {len(failed)} failed ({summary}; {seconds:.1f} s)")
        print(f"  kernels (OpenBLAS core, NumPy SIMD): {kernels}")
        for test in failed:
            print(f"  {test}")


if __name__ == "__main__":
    main()
