"""Where the benchmark finds the program and keeps its run files."""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# One BLAS thread: on a 2-core machine threaded BLAS made single repro runs
# both slower and about 20% noisier. Set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class MissingProgram(RuntimeError):
    """The checkout holds no importable consyn source tree."""


def import_consyn():
    """Import consyn from the checkout's src/ and nowhere else."""
    if not (SRC / "consyn" / "__init__.py").is_file():
        raise MissingProgram(f"no consyn package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import consyn
    if Path(consyn.__file__).resolve().parent != SRC / "consyn":
        raise MissingProgram(f"consyn imported from {consyn.__file__}, "
                             f"not from {SRC}")
    return consyn
