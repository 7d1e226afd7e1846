"""BLAS thread count: `import medkit` pins one thread unless the user chose.

Each check runs in fresh interpreters, since BLAS reads its thread settings
once, when numpy loads.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import medkit

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(medkit.__file__).resolve().parents[1])
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _env(**blas) -> dict:
    """This process's environment with medkit importable and only the given BLAS settings."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return {**env, **blas, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]), "PYTHONIOENCODING": "utf-8"}


def _blas_env_after_import(**blas) -> dict:
    code = f"import json, os, medkit; print(json.dumps({{k: os.environ.get(k) for k in {BLAS_THREADS!r}}}))"
    done = subprocess.run([sys.executable, "-c", code], env=_env(**blas), capture_output=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_pins_one_blas_thread_when_nothing_is_set():
    assert _blas_env_after_import() == dict.fromkeys(BLAS_THREADS, "1")


def test_any_user_blas_setting_leaves_all_three_alone():
    assert _blas_env_after_import(OMP_NUM_THREADS="3") == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}


@pytest.mark.skipif(USABLE_CPUS < 2, reason="needs at least 2 usable CPUs")
def test_lm_checkpoint_does_not_depend_on_the_usable_cpus(tmp_path):
    """A pipeline-sized one-epoch `pretrain-lm` writes the same lm.ckpt bytes
    pinned to one CPU as on every usable CPU. OpenBLAS sizes its thread pool
    from the affinity, so without a pinned thread count the second run would
    split its matrix products across threads and sum in another order."""
    rng = random.Random(0)
    alphabet = [chr(0x4E00 + i) for i in range(300)] + list("，。？")
    texts = ["".join(rng.choices(alphabet, k=rng.randint(8, 30))) for _ in range(70)]  # about the size of perfbench's LM corpus
    (tmp_path / "background.txt").write_text("\n".join(texts) + "\n", encoding="utf-8")
    # Pins itself to one CPU or to every usable one before numpy loads.
    child = ("import os, sys; cpus = os.sched_getaffinity(0); os.sched_setaffinity(0, {min(cpus)} if sys.argv[1] == 'one' else cpus); "
             "from medkit import cli; sys.exit(cli.main(sys.argv[2:]))")
    digests = {}
    for name in ("one", "every"):
        argv = ["pretrain-lm", "--in", str(tmp_path / "background.txt"), "--out", str(tmp_path / name),
                "--set", "lm_pretrain_epochs=1", "--set", "dec_hidden=64", "--set", "seed=0"]
        done = subprocess.run([sys.executable, "-c", child, name, *argv], env=_env(), capture_output=True, encoding="utf-8", timeout=600)
        assert done.returncode == 0, done.stderr
        digests[name] = hashlib.sha256((tmp_path / name / "lm.ckpt").read_bytes()).hexdigest()
    assert digests["one"] == digests["every"]
