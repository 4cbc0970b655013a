"""The benchmark's 171 workload outputs stay byte-identical.

`benchmark/workloads.py` is loaded read-only from its file.  Every job of
`theorem`, `tor-graded` and `cancel` at seeds 1-3 runs through
`grtor.cli.main` in-process; each job's exit code and stdout are hashed,
and the digest of those digests is pinned.  A change that moves any
printed byte of any workload fails here, not only in a benchmark run.
"""

import contextlib
import hashlib
import importlib.util
import io
from pathlib import Path

from grtor.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"
# SHA-256 of the concatenated per-job SHA-256 digests of "%d\n" % code + stdout
OUTPUTS_DIGEST = "cefa20e5fed16144ce12714d48219be62239d293c2095a022b8ed7af01060c21"


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_outputs_are_pinned(tmp_path):
    workloads = load_workloads()
    digests = []
    for name in ("theorem", "tor-graded", "cancel"):
        for seed in (1, 2, 3):
            for job in workloads.build(name, seed, str(tmp_path / ("%s-%d" % (name, seed)))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(job.argv)
                digests.append(hashlib.sha256(("%d\n" % code + out.getvalue()).encode()).digest())
    assert len(digests) == 171
    assert hashlib.sha256(b"".join(digests)).hexdigest() == OUTPUTS_DIGEST
