import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    # every benchmark workload, at tiny sizes with tracing on: a change to how
    # perfbench/workloads.py calls the library fails here, not only in a benchmark run
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke_test.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
