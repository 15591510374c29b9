"""The benchmark's span tracer wraps dialab names by lookup; a refactor that
moves or rebinds one of them must fail here, not only in a traced run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_tracer_instruments_every_hook():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import spans; "
            "spans.instrument(spans.Tracer())")
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
