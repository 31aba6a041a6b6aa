"""The glibc heap policy netcore sets when it is imported.

One malloc arena, a 32 MB mmap threshold and a 12 MB trim threshold hold
from the import on, whether or not an eval pool is ever made, so freed
arrays are reused without page faults. The check runs in a fresh process
pinned to one CPU before it imports rml_lab: there eval forwards have no
worker, so no pool is made, and the policy must hold without one.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from rml_lab import netcore

# minor faults of 50 batch-4 training steps, then of 5 evaluations of 256
# images of 16x16, each after a first call that may allocate what later ones reuse
SCRIPT = """
import json, os, resource
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from rml_lab import netcore
from rml_lab.data import Dataset
from rml_lab.netcore import build_model, loss_and_gradients, sgd_step
from rml_lab.trainer import eval_confusion

def faults(fn, times):
    fn()
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(times):
        fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start

rng = np.random.default_rng(0)
m = build_model("cnn", K=6, C=16, seed=3, in_channels=3)
x, y = rng.random((4, 16, 16, 3)), rng.integers(0, 6, (4, 16, 16))

def step():
    _, grads = loss_and_gradients(m, x, [(y, None)], rng=rng)
    sgd_step(m, grads, 0.01)

train = faults(step, 50)
ds = Dataset(rng.random((256, 16, 16, 3)), rng.integers(0, 6, (256, 16, 16)), np.arange(256))
evaluate = faults(lambda: eval_confusion(m, ds, 6), 5)
print(json.dumps({"train": train, "eval": evaluate, "pool": netcore._pool is not None,
                  "trim": netcore._malloc_trim is not None}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not hasattr(os, "sched_setaffinity"),
                    reason="the heap policy is glibc's, and the check pins a CPU")
def test_training_and_evaluation_reuse_freed_pages_with_no_pool():
    # under glibc's own moving thresholds the steps re-fault about 23,000
    # pages and the evaluations about 4,900
    src = str(Path(netcore.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert got["train"] < 1000 and got["eval"] < 300, got
    assert got["trim"] and not got["pool"]
