"""Results depend on the spec alone, not on the interpreter's hash seed.

Python salts ``str`` hashes per process, so any hash-ordered set that
reaches a scheduling decision makes results differ between processes.
Halo node ids hold strings (``("hub",)``, ``("spike", s, i)``), which is
how a set-ordered router table once made design F's serve metrics
depend on ``PYTHONHASHSEED``. Fork workers inherit the parent's salt
and hide that; spawn workers, each with a fresh salt, do not.

One subprocess per hash seed runs three checks and prints their
digests: a design-F serve cell on both flit cores, a halo flit workload
on both cores, and a ``run_cells`` batch whose pool uses the ``spawn``
start method, next to the same batch run serially.
"""

import json
import os
import subprocess
import sys

_SCRIPT = r"""
import hashlib
import json
import multiprocessing
import random

from repro.experiments.runner import reset_memo, run_cells
from repro.noc.topology import HaloTopology
from repro.stream.engine import execute_stream_cell, stream_spec_for
from repro.validation.differential import FlitWorkload, PacketSpec, observe


def digest(value):
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def serve_spec(policy, core):
    return stream_spec_for("F", policy, "duo-bursty", seed=1, cycles=300,
                           load=3.0, core=core)


def served(results):
    return digest([(r.summary, r.metrics) for r in results])


def halo_workload():
    nodes = list(HaloTopology(4, 4).nodes)
    spikes = [node for node in nodes if node[0] == "spike"]
    rng = random.Random(5)
    packets = []
    for i in range(24):
        source, destination = rng.sample(nodes, 2)
        packets.append(PacketSpec("read_request", source, (destination,), i * 3))
    for i in range(8):
        packets.append(
            PacketSpec("miss_notify", ("hub",), tuple(rng.sample(spikes, 3)), i * 5)
        )
    return FlitWorkload("halo", 4, 4, packets=tuple(packets))


multiprocessing.set_start_method("spawn")
out = {}
for core in ("object", "array"):
    out["serve-" + core] = served([execute_stream_cell(serve_spec("drop-tail", core))])
    out["halo-" + core] = digest(observe(halo_workload().run(core)))
specs = [serve_spec(policy, "array") for policy in ("drop-tail", "token-bucket")]
out["run_cells-serial"] = served(run_cells(specs, jobs=1, cache=None))
reset_memo()
out["run_cells-spawn"] = served(run_cells(specs, jobs=2, cache=None))
print(json.dumps(out))
"""


def _digests(*hash_seeds: str) -> list[dict]:
    """Run the script once per hash seed, the processes side by side."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _SCRIPT],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        )
        for seed in hash_seeds
    ]
    outputs = []
    for process in processes:
        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    return outputs


def test_results_do_not_depend_on_the_hash_seed():
    first, second = _digests("1", "2")
    assert first == second
    assert first["run_cells-spawn"] == first["run_cells-serial"]
