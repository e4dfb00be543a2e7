"""Fixture snippets for the static-analysis rules.

Each fixture is one small source module plus the verdict the analyzer
must reach on it:

* ``positive`` -- the snippet violates the rule and must be flagged;
* ``negative`` -- the snippet is idiomatic/clean and must not be;
* ``suppressed`` -- the snippet violates the rule but carries a
  justified ``# repro: allow[rule]`` directive, so the analyzer must
  stay silent (and must not report ``bad-suppression`` either).

The violating code lives only inside string literals, so the analyzer's
CI sweep over ``tests/`` never sees it as real source.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Fixture:
    rule: str
    family: str
    kind: str  # "positive" | "negative" | "suppressed"
    module: str | None
    source: str


FIXTURES = [
    # -- determinism ----------------------------------------------------------
    Fixture(
        "det-wallclock", "determinism", "positive", "repro.experiments.demo",
        "import time\n\nSTARTED = time.time()\n",
    ),
    Fixture(
        "det-wallclock", "determinism", "positive", "repro.core.demo",
        "from datetime import datetime\n\nstamp = datetime.now()\n",
    ),
    Fixture(
        # Monotonic clocks are fine for wall-cost metadata outside the
        # simulation core (RunResult.wall_s is compare=False).
        "det-wallclock", "determinism", "negative", "repro.experiments.demo",
        "import time\n\nstarted = time.perf_counter()\n",
    ),
    Fixture(
        # ... but inside the core the only clock is Simulator.now.
        "det-wallclock", "determinism", "positive", "repro.sim.demo",
        "import time\n\nstarted = time.perf_counter()\n",
    ),
    Fixture(
        "det-wallclock", "determinism", "suppressed", "repro.experiments.demo",
        "import time\n\n"
        "STARTED = time.time()"
        "  # repro: allow[det-wallclock] -- fixture: vetted false positive\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "positive",
        "repro.workloads.demo",
        "import random\n\n\ndef pick(items):\n"
        "    return random.choice(items)\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "positive",
        "repro.experiments.demo",
        "import random\n\nrng = random.Random()\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "negative",
        "repro.workloads.demo",
        "import random\n\n\ndef pick(items, seed):\n"
        "    rng = random.Random(seed)\n"
        "    return rng.choice(items)\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "suppressed",
        "repro.workloads.demo",
        "import random\n\n\ndef pick(items):\n"
        "    return random.choice(items)"
        "  # repro: allow[det-unseeded-random] -- fixture justification\n",
    ),
    Fixture(
        "det-id-order", "determinism", "positive", "repro.noc.demo",
        "def order(items):\n    return sorted(items, key=id)\n",
    ),
    Fixture(
        "det-id-order", "determinism", "positive", "repro.cache.demo",
        "def seen(items):\n    return {id(item) for item in items}\n",
    ),
    Fixture(
        "det-id-order", "determinism", "negative", "repro.noc.demo",
        "def order(items):\n"
        "    return sorted(items, key=lambda item: item.name)\n",
    ),
    Fixture(
        # Outside the simulation core the rule does not apply at all.
        "det-id-order", "determinism", "negative", "repro.experiments.demo",
        "def order(items):\n    return sorted(items, key=id)\n",
    ),
    Fixture(
        "det-id-order", "determinism", "suppressed", "repro.noc.demo",
        "def taken(candidates):\n"
        "    return {id(vc) for vc in candidates}"
        "  # repro: allow[det-id-order] -- fixture: membership-only set\n",
    ),
    Fixture(
        # Module-level numpy draws share numpy's hidden global state just
        # like random.* does.
        "det-unseeded-random", "determinism", "positive", "repro.noc.demo",
        "import numpy\n\n\ndef jitter(n):\n"
        "    return numpy.random.standard_normal(n)\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "positive",
        "repro.workloads.demo",
        "from numpy import random as nprandom\n\n\ndef arrivals(n):\n"
        "    return nprandom.poisson(3.0, n)\n",
    ),
    Fixture(
        "det-unseeded-random", "determinism", "negative", "repro.noc.demo",
        "import numpy\n\n\ndef jitter(n, seed):\n"
        "    rng = numpy.random.default_rng(seed)\n"
        "    return rng.standard_normal(n)\n",
    ),
    Fixture(
        "det-unordered-reduce", "determinism", "positive", "repro.noc.demo",
        "def total(latencies):\n"
        "    return sum({flit.latency for flit in latencies})\n",
    ),
    Fixture(
        "det-unordered-reduce", "determinism", "positive", "repro.sim.demo",
        "import math\n\n\ndef energy(loads, extra):\n"
        "    return math.fsum({0.5, 1.5, extra})\n",
    ),
    Fixture(
        # Reducing a deterministic sequence is the idiomatic fix.
        "det-unordered-reduce", "determinism", "negative", "repro.noc.demo",
        "def total(latencies):\n"
        "    return sum(sorted({flit.latency for flit in latencies}))\n",
    ),
    Fixture(
        # Outside the simulation core the rule does not apply.
        "det-unordered-reduce", "determinism", "negative",
        "repro.experiments.demo",
        "def total(values):\n"
        "    return sum({v for v in values})\n",
    ),
    Fixture(
        "det-unordered-reduce", "determinism", "suppressed",
        "repro.noc.demo",
        "def total(counts):\n"
        "    return sum({c for c in counts})"
        "  # repro: allow[det-unordered-reduce] -- fixture: ints commute\n",
    ),
    Fixture(
        "det-set-iter", "determinism", "positive", "repro.sim.demo",
        "def visit(handler, extra):\n"
        "    for node in {1, 2, extra}:\n"
        "        handler(node)\n",
    ),
    Fixture(
        "det-set-iter", "determinism", "positive", "repro.noc.demo",
        "def fan(links):\n    return [hop for hop in set(links)]\n",
    ),
    Fixture(
        "det-set-iter", "determinism", "negative", "repro.sim.demo",
        "def visit(handler, nodes):\n"
        "    for node in sorted(set(nodes)):\n"
        "        handler(node)\n",
    ),
    Fixture(
        "det-set-iter", "determinism", "suppressed", "repro.noc.demo",
        "def fan(links):\n"
        "    return [hop for hop in set(links)]"
        "  # repro: allow[det-set-iter] -- fixture: order provably unused\n",
    ),
    Fixture(
        "det-np-unstable-sort", "determinism", "positive", "repro.noc.demo",
        "import numpy as np\n\n\ndef rank(keys):\n"
        "    return np.argsort(keys)\n",
    ),
    Fixture(
        # The method form is numpy-specific (lists have no argsort).
        "det-np-unstable-sort", "determinism", "positive", "repro.sim.demo",
        "def order(scores):\n    return scores.argsort()\n",
    ),
    Fixture(
        "det-np-unstable-sort", "determinism", "negative", "repro.noc.demo",
        "import numpy as np\n\n\ndef rank(keys):\n"
        "    return np.argsort(keys, kind=\"stable\")\n",
    ),
    Fixture(
        # Outside the simulation core the rule does not apply.
        "det-np-unstable-sort", "determinism", "negative",
        "repro.experiments.demo",
        "import numpy as np\n\n\ndef rank(keys):\n"
        "    return np.argsort(keys)\n",
    ),
    Fixture(
        "det-np-unstable-sort", "determinism", "suppressed",
        "repro.noc.demo",
        "import numpy as np\n\n\ndef rank(keys):\n"
        "    return np.argsort(keys)"
        "  # repro: allow[det-np-unstable-sort] -- fixture: keys unique\n",
    ),
    Fixture(
        # numpy reductions over set expressions accumulate in hash order
        # just like builtin sum.
        "det-unordered-reduce", "determinism", "positive", "repro.noc.demo",
        "import numpy as np\n\n\ndef total(latencies):\n"
        "    return np.sum({lat for lat in latencies})\n",
    ),
    # -- process safety -------------------------------------------------------
    Fixture(
        "proc-spec-pickle", "process-safety", "positive",
        "repro.experiments.demo",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class DemoSpec:\n"
        "    tag: str\n"
        "    table: dict\n",
    ),
    Fixture(
        "proc-spec-pickle", "process-safety", "positive",
        "repro.experiments.demo",
        "from dataclasses import dataclass\n"
        "from typing import Callable\n\n\n"
        "@dataclass(frozen=True)\n"
        "class HookSpec:\n"
        "    on_done: Callable\n",
    ),
    Fixture(
        "proc-spec-pickle", "process-safety", "negative",
        "repro.experiments.demo",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class DemoSpec:\n"
        "    design: str\n"
        "    seed: int\n"
        "    weights: tuple[float, ...]\n"
        "    index_space: int | None = None\n",
    ),
    Fixture(
        # Spec classes outside repro.experiments are out of the rule's
        # jurisdiction (they never cross the pool boundary).
        "proc-spec-pickle", "process-safety", "negative", "repro.noc.demo",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\nclass LinkSpec:\n    table: dict\n",
    ),
    Fixture(
        "proc-spec-pickle", "process-safety", "suppressed",
        "repro.experiments.demo",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class DemoSpec:\n"
        "    tag: str\n"
        "    table: dict"
        "  # repro: allow[proc-spec-pickle] -- fixture justification\n",
    ),
    Fixture(
        "proc-worker-global-write", "process-safety", "positive",
        "repro.experiments.demo",
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "_SEEN = {}\n\n\n"
        "def work(item):\n"
        "    _SEEN[item] = True\n"
        "    return item\n\n\n"
        "def run(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        futures = [pool.submit(work, item) for item in items]\n"
        "    return [future.result() for future in futures]\n",
    ),
    Fixture(
        # The closure is transitive: work() calls helper(), which writes.
        "proc-worker-global-write", "process-safety", "positive",
        "repro.experiments.demo",
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "_LOG = []\n\n\n"
        "def helper(item):\n"
        "    _LOG.append(item)\n\n\n"
        "def work(item):\n"
        "    helper(item)\n"
        "    return item\n\n\n"
        "def run(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, item) for item in items]\n",
    ),
    Fixture(
        "proc-worker-global-write", "process-safety", "negative",
        "repro.experiments.demo",
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "_LIMIT = 8\n\n\n"
        "def work(item):\n"
        "    local = {}\n"
        "    local[item] = _LIMIT\n"
        "    return local\n\n\n"
        "def run(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, item) for item in items]\n",
    ),
    Fixture(
        "proc-worker-global-write", "process-safety", "suppressed",
        "repro.experiments.demo",
        "from concurrent.futures import ProcessPoolExecutor\n\n"
        "_SEEN = {}\n\n\n"
        "def work(item):\n"
        "    _SEEN[item] = True"
        "  # repro: allow[proc-worker-global-write] -- fixture: pure memo\n"
        "    return item\n\n\n"
        "def run(items):\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return [pool.submit(work, item) for item in items]\n",
    ),
    Fixture(
        "proc-mutable-default", "process-safety", "positive",
        "repro.experiments.demo",
        "def gather(item, acc=[]):\n"
        "    acc.append(item)\n"
        "    return acc\n",
    ),
    Fixture(
        "proc-mutable-default", "process-safety", "positive",
        "repro.workloads.demo",
        "def index(key, table={}):\n"
        "    return table.setdefault(key, 0)\n",
    ),
    Fixture(
        "proc-mutable-default", "process-safety", "negative",
        "repro.experiments.demo",
        "def gather(item, acc=None):\n"
        "    acc = [] if acc is None else acc\n"
        "    acc.append(item)\n"
        "    return acc\n",
    ),
    Fixture(
        "proc-mutable-default", "process-safety", "suppressed",
        "repro.experiments.demo",
        "def gather(item, acc=[]):"
        "  # repro: allow[proc-mutable-default] -- fixture justification\n"
        "    acc.append(item)\n"
        "    return acc\n",
    ),
    # -- telemetry hygiene ----------------------------------------------------
    Fixture(
        "tel-registry-only", "telemetry", "positive", "repro.noc.demo",
        "from repro.telemetry import Counter\n\nhits = Counter()\n",
    ),
    Fixture(
        "tel-registry-only", "telemetry", "positive", "repro.cache.demo",
        "from repro.telemetry.registry import Histogram\n\n"
        "depths = Histogram((1, 2, 4))\n",
    ),
    Fixture(
        # collections.Counter is a different class; import resolution
        # must tell them apart.
        "tel-registry-only", "telemetry", "negative",
        "repro.validation.demo",
        "from collections import Counter\n\ntallies = Counter()\n",
    ),
    Fixture(
        "tel-registry-only", "telemetry", "negative", "repro.noc.demo",
        "from repro.telemetry import global_registry\n\n"
        "hits = global_registry().counter('noc.demo.hits')\n",
    ),
    Fixture(
        "tel-registry-only", "telemetry", "suppressed", "repro.noc.demo",
        "from repro.telemetry import Counter\n\n"
        "hits = Counter()"
        "  # repro: allow[tel-registry-only] -- fixture justification\n",
    ),
    Fixture(
        "tel-sink-only", "telemetry", "positive", "repro.experiments.demo",
        "from repro.telemetry import JsonlTraceSink\n\n"
        "sink = JsonlTraceSink('out.jsonl')\n",
    ),
    Fixture(
        "tel-sink-only", "telemetry", "positive", "repro.noc.demo",
        "from repro.telemetry.trace import ChromeTraceSink\n\n"
        "sink = ChromeTraceSink('out.json')\n",
    ),
    Fixture(
        "tel-sink-only", "telemetry", "negative", "repro.experiments.demo",
        "from repro.telemetry import open_sink\n\n"
        "sink = open_sink('out.jsonl')\n",
    ),
    Fixture(
        "tel-sink-only", "telemetry", "suppressed", "repro.experiments.demo",
        "from repro.telemetry import JsonlTraceSink\n\n"
        "sink = JsonlTraceSink('out.jsonl')"
        "  # repro: allow[tel-sink-only] -- fixture justification\n",
    ),
    Fixture(
        "tel-wallclock-payload", "telemetry", "positive",
        "repro.telemetry.demo",
        "import time\n\n\ndef stamp():\n    return time.time()\n",
    ),
    Fixture(
        "tel-wallclock-payload", "telemetry", "positive",
        "repro.telemetry.demo",
        "import os\n\n\ndef tag():\n    return os.getpid()\n",
    ),
    Fixture(
        "tel-wallclock-payload", "telemetry", "negative",
        "repro.telemetry.demo",
        "def stamp(simulator):\n    return simulator.now\n",
    ),
    Fixture(
        "tel-wallclock-payload", "telemetry", "suppressed",
        "repro.telemetry.demo",
        "import time\n\n\ndef stamp():\n"
        "    return time.time()"
        "  # repro: allow[tel-wallclock-payload] -- fixture justification\n",
    ),
    Fixture(
        # Monotonic clocks are fine in orchestration for wall-cost
        # metadata, but never as a metric sample: a host-time window
        # index shears the serial == --jobs N == replay merge.
        "tel-window-simtime", "telemetry", "positive",
        "repro.experiments.demo",
        "import time\n\n\ndef sample(series):\n"
        "    series.record(time.perf_counter())\n",
    ),
    Fixture(
        "tel-window-simtime", "telemetry", "positive",
        "repro.perf.demo",
        "from time import monotonic\n\n\ndef sample(registry, value):\n"
        "    registry.series('demo', 16).record(int(monotonic()), value)\n",
    ),
    Fixture(
        "tel-window-simtime", "telemetry", "negative",
        "repro.experiments.demo",
        "def sample(series, cycle, value):\n"
        "    series.record(cycle, value)\n",
    ),
    Fixture(
        # Timing *around* a record call is fine; only host time flowing
        # into the sample arguments is a violation.
        "tel-window-simtime", "telemetry", "negative",
        "repro.experiments.demo",
        "import time\n\n\ndef sample(series, cycle):\n"
        "    started = time.perf_counter()\n"
        "    series.record(cycle)\n"
        "    return time.perf_counter() - started\n",
    ),
    Fixture(
        "tel-window-simtime", "telemetry", "suppressed",
        "repro.experiments.demo",
        "import time\n\n\ndef sample(series):\n"
        "    series.record(int(time.monotonic()))"
        "  # repro: allow[tel-window-simtime] -- fixture justification\n",
    ),
    # -- exception discipline -------------------------------------------------
    Fixture(
        "exc-bare", "exceptions", "positive", "repro.experiments.demo",
        "def guard(thunk):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except:\n"
        "        return None\n",
    ),
    Fixture(
        # Bare except is banned even outside the repro package.
        "exc-bare", "exceptions", "positive", None,
        "def guard(thunk):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except:\n"
        "        raise\n",
    ),
    Fixture(
        "exc-bare", "exceptions", "negative", "repro.experiments.demo",
        "def guard(thunk):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except ValueError:\n"
        "        return None\n",
    ),
    Fixture(
        "exc-bare", "exceptions", "suppressed", "repro.experiments.demo",
        "def guard(thunk):\n"
        "    try:\n"
        "        return thunk()\n"
        "    except:"
        "  # repro: allow[exc-bare] -- fixture justification\n"
        "        raise\n",
    ),
    Fixture(
        "exc-silent", "exceptions", "positive", "repro.experiments.demo",
        "def attempt(thunk):\n"
        "    try:\n"
        "        thunk()\n"
        "    except Exception:\n"
        "        pass\n",
    ),
    Fixture(
        # Inside the simulation core even a *narrow* silent catch is a
        # swallow: a dropped error surfaces later as corruption.
        "exc-silent", "exceptions", "positive", "repro.noc.demo",
        "def attempt(thunk):\n"
        "    try:\n"
        "        thunk()\n"
        "    except KeyError:\n"
        "        pass\n",
    ),
    Fixture(
        # A narrow, silent catch outside the core is tolerated (cleanup
        # idiom); the broad-or-core combinations are what the rule bans.
        "exc-silent", "exceptions", "negative", "repro.experiments.demo",
        "def attempt(thunk):\n"
        "    try:\n"
        "        thunk()\n"
        "    except FileNotFoundError:\n"
        "        pass\n",
    ),
    Fixture(
        "exc-silent", "exceptions", "negative", "repro.experiments.demo",
        "def attempt(thunk, log):\n"
        "    try:\n"
        "        thunk()\n"
        "    except Exception as exc:\n"
        "        log(exc)\n",
    ),
    Fixture(
        "exc-silent", "exceptions", "suppressed", "repro.experiments.demo",
        "def attempt(thunk):\n"
        "    try:\n"
        "        thunk()\n"
        "    except Exception:"
        "  # repro: allow[exc-silent] -- fixture justification\n"
        "        pass\n",
    ),
    Fixture(
        "exc-broad-hotpath", "exceptions", "positive", "repro.sim.demo",
        "def step(event, log):\n"
        "    try:\n"
        "        event()\n"
        "    except Exception as exc:\n"
        "        log(exc)\n",
    ),
    Fixture(
        "exc-broad-hotpath", "exceptions", "positive", "repro.cache.demo",
        "def probe(bank, log):\n"
        "    try:\n"
        "        bank.read()\n"
        "    except BaseException as exc:\n"
        "        log(exc)\n"
        "        raise\n",
    ),
    Fixture(
        "exc-broad-hotpath", "exceptions", "negative",
        "repro.experiments.demo",
        "def step(event, log):\n"
        "    try:\n"
        "        event()\n"
        "    except Exception as exc:\n"
        "        log(exc)\n",
    ),
    Fixture(
        "exc-broad-hotpath", "exceptions", "suppressed", "repro.sim.demo",
        "def step(event, log):\n"
        "    try:\n"
        "        event()\n"
        "    except Exception as exc:"
        "  # repro: allow[exc-broad-hotpath] -- fixture justification\n"
        "        log(exc)\n",
    ),
    Fixture(
        "exc-taxonomy", "exceptions", "positive", "repro.cache.demo",
        "def check(depth):\n"
        "    if depth < 0:\n"
        "        raise RuntimeError('negative depth')\n"
        "    return depth\n",
    ),
    Fixture(
        "exc-taxonomy", "exceptions", "positive", "repro.sim.demo",
        "def dispatch(event):\n"
        "    if event is None:\n"
        "        raise Exception('no event')\n"
        "    event()\n",
    ),
    Fixture(
        # ValueError on argument validation stays idiomatic.
        "exc-taxonomy", "exceptions", "negative", "repro.cache.demo",
        "def check(depth):\n"
        "    if depth < 0:\n"
        "        raise ValueError('negative depth')\n"
        "    return depth\n",
    ),
    Fixture(
        "exc-taxonomy", "exceptions", "negative", "repro.experiments.demo",
        "def check(depth):\n"
        "    if depth < 0:\n"
        "        raise RuntimeError('negative depth')\n"
        "    return depth\n",
    ),
    Fixture(
        "exc-taxonomy", "exceptions", "suppressed", "repro.cache.demo",
        "def check(depth):\n"
        "    if depth < 0:\n"
        "        raise RuntimeError('negative depth')"
        "  # repro: allow[exc-taxonomy] -- fixture justification\n"
        "    return depth\n",
    ),
    # -- dataflow taint -------------------------------------------------------
    Fixture(
        # Wall clock two assignments away from a telemetry payload: the
        # det-* rules see only the time.time() call, the taint pass
        # follows the value into the counter sample.
        "df-taint-telemetry", "dataflow", "positive", "repro.experiments.demo",
        "import time\n\n\ndef push(registry):\n"
        "    stamp = time.time()\n"
        "    jitter = stamp * 2.0\n"
        "    registry.counter('exp.jitter').inc(int(jitter))\n",
    ),
    Fixture(
        # Set-iteration order laundered through list() into a gauge.
        "df-taint-telemetry", "dataflow", "positive", "repro.noc.demo",
        "def publish(registry, ports):\n"
        "    pending = {p for p in ports}\n"
        "    order = list(pending)\n"
        "    registry.gauge('noc.first_port').set(order[0])\n",
    ),
    Fixture(
        # id() flowing into a metric *key* makes the schema per-process.
        "df-taint-telemetry", "dataflow", "positive", "repro.cache.demo",
        "def publish(registry, bank):\n"
        "    key = f'cache.bank.{id(bank)}.hits'\n"
        "    registry.counter(key).inc(1)\n",
    ),
    Fixture(
        # sorted() canonicalizes set order before the sample: clean.
        "df-taint-telemetry", "dataflow", "negative", "repro.noc.demo",
        "def publish(registry, ports):\n"
        "    pending = {p for p in ports}\n"
        "    order = sorted(pending)\n"
        "    registry.gauge('noc.first_port').set(order[0])\n",
    ),
    Fixture(
        # Simulator-cycle values are the legitimate telemetry clock.
        "df-taint-telemetry", "dataflow", "negative", "repro.noc.demo",
        "def publish(registry, network):\n"
        "    cycles = network.cycle\n"
        "    registry.counter('noc.network.cycles').inc(cycles)\n",
    ),
    Fixture(
        "df-taint-telemetry", "dataflow", "suppressed", "repro.noc.demo",
        "def publish(registry, ports):\n"
        "    order = list({p for p in ports})\n"
        "    registry.gauge('noc.first_port').set(order[0])"
        "  # repro: allow[df-taint-telemetry] -- fixture justification\n",
    ),
    Fixture(
        # Monotonic clock stored into sim state through a local helper:
        # the summary pass carries the taint across the call edge.
        "df-taint-state", "dataflow", "positive", "repro.sim.demo",
        "import time\n\n\ndef _now():\n"
        "    return time.perf_counter()\n\n\n"
        "class Kernel:\n"
        "    def tick(self):\n"
        "        value = _now()\n"
        "        self.last_tick = value\n",
    ),
    Fixture(
        # Unseeded Random() object feeding a state store.
        "df-taint-state", "dataflow", "positive", "repro.noc.demo",
        "import random\n\n\nclass Router:\n"
        "    def shuffle(self):\n"
        "        rng = random.Random()\n"
        "        self.pick = rng.random()\n",
    ),
    Fixture(
        # The wall_s accounting idiom lives outside the simulation core
        # and stores into a compare=False result field: clean.
        "df-taint-state", "dataflow", "negative", "repro.experiments.demo",
        "import time\n\n\ndef run(result):\n"
        "    started = time.perf_counter()\n"
        "    result.wall_s = time.perf_counter() - started\n",
    ),
    Fixture(
        # A seeded RNG is a pure function of the spec: clean.
        "df-taint-state", "dataflow", "negative", "repro.noc.demo",
        "import random\n\n\nclass Router:\n"
        "    def shuffle(self, seed):\n"
        "        rng = random.Random(seed)\n"
        "        self.pick = rng.random()\n",
    ),
    Fixture(
        "df-taint-state", "dataflow", "suppressed", "repro.sim.demo",
        "import time\n\n\nclass Kernel:\n"
        "    def tick(self):\n"
        "        self.last_tick = time.monotonic()"
        "  # repro: allow[df-taint-state] -- fixture justification\n",
    ),
    Fixture(
        # id() seeding a CellSpec field forks the result cache per run.
        "df-taint-spec", "dataflow", "positive", "repro.experiments.demo",
        "from repro.experiments.runner import CellSpec\n\n\n"
        "def make(design):\n"
        "    return CellSpec(design=design, seed=id(design))\n",
    ),
    Fixture(
        # Wall clock flowing into a cache-fingerprint input.
        "df-taint-spec", "dataflow", "positive", "repro.experiments.demo",
        "import time\n\nfrom repro.experiments.cache import "
        "code_fingerprint\n\n\ndef stamp():\n"
        "    salt = str(time.time())\n"
        "    return code_fingerprint(salt)\n",
    ),
    Fixture(
        "df-taint-spec", "dataflow", "negative", "repro.experiments.demo",
        "from repro.experiments.runner import CellSpec\n\n\n"
        "def make(design, seed):\n"
        "    return CellSpec(design=design, seed=seed)\n",
    ),
    Fixture(
        "df-taint-spec", "dataflow", "suppressed", "repro.experiments.demo",
        "from repro.experiments.runner import CellSpec\n\n\n"
        "def make(design):\n"
        "    return CellSpec(design=design, seed=id(design))"
        "  # repro: allow[df-taint-spec] -- fixture justification\n",
    ),
    # -- telemetry-key catalog ------------------------------------------------
    Fixture(
        # One key, two kinds: the registry would raise at runtime only
        # if both sites ever met in one process.
        "cat-key-collision", "catalog", "positive", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits').inc(1)\n"
        "    registry.gauge('noc.demo.flits').set(2)\n",
    ),
    Fixture(
        "cat-key-collision", "catalog", "negative", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits').inc(1)\n"
        "    registry.gauge('noc.demo.depth').set(2)\n",
    ),
    Fixture(
        "cat-key-collision", "catalog", "suppressed", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits').inc(1)"
        "  # repro: allow[cat-key-collision] -- fixture justification\n"
        "    registry.gauge('noc.demo.flits').set(2)"
        "  # repro: allow[cat-key-collision] -- fixture justification\n",
    ),
    Fixture(
        # A one-site near-miss of an established multi-site key.
        "cat-key-typo", "catalog", "positive", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(1)\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(2)\n"
        "    registry.counter('noc.demo.flits_forwarder').inc(3)\n",
    ),
    Fixture(
        # Distinct keys more than one edit apart: clean.
        "cat-key-typo", "catalog", "negative", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(1)\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(2)\n"
        "    registry.counter('noc.demo.flits_ejected').inc(3)\n",
    ),
    Fixture(
        "cat-key-typo", "catalog", "suppressed", "repro.noc.demo",
        "def publish(registry):\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(1)\n"
        "    registry.counter('noc.demo.flits_forwarded').inc(2)\n"
        "    registry.counter('noc.demo.flits_forwarder').inc(3)"
        "  # repro: allow[cat-key-typo] -- fixture justification\n",
    ),
]


def fixtures_for(family: str) -> list[Fixture]:
    return [fixture for fixture in FIXTURES if fixture.family == family]


def labelled(fixtures: list[Fixture]) -> tuple[list[Fixture], list[str]]:
    """(fixtures, stable pytest ids): rule-kind, numbered within a rule."""
    counts: dict[tuple[str, str], int] = {}
    ids = []
    for fixture in fixtures:
        key = (fixture.rule, fixture.kind)
        counts[key] = counts.get(key, 0) + 1
        ids.append(f"{fixture.rule}-{fixture.kind}-{counts[key]}")
    return fixtures, ids
