"""Fixture snippets for the static-analysis rules.

Each fixture is one small source module plus the verdict the analyzer
must reach on it:

* ``positive`` -- the snippet violates the rule and must be flagged;
* ``negative`` -- the snippet is idiomatic/clean and must not be.

The violating code lives only inside string literals, so the analyzer's
CI sweep over ``tests/`` never sees it as real source.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Fixture:
    rule: str
    family: str
    kind: str  # "positive" | "negative"
    module: str | None
    source: str


FIXTURES = [
    # -- determinism -----------------------------------------------------
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
        # ... but inside the core the only clock is the simulated cycle.
        "det-wallclock", "determinism", "positive", "repro.sim.demo",
        "import time\n\nstarted = time.perf_counter()\n",
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
        # numpy reductions over set expressions accumulate in hash order
        # just like builtin sum.
        "det-unordered-reduce", "determinism", "positive", "repro.noc.demo",
        "import numpy as np\n\n\ndef total(latencies):\n"
        "    return np.sum({lat for lat in latencies})\n",
    ),
    # -- process-safety --------------------------------------------------
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
    # -- exceptions ------------------------------------------------------
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
