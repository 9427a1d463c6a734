"""Show that the benchmark's checks catch bad outputs.

    python3 perfbench/selftest.py

Simulates R1 for a few epochs, then feeds the checks a tampered value, a
missing epoch, a duplicated epoch, a delivery to the wrong node, a tree
with a cycle and a fabric that drops packets. Each must count as failed;
the untouched outputs must not. Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import sys

from run import ROOT, import_flip

import_flip()

from flip.control import Session  # noqa: E402
from flip.dsl import DEFAULT_USER  # noqa: E402
from flip.topology import load_topology_file  # noqa: E402

import check  # noqa: E402
from refclock import RefClock, Series  # noqa: E402
from workloads import DESTINATION, link_delays, plan_ok, publish  # noqa: E402


def main() -> int:
    t = load_topology_file(ROOT / "data" / "experiment_topology.json")
    text = "max(avg(bs1:bs10),min(bs11:bs20))"
    expr = check.parse_expr(text)
    flows = [(DEFAULT_USER, expr, check.leaves(expr))]
    session = Session(t)
    result = session.execute("datapath_a", {"request": f"datapath_a({text},destination<-{DESTINATION})"})
    clock = RefClock()
    expected, _, _ = publish(session.fabric, flows, 5, "selftest", clock, Series())
    good = session.fabric.delivered

    def failed(records):
        return check.failed_values(expected, records, DESTINATION)

    tampered = copy.deepcopy(good)
    tampered[2]["payload"]["scalar"] += 1e-6
    wrong_node = copy.deepcopy(good)
    wrong_node[1]["node"] = "cloud"
    cyclic = copy.deepcopy(result.body)
    a, b, _ = cyclic["plan"]["tree"]["edges"][0]
    cyclic["plan"]["tree"]["edges"].append([b, a, t.link_delay(a, b)])

    dropping = Session(t)  # no rules installed: every packet is dropped
    publish(dropping.fabric, flows, 1, "selftest", clock, Series())

    cases = [
        ("untouched outputs pass", failed(good) == 0 and check.fabric_clean(session.fabric)),
        ("a tampered value fails", failed(tampered) == 1),
        ("a missing epoch fails", failed(good[:3] + good[4:]) == 1),
        ("a duplicated epoch fails", failed(good + good[:1]) == 1),
        ("a delivery to another node fails twice: missing and stray", failed(wrong_node) == 2),
        ("the plan's tree passes", plan_ok(result.body, expr, link_delays(t))),
        ("a tree with a cycle fails", not plan_ok(cyclic, expr, link_delays(t))),
        ("a delay bound below the worst path fails", not plan_ok(result.body, expr, link_delays(t), 1.0)),
        ("a fabric that drops fails", not check.fabric_clean(dropping.fabric)),
    ]
    for name, ok in cases:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in cases) else 1


if __name__ == "__main__":
    sys.exit(main())
