"""Golden pins: the R1-R9 report bytes and two plan serializations.

Refactors must leave these byte for byte unchanged; a change that moves
them on purpose updates the digests here and says why.
"""

import hashlib

from flip import harness, planner
from flip.dsl import parse_request

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)

SUMMARY_SEED0_SHA256 = "af07ea63279c4e84605fe179b5152d29223162b4d3f4e97db74f4659ffc14287"
EQ1_DEMO_PLAN_SHA256 = "b8ae1d6f410ebba9ed27d249d31bcd953c6a51dac684290df5e67ecb4a2eab12"
R9_EXPERIMENT_PLAN_SHA256 = "76571f65e4efab077b802e8e8e01c28711a3b885cb065b0debcda1e0ae59b97a"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_summary_json_seed0_bytes(tmp_path):
    paths = harness.export_report(harness.run_suite(seed=0), tmp_path)
    assert _sha256(paths["summary"].read_bytes()) == SUMMARY_SEED0_SHA256


def test_eq1_demo_plan_bytes():
    plan = planner.plan(parse_request(EQ1), harness.demo_topology())
    assert _sha256(plan.to_json().encode()) == EQ1_DEMO_PLAN_SHA256


def test_r9_experiment_plan_bytes():
    r9 = harness.requests_r1_r9()[8]
    plan = planner.plan(r9, harness.build_experiment_topology())
    assert _sha256(plan.to_json().encode()) == R9_EXPERIMENT_PLAN_SHA256
