"""The benchmark's tracer still sees every stage of a call.

``perfbench/tracing.py`` wraps the module attributes through which the
layers call each other. A refactor that renames such an attribute, or calls
around it, loses that stage's span without any error, so one traced call in
a fresh interpreter checks that each stage still shows up where it should.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_CALL = """
import json, sys
import tracing
tracing.install()
from sparqlgate.manager import ApiManager
manager = ApiManager([sys.argv[1]])
url = "/api/v1/stats/10.3233?require=work&filter=n:>5&sort=desc(score)"
outcome, _, _ = manager.call(url, method="post")
assert outcome.status == 200, outcome.body
json.dump(tracing.SPANS, sys.stdout)
"""

# Every span one refined JSON call makes, loading included.
STAGES = {
    "config.load",
    "router.compile",
    "manager.call",
    "manager.find_api",
    "pipeline.execute",
    "router.match_path",
    "router.require_method",
    "router.extract_bindings",
    "router.coerce_binding",
    "pipeline.preprocess",
    "refine.plan",
    "client.substitute",
    "client.dispatch",
    "client.parse",
    "pipeline.postprocess",
    "refine.apply_plan",
    "refine.require",
    "refine.filter",
    "refine.sort",
    "refine.serialize_json",
    "docs.record",
}


def test_the_tracer_sees_every_stage_of_a_refined_call(conf_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", TRACED_CALL, conf_path],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    by_name = {
        name: (span_id, parent_id, counts)
        for _, span_id, parent_id, name, _, _, counts in json.loads(result.stdout)
    }
    assert STAGES - set(by_name) == set()
    # Routing is timed as part of the pipeline, not beside it.
    match_parent, counts = by_name["router.match_path"][1:]
    assert match_parent == by_name["pipeline.execute"][0]
    assert counts["routes_scanned"] == 3
    assert by_name["refine.filter"][2]["compare_calls"] > 0
    assert by_name["refine.sort"][2]["parses"] > 0
