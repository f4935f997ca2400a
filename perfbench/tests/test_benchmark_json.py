import json
import os

import payloads
import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def test_benchmark_json_names_what_run_py_reports():
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(payloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
