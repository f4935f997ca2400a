import pytest

import payloads
import verify


@pytest.mark.parametrize("workload", payloads.WORKLOADS)
def test_same_seed_gives_identical_bytes(workload):
    first = payloads.dumps(payloads.make_jobs(workload, 7))
    second = payloads.dumps(payloads.make_jobs(workload, 7))
    assert first == second
    assert payloads.dumps(payloads.make_jobs(workload, 8)) != first


@pytest.mark.parametrize("workload", payloads.WORKLOADS)
def test_job_ids_are_stable_across_seeds(workload):
    ids = [j["id"] for j in payloads.make_jobs(workload, 1)]
    assert len(set(ids)) == len(ids)
    assert ids == [j["id"] for j in payloads.make_jobs(workload, 2)]


@pytest.mark.parametrize("workload", payloads.WORKLOADS)
def test_golden_digests_match_the_default_job_list(workload):
    jobs = payloads.make_jobs(workload, payloads.DEFAULT_SEED)
    golden = verify.load_golden(workload, payloads.dumps(jobs))
    assert set(golden) == {j["id"] for j in jobs}


def test_generated_codes_have_the_stated_size():
    for workload in payloads.WORKLOADS:
        for job in payloads.make_jobs(workload, 3):
            if "code_size" not in job["expect"]:
                continue
            argv = job["argv"]
            import json

            orders = tuple(json.loads(argv[argv.index("--group") + 1])["orders"])
            if "--copies" in argv:
                orders *= int(argv[argv.index("--copies") + 1])
            gens = json.loads(argv[argv.index("--code") + 1])["generators"]
            assert len(payloads.closure(orders, gens)) == job["expect"]["code_size"]


@pytest.mark.parametrize("kind", ["hamming", "lee", "urn5", "zero3"])
def test_partitions_cover_the_carrier(kind):
    import random

    for orders in [(12,), (2, 2, 2), (4, 6)]:
        blocks = payloads._partition(kind, orders, random.Random(0))
        verify._covers(blocks, list(orders), kind)
