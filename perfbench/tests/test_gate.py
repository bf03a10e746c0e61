"""The correctness gate rejects a result that differs in a single byte."""

from types import SimpleNamespace

import pytest

from perfbench.common import Outcome, first_mismatch
from perfbench.loadgen import Request, Result
from perfbench.serve_mixed import Checker, Plan, calibration_spec, _simulate


def _tiny_job(seed=1):
    from repro.parallel import SimulationJob

    return SimulationJob(n_nodes=4, tp=20.0, tc=0.3, tr=0.1, seed=seed, horizon=2000.0)


def _payload(job):
    from repro.parallel import run_job
    from repro.serve import simulation_payload

    return simulation_payload(job, run_job(job))


def _flip(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1:]


def test_identical_bytes_pass():
    body = _payload(_tiny_job())
    assert first_mismatch(body, bytes(body)) is None


@pytest.mark.parametrize("where", [0, "middle", -1])
def test_one_perturbed_byte_is_found(where):
    body = _payload(_tiny_job())
    offset = {0: 0, "middle": len(body) // 2, -1: len(body) - 1}[where]
    assert first_mismatch(body, _flip(body, offset)) == offset


def test_truncated_or_extended_body_fails():
    body = _payload(_tiny_job())
    assert first_mismatch(body, body[:-1]) == len(body) - 1
    assert first_mismatch(body, body + b" ") == len(body)


@pytest.fixture(scope="module")
def checker(tmp_path_factory):
    from repro.parallel import ResultCache
    from repro.predict import build_table

    root = tmp_path_factory.mktemp("gate")
    table = build_table(calibration_spec(), ResultCache(root / "cache"), checkpoint_root=root / "j")
    server = SimpleNamespace(table=table, warm_jobs=[_tiny_job(1), _tiny_job(2)])
    return Checker(server)


def _answer(request: Request, body: bytes, status: int = 200) -> Result:
    return Result(request, 0.0, 0.0, 0.001, status, body)


def test_served_simulate_bodies_are_gated_byte_for_byte(checker):
    plan = Plan(seed=5)
    warm = _simulate(checker.server.warm_jobs[1], "warm", 1)
    good = checker.warm(1)
    out = Outcome()
    checker.check(out, plan, [_answer(warm, good)])
    assert out.failed == 0 and not out.problems
    out = Outcome()
    checker.check(out, plan, [_answer(warm, good), _answer(warm, _flip(good, len(good) // 3))])
    assert out.failed == 1 and out.problems


def test_predict_answers_are_gated_against_resolve(checker):
    plan = Plan(seed=5)
    request = plan.predict_request({"n_nodes": 11, "tp": 20.0, "tc": 0.3, "tr": 0.07})
    good = checker.predict(plan.queries[0])
    assert good.startswith(b'{"predict":')
    out = Outcome()
    checker.check(out, plan, [_answer(request, good)])
    assert out.failed == 0
    out = Outcome()
    checker.check(out, plan, [_answer(request, _flip(good, 5))])
    assert out.failed == 1


def test_a_shed_request_counts_as_failed(checker):
    plan = Plan(seed=5)
    warm = _simulate(checker.server.warm_jobs[0], "warm", 0)
    out = Outcome()
    checker.check(out, plan, [_answer(warm, checker.warm(0), status=429)])
    assert out.failed == 1
