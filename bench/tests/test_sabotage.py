"""A sabotaged observation must trip the matching correctness check and
raise the failed count: one response removed, one duplicate frame, one
flipped digest.  What the stack as it stands does on its own under faults (a
discarded update, a seed with an oracle violation) is reported, not counted
as failed."""

from types import SimpleNamespace

from bench.outcome import Outcome
from bench.requests import AnswerTally
from bench.verify import answer_checks
from bench.workloads import sim_chaos, vod_fanout


def _message(index, based_on=0):
    return SimpleNamespace(
        index=index, based_on_update=based_on, body=("frame", vod_fanout.UNIT, index)
    )


def _clean_log(frames=48, skip_at=24):
    """One session: ``skip_at`` frames of region 0, then skip 1 takes effect."""
    log = vod_fanout.FrameLog()
    for k in range(frames):
        if k < skip_at:
            log.add(k * vod_fanout.PERIOD, _message(k, 0))
        else:
            log.add(k * vod_fanout.PERIOD, _message(vod_fanout.REGION + k - skip_at, 1))
    return log


def test_clean_observations_pass():
    out = Outcome("rr_ladder")
    answer_checks(out, AnswerTally(attempted=100, outstanding=0, responses=100,
                                   updates_sent=100), exact=True)
    assert out.correct and out.failed == 0 and out.attempted == 100

    out = Outcome("vod_fanout")
    vod_fanout.judge_frames(out, {"s": _clean_log()})
    assert out.correct and out.failed == 0 and out.attempted == 48

    out = Outcome("sim_chaos")
    sim_chaos.judge_seeds(out, seeds=8, violating=0, first="ab", repeat="ab")
    assert out.correct and out.failed == 0


def test_one_response_removed():
    out = Outcome("rr_ladder")
    answer_checks(out, AnswerTally(attempted=100, outstanding=0, responses=99,
                                   updates_sent=100), exact=True)
    assert out.checks["one_response_per_update"] is False
    assert not out.correct and out.failed == 1


def test_one_request_never_answered():
    out = Outcome("failover_cycle")
    answer_checks(out, AnswerTally(attempted=100, outstanding=1, responses=120,
                                   updates_sent=101), exact=False)
    assert out.checks["every_request_answered"] is False
    assert not out.correct and out.failed == 1


def test_one_update_never_applied():
    """The stack dropped an update the client sent, and a later response's
    counter covers it: reported, not a failed operation."""
    out = Outcome("failover_cycle")
    answer_checks(out, AnswerTally(attempted=100, outstanding=0, responses=120,
                                   updates_sent=101, never_applied=1), exact=False)
    assert out.info["updates_never_applied"] == 1
    assert out.failed == 0 and out.correct


def test_one_wrong_digest():
    out = Outcome("rr_ladder")
    answer_checks(out, AnswerTally(attempted=100, outstanding=0, responses=100,
                                   updates_sent=100, wrong_answers=1), exact=True)
    assert out.checks["answers_match_generator_digest"] is False and not out.correct


def test_one_duplicate_frame():
    log = _clean_log()
    log.add(48 * vod_fanout.PERIOD, _message(vod_fanout.REGION + 3, 1))
    out = Outcome("vod_fanout")
    vod_fanout.judge_frames(out, {"s": log})
    assert out.checks["no_duplicate_frame"] is False and not out.correct


def test_one_missing_frame():
    log = vod_fanout.FrameLog()
    for k in (0, 1, 2, 4, 5):
        log.add(k * vod_fanout.PERIOD, _message(k))
    out = Outcome("vod_fanout")
    vod_fanout.judge_frames(out, {"s": log})
    assert out.checks["no_missing_frame"] is False
    assert out.failed == 1 and out.attempted == 6 and not out.correct


def test_one_flipped_digest():
    out = Outcome("sim_chaos")
    sim_chaos.judge_seeds(out, seeds=8, violating=0, first="ab", repeat="ac")
    assert out.checks["repeated_seed_digest_matches"] is False and not out.correct
    assert out.failed == 1 and out.attempted == 8


def test_one_seed_with_an_oracle_violation():
    """Lowers ``clean_seed_share``; the run itself stays a measurement."""
    out = Outcome("sim_chaos")
    sim_chaos.judge_seeds(out, seeds=8, violating=1, first="ab", repeat="ab")
    assert out.metrics["clean_seed_share"]["value"] == 7 / 8
    assert out.failed == 0 and out.attempted == 8 and out.correct
