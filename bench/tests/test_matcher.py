"""The latency matcher against an index-shifted takeover log.

After a takeover the successor's response *indices* restart from its own
context; a matcher keyed on the index reads a constant phantom backlog (the
prototype saw a flat 400 ms).  The matcher must key on ``based_on_update``.
"""

import random

from bench.loadgen import SessionMatcher, poisson_arrivals


def test_takeover_shifts_indices_but_not_matching():
    matcher = SessionMatcher()
    # ten requests, one every 10 ms
    for counter in range(1, 11):
        matcher.sent(counter, due=counter * 0.010)
    latencies = []
    # the first primary answers 1..4 promptly: index == counter
    for counter in range(1, 5):
        latencies += matcher.response(based_on_update=counter, now=counter * 0.010 + 0.002)
    # it dies; requests 5..7 are applied by the backup and never answered
    # one by one.  The successor's first response carries index 2 (its own
    # count restarted) but reflects update 7.
    done = matcher.response(based_on_update=7, now=0.100)
    assert [round(latency, 3) for _tag, latency in done] == [0.050, 0.040, 0.030]
    latencies += done
    # from here its indices stay shifted by five; matching is unaffected
    for counter in range(8, 11):
        latencies += matcher.response(based_on_update=counter, now=counter * 0.010 + 0.002)
    assert len(latencies) == 10
    assert matcher.outstanding == 0
    steady = [latency for _tag, latency in latencies[:4] + latencies[7:]]
    assert all(abs(latency - 0.002) < 1e-9 for latency in steady)


def test_index_keyed_matching_would_read_a_phantom_backlog():
    """The bug the issue names, reproduced: match on index and the shifted
    successor never 'answers' the newest requests."""
    sent = {counter: counter * 0.010 for counter in range(1, 11)}
    # successor answers update c with index c - 5
    by_index = {counter - 5: counter * 0.010 + 0.002 for counter in range(8, 11)}
    answered_by_index = [index for index in by_index if index in sent]
    assert max(answered_by_index) == 5  # requests 6..10 look unanswered forever

    matcher = SessionMatcher()
    for counter, due in sent.items():
        matcher.sent(counter, due)
    for counter in range(8, 11):
        matcher.response(based_on_update=counter, now=counter * 0.010 + 0.002)
    assert matcher.outstanding == 0


def test_stale_and_duplicate_responses_complete_nothing():
    matcher = SessionMatcher()
    matcher.sent(1, 0.0, tag=3)
    matcher.sent(2, 0.1, tag=3)
    assert matcher.response(based_on_update=0, now=0.05) == []
    assert matcher.response(based_on_update=1, now=0.06) == [(3, 0.06)]
    assert matcher.response(based_on_update=1, now=0.07) == []  # a re-answer
    assert matcher.outstanding == 1
    assert matcher.unanswered() == [(2, 0.1, 3)]


def test_poisson_arrivals_repeat_with_the_seed_and_fit_the_window():
    a = poisson_arrivals(random.Random(7), rate=500.0, start=2.0, duration=4.0)
    b = poisson_arrivals(random.Random(7), rate=500.0, start=2.0, duration=4.0)
    c = poisson_arrivals(random.Random(8), rate=500.0, start=2.0, duration=4.0)
    assert a == b and a != c
    assert all(2.0 <= t < 6.0 for t in a) and a == sorted(a)
    assert abs(len(a) - 2000) < 200
