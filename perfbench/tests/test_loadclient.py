"""Open- and closed-loop accounting on a fake clock (one connection, so
the schedule is deterministic)."""

import pytest

import loadclient
from loadclient import Outcome


class FakeTime:
    """A clock that only moves when the client sleeps or a request runs."""

    def __init__(self, service):
        self.now = 100.0
        self.service = service
        self.sent = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds

    def send(self, index):
        self.sent.append((index, self.now))
        self.now += self.service(index)
        return Outcome(200, outputs=[[0.0]])


def test_open_loop_times_latency_from_the_due_time():
    # 10 requests/s for 1 s; request 2 stalls for 0.35 s, so requests 3
    # and 4 go out late and their wait counts in their latency.
    fake = FakeTime(lambda i: 0.35 if i == 2 else 0.01)
    phase = loadclient.open_loop(fake.send, rate=10.0, duration=1.0, connections=1,
                                 clock=fake.clock, sleep=fake.sleep)
    assert [r.index for r in phase.records] == list(range(10))
    due = [100.0 + i / 10.0 for i in range(10)]
    assert [r.due for r in phase.records] == pytest.approx(due)
    sent = dict(fake.sent)
    assert sent[3] == pytest.approx(100.55)  # 0.25 late: behind request 2
    assert sent[4] == pytest.approx(100.56)
    assert sent[6] == pytest.approx(100.6)   # back on schedule
    late = [r.late for r in phase.records]
    assert late[:3] == pytest.approx([0.0, 0.0, 0.0])
    assert late[3:7] == pytest.approx([0.25, 0.16, 0.07, 0.0])
    assert phase.records[3].latency == pytest.approx(0.26)
    assert phase.records[2].latency == pytest.approx(0.35)
    assert phase.records[9].latency == pytest.approx(0.01)
    assert phase.elapsed == pytest.approx(0.91)


def test_closed_loop_sends_back_to_back_and_keeps_global_indices():
    fake = FakeTime(lambda i: 0.002 * (i + 1))
    phase = loadclient.closed_loop(fake.send, requests=3, connections=1, first=40,
                                   clock=fake.clock, sleep=fake.sleep)
    assert [r.index for r in phase.records] == [40, 41, 42]
    assert [r.late for r in phase.records] == [0.0, 0.0, 0.0]
    assert [r.latency for r in phase.records] == pytest.approx([0.082, 0.084, 0.086])
    assert phase.elapsed == pytest.approx(0.252)


def test_failed_outcomes_are_not_ok():
    assert not Outcome(503, error="shed").ok
    assert not Outcome(0, error="refused").ok
    assert not Outcome(200).ok
    assert Outcome(200, outputs=[[1.0]]).ok


def test_an_error_in_the_sender_propagates():
    def broken(index):
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        loadclient.closed_loop(broken, requests=2, connections=2)
