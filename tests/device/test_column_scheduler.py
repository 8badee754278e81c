"""The scheduler law has one meaning: ``ColumnScheduler`` against
``MultiTenantScheduler``.

Hypothesis drives the column scheduler — one row, and several rows a
batch at a time — and one ``MultiTenantScheduler`` per row with the same
operation sequence: check-ins (every membership enqueued, the next
session started, then kept or aborted as a Selector's verdict would),
the scalar ``enqueue`` / ``try_start`` / ``finish`` / ``abort`` /
``remove`` the session path calls, and enrolling in, leaving and
re-enrolling in tenants through ``enroll`` / ``leave`` — the lifecycle
plane's column writes.  After every step each row's pick, running
session, queued set, depth, queue order and memberships must agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference.scheduler import MultiTenantScheduler
from repro.device.scheduler import SCHEDULER_POLICIES, ColumnScheduler, RowScheduler

TENANTS = ("a", "b", "c", "d")


def operations(rows: int):
    row = st.integers(0, rows - 1)
    tenant = st.sampled_from(TENANTS)
    return st.lists(
        st.one_of(
            # A sweep: distinct rows, each with the Selector's verdict.
            st.tuples(
                st.just("checkin"),
                st.lists(
                    st.tuples(row, st.booleans()),
                    min_size=1, max_size=rows, unique_by=lambda pair: pair[0],
                ),
            ),
            st.tuples(
                st.sampled_from(("enqueue", "remove", "enroll", "leave")), row, tenant
            ),
            st.tuples(st.sampled_from(("try_start", "finish", "abort")), row),
        ),
        max_size=50,
    )


class Pair:
    """One fleet of rows under both schedulers."""

    def __init__(self, policy: str, rows: int):
        # Start narrower than the fleet so rows (and slots) grow on the way.
        self.columns = ColumnScheduler(policy, rows=1)
        self.columns.grow(rows)
        self.views = [RowScheduler(self.columns, r) for r in range(rows)]
        self.references = [MultiTenantScheduler(policy) for _ in range(rows)]
        self.memberships: list[tuple[str, ...]] = [() for _ in range(rows)]

    def checkin(self, verdicts):
        """The plane's dispatch: rows that can start a session go through
        the batch, members with a busy worker file their requests as one
        more and start nothing, a row with no tenant wants nothing."""
        verdicts = sorted(verdicts)
        members = [(r, admit) for r, admit in verdicts if self.memberships[r]]
        batch = [(r, admit) for r, admit in members if self.views[r].running is None]
        busy = [r for r, _ in members if self.views[r].running is not None]
        picks = {}
        if batch:
            rows = np.array([r for r, _ in batch])
            slots = self.columns.checkin(rows)
            bounced = np.array([not admit for _, admit in batch])
            self.columns.abort_rows(rows[bounced])
            picks = {
                r: self.columns.tenants[slot] for r, slot in zip(rows.tolist(), slots.tolist())
            }
        for r, admit in verdicts:
            reference = self.references[r]
            for name in self.memberships[r]:
                reference.enqueue(name)
            if r in picks:
                assert reference.try_start() == picks[r]
                if not admit:
                    reference.abort()
        if busy:
            self.columns.enqueue_rows(np.array(busy))

    def apply(self, op):
        kind, *args = op
        if kind == "checkin":
            self.checkin(args[0])
            return
        r = args[0]
        view, reference = self.views[r], self.references[r]
        if kind in ("enqueue", "remove"):
            assert getattr(view, kind)(args[1]) == getattr(reference, kind)(args[1])
        elif kind == "try_start":
            assert view.try_start() == reference.try_start()
        elif kind == "abort":
            assert view.abort() == reference.abort()
        elif kind == "finish":
            if reference.running is None:
                with pytest.raises(RuntimeError):
                    view.finish("a")
            else:
                view.finish(reference.running)
                reference.finish(reference.running)
        elif kind == "enroll":
            if args[1] not in self.memberships[r]:
                self.memberships[r] = (*self.memberships[r], args[1])
                self.columns.enroll(np.array([r]), args[1])
        elif kind == "leave":
            # A drain's first phase: the queued request goes with the
            # membership, a running session and the recency record stay.
            reference.remove(args[1])
            self.memberships[r] = tuple(
                name for name in self.memberships[r] if name != args[1]
            )
            self.columns.leave(np.array([r]), args[1])

    def check(self):
        for view, reference, memberships in zip(
            self.views, self.references, self.memberships
        ):
            assert view.memberships == memberships
            assert view.running == reference.running
            assert view.queue == list(reference._queue)
            assert view.queue_depth == reference.queue_depth
            for name in TENANTS:
                assert view.is_queued(name) == reference.is_queued(name)


@pytest.mark.parametrize("rows", (1, 4))
@pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_column_scheduler_follows_the_scalar_law(policy, rows, data):
    pair = Pair(policy, rows)
    for op in data.draw(operations(rows)):
        pair.apply(op)
        pair.check()


def test_fair_share_recency_survives_a_drain_and_reattach():
    """A tenant that leaves and comes back is not laundered into
    never-started priority: its slot — and its last start — is kept."""
    pair = Pair("fair_share", 1)
    for op in (
        ("enroll", 0, "a"), ("enroll", 0, "b"),
        ("checkin", [(0, False)]),   # a starts (never-started, first)
        ("leave", 0, "a"), ("enroll", 0, "a"),   # a re-attaches, now last
        ("checkin", [(0, False)]),   # b: never started, although a is ahead in no queue
        ("checkin", [(0, False)]),   # a again only now
    ):
        pair.apply(op)
        pair.check()
    assert pair.columns.tenants == ["a", "b"]
    assert pair.memberships[0] == ("b", "a")


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="policy must be one of"):
        ColumnScheduler("lottery")
