"""Seeded input generators for the three benchmark workloads.

Every generator returns the exact text the program receives plus what the
reference checker needs: the vector clock of every event, the stream order
of events, and the planted or churned structure. The program never sees the
seed, only the generated text.

Positions follow the trace format: event positions on a process start at 1,
position 0 is the fictitious initial event. A vector clock ``vc`` of event
``(p, k)`` holds, per process ``q``, the highest position on ``q`` in the
event's causal past (``vc[p] == k``); the initial events have all-zero
clocks. The cut notation the program prints counts events including the
initial one, so a clock entry ``h`` is the count ``h + 1``.
"""

import random
from collections import deque

PROCS = 8

# serve-mixed
SERVE_EVENTS = 400_000
SERVE_POOL = 64  # distinct standing predicates
SERVE_TENANTS = 256  # standing tenants drawn from the pool
CHURN_EVERY = 4096  # one churned tenant added per this many events ...
CHURN_LIFE = 2048  # ... and removed this many events later

# monitor-faults
MONITOR_EVENTS = 120_000
MONITOR_PLANTS = 8  # K planted fault instances, evenly spaced
MONITOR_WATCHED = (1, 4, 6)  # v@1, v@4 hold on half the events; f@6 is planted

# detect-slice
DETECT_SUPERSTEPS = 1000
DETECT_STEP_EVENTS = 3  # local events per process per superstep ...
DETECT_STEP_TRUE = 1  # ... of which this many, or one more, satisfy a@p >= 1

# Probability that an event that could receive does receive, and that an
# event that does not receive sends. Gives about 17% msg lines.
RECV_PROB = 0.5
SEND_PROB = 0.26


class Stream:
    """A stream of trace lines, in order, plus its causality.

    ``order[i]`` is the ``(process, position)`` of the ``i``-th event in
    stream order; ``clocks[p][k]`` is the vector clock of ``(p, k)``;
    ``values[p][k]`` is the dict of variable values at ``(p, k)`` after its
    writes (position 0 holds the initial values).
    """

    def __init__(self, procs, initial):
        self.procs = procs
        self.body = []
        self.order = []
        self.clocks = [[(0,) * procs] for _ in range(procs)]
        self.values = [[dict(initial)] for _ in range(procs)]
        self.messages = 0
        self.inbox = [deque() for _ in range(procs)]

    def event(self, rng, p, writes, allow_msg=True, recv=None):
        """Appends one event on ``p`` writing ``writes``.

        By default the event may receive the oldest message pending for
        ``p`` or send one to a random other process. ``allow_msg=False``
        makes it local, apart from an explicit ``recv`` (the ``(process,
        position)`` of its send). The ``msg`` line of a receive is written
        immediately before the event line.
        """
        pos = len(self.clocks[p])
        clock = list(self.clocks[p][-1])
        clock[p] = pos
        if recv is None and allow_msg and self.inbox[p] and rng.random() < RECV_PROB:
            recv = self.inbox[p].popleft()
        elif allow_msg and rng.random() < SEND_PROB:
            q = rng.randrange(self.procs - 1)
            self.inbox[q + (q >= p)].append((p, pos))
        if recv is not None:
            sp, spos = recv
            clock = [max(a, b) for a, b in zip(clock, self.clocks[sp][spos])]
            self.body.append(f"msg {sp} {spos} {p} {pos}")
            self.messages += 1
        self.clocks[p].append(tuple(clock))
        vals = dict(self.values[p][-1])
        vals.update(writes)
        self.values[p].append(vals)
        self.order.append((p, pos))
        self.body.append(
            f"event {p} " + " ".join(f"{k}={v}" for k, v in writes.items())
        )

    def header(self):
        lines = [f"procs {self.procs}"]
        for p in range(self.procs):
            for name, init in self.values[p][0].items():
                lines.append(f"var {p} {name} {init}")
        return lines


class ServeWorkload:
    """``slicing serve`` over a piped stream with standing and churned tenants."""

    def __init__(self, seed):
        events = SERVE_EVENTS
        rng = random.Random(f"serve-{seed}")
        s = Stream(PROCS, {"v": 0})
        pool = []
        while len(pool) < SERVE_POOL:
            p, q = sorted(rng.sample(range(PROCS), 2))
            # Values 100..199: the stream only ever writes 0..9.
            expr = f"v@{p} == {rng.randrange(100, 200)} && v@{q} == {rng.randrange(100, 200)}"
            if expr not in pool:
                pool.append(expr)
        self.standing = [
            (f"s{i:03d}", rng.choice(pool)) for i in range(SERVE_TENANTS)
        ]
        # A churned tenant: (id, watched {p: threshold}, added after N
        # events, removed after M events).
        self.churn = []
        directives = {}  # event count -> lines emitted after that many events
        for added in range(CHURN_EVERY // 2, events - CHURN_LIFE, CHURN_EVERY):
            p, q = sorted(rng.sample(range(PROCS), 2))
            tp, tq = rng.randrange(2, 7), rng.randrange(2, 7)
            cid = f"c{len(self.churn):03d}"
            expr = f"v@{p} >= {tp} && v@{q} >= {tq}"
            self.churn.append((cid, {p: tp, q: tq}, added, added + CHURN_LIFE))
            directives.setdefault(added, []).append(f"tenant {cid} {expr}")
            directives.setdefault(added + CHURN_LIFE, []).append(f"untenant {cid}")
        for i in range(events):
            s.body.extend(directives.get(i, ()))
            p = rng.randrange(PROCS)
            s.event(rng, p, {"v": rng.randrange(10)})
        self.stream = s
        self.events = events
        self.text = "\n".join(s.header() + s.body) + "\n"
        # The same stream with every event and message line removed: the
        # fixed cost before the first event.
        self.setup_text = (
            "\n".join(
                s.header()
                + [line for line in s.body if not line.startswith(("event", "msg"))]
            )
            + "\n"
        )


class MonitorWorkload:
    """``slicing monitor`` over a trace with K planted fault instances."""

    def __init__(self, seed):
        events, plants = MONITOR_EVENTS, MONITOR_PLANTS
        rng = random.Random(f"monitor-{seed}")
        s = Stream(PROCS, {"v": 0, "f": 0})
        p1, p2, p3 = MONITOR_WATCHED
        self.predicate = f"v@{p1} >= 5 && v@{p2} >= 5 && f@{p3} == 1"
        self.clauses = {
            p1: lambda vals: vals["v"] >= 5,
            p2: lambda vals: vals["v"] >= 5,
            p3: lambda vals: vals["f"] == 1,
        }
        spacing = events // plants
        plant_at = {spacing // 2 + k * spacing for k in range(plants)}
        # Right before each planted event, processes p1 and p2 write a value
        # that satisfies their clauses. The three events' successors all come
        # later in the stream, so none of them happens before another of the
        # three: they form a consistent frontier, and every instance can
        # alarm on every seed. Without them, a planted event can have no
        # satisfying event on p1 or p2 concurrent with it (seeds 40 and 83 of
        # 1-200).
        ready = {i - d: q for i in plant_at for d, q in ((2, p1), (1, p2))}
        self.plant_process = p3
        self.planted = []  # positions on p3 of the planted events
        reset = False
        for i in range(events):
            if i in plant_at:
                p = p3
            else:
                p = ready.get(i, rng.randrange(PROCS))
            writes = {"v": rng.randrange(5, 10) if i in ready else rng.randrange(10)}
            if i in plant_at:
                writes["f"] = 1
                reset = True
                self.planted.append(len(s.clocks[p3]))
            elif p == p3 and reset:
                writes["f"] = 0
                reset = False
            s.event(rng, p, writes)
        self.stream = s
        self.events = events
        self.text = "\n".join(s.header() + s.body) + "\n"
        self.setup_text = "\n".join(s.header()) + "\n"


class DetectWorkload:
    """``slicing detect --engine slice``: local clauses on every process plus
    a 2-local term whose slice is over-approximated.

    The trace runs in bulk-synchronous supersteps. In each, every process
    makes ``step_events`` local events, interleaved at random, and then all
    of them meet at a barrier through process 0 (every process reports to
    it, it answers everyone). Barriers pinch the lattice, so the number of
    consistent cuts is a sum over supersteps, and each superstep's share
    depends only on how many of its events satisfy the local clauses. On
    processes 2 and up that is ``DETECT_STEP_TRUE`` or one more event,
    alternating by process and superstep, at random positions; so the
    search does the same work for every seed while the events, their order
    and their values differ.

    ``b`` is a phase bit that flips on every event of processes 0 and 1,
    and ``a@0``/``a@1`` hold exactly where the phase bit is 1, so every cut
    that satisfies the local clauses has ``b@0 == b@1``. The 2-local term
    ``b@0 != b@1`` holds on about half of all cuts, so the smallest
    sublattice holding them is nearly the whole lattice and the slice keeps
    every cut of the local clauses. A planted block near the end, one local
    event per process, has every local clause hold and process 0 write
    ``b=0`` against process 1's ``b=1``: the full predicate holds only at
    cuts through it, and the search visits most of the slice first.
    """

    def __init__(self, seed, supersteps=DETECT_SUPERSTEPS, step_events=DETECT_STEP_EVENTS):
        rng = random.Random(f"detect-{seed}")
        s = Stream(PROCS, {"a": 0, "b": 0})
        self.predicate = (
            " && ".join(f"a@{p} >= 1" for p in range(PROCS)) + " && b@0 != b@1"
        )

        def flip(p):
            bit = 1 - s.values[p][-1]["b"]
            return {"a": bit, "b": bit}

        def local(p, a):
            return flip(p) if p < 2 else {"a": a}

        for step in range(supersteps):
            slots = [p for p in range(PROCS) for _ in range(step_events)]
            rng.shuffle(slots)
            truth = {}
            for p in range(2, PROCS):
                k = DETECT_STEP_TRUE + (step + p) % 2
                truth[p] = [1] * k + [0] * (step_events - k)
                rng.shuffle(truth[p])
            for p in slots:
                s.event(rng, p, local(p, truth[p].pop() if p >= 2 else None), allow_msg=False)
            reports = []
            for q in range(1, PROCS):
                s.event(rng, q, local(q, 0), allow_msg=False)
                reports.append((q, len(s.clocks[q]) - 1))
            for sender in reports:
                s.event(rng, 0, flip(0), allow_msg=False, recv=sender)
            s.event(rng, 0, flip(0), allow_msg=False)
            answer = (0, len(s.clocks[0]) - 1)
            for q in range(1, PROCS):
                s.event(rng, q, local(q, 1), allow_msg=False, recv=answer)
        for p in reversed(range(PROCS)):
            if p == 0:
                self.planted = (0, len(s.clocks[0]))
            planted = {"a": 1, "b": 0 if p == 0 else 1} if p < 2 else {"a": 1}
            s.event(rng, p, planted, allow_msg=False)
        self.stream = s
        self.events = len(s.order)
        self.text = "\n".join(s.header() + s.body) + "\n"
        self.setup_text = "\n".join(s.header()) + "\n"

    def holds(self, cut):
        """Evaluates the predicate at a cut given as counts."""
        vals = [self.stream.values[p][cut[p] - 1] for p in range(PROCS)]
        return all(v["a"] >= 1 for v in vals) and vals[0]["b"] != vals[1]["b"]
