"""The reference checker: expected outputs computed apart from the program.

Everything here works from the vector clocks the generator computed for its
own inputs (see ``gen.py`` for the clock and position conventions), never
from the program's code or saved output.
"""


def eliminate(cands, clocks, start):
    """Candidate elimination over per-process candidate lists.

    ``cands[p]`` lists positions on process ``p`` (ascending) where its
    clauses hold; ``start[p]`` is the index of the first live candidate. A
    head is dropped once its successor happened before another head, since
    no consistent cut can then have it as its frontier. Returns the indices
    of the surviving, mutually consistent heads, or ``None`` if some list
    runs dry.
    """
    idx = dict(start)
    procs = list(cands)
    while True:
        for p in procs:
            if idx[p] >= len(cands[p]):
                return None
        popped = False
        for p in procs:
            clock_p = clocks[p][cands[p][idx[p]]]
            for q in procs:
                if q != p and clock_p[q] > cands[q][idx[q]]:
                    idx[q] += 1
                    popped = True
                    break
            if popped:
                break
        if not popped:
            return idx


def join_cut(heads, clocks, procs):
    """The least cut holding every ``(process, position)`` in ``heads``, as
    counts (the initial event counts as one)."""
    cut = [1] * procs
    for p, pos in heads:
        for q, h in enumerate(clocks[p][pos]):
            cut[q] = max(cut[q], h + 1)
    return cut


def serve_alarms(w):
    """Expected alarm of each churned tenant of a ``ServeWorkload``.

    A tenant added after ``E`` events watches from the join frontier: on
    each watched process its candidates are the frontier event (if it
    satisfies the clause) and later events, up to the last event observed
    before the tenant is removed. Returns ``{tenant: cut}``; the generator's
    thresholds make every churned tenant fire, and a tenant that would not
    is a generator fault.
    """
    s = w.stream
    # frontier[e][p]: the position on p after the first e events.
    marks = sorted({e for _, _, added, removed in w.churn for e in (added, removed)})
    frontier = {}
    pos = [0] * s.procs
    order = iter(s.order)
    seen = 0
    for e in marks:
        while seen < e:
            p, k = next(order)
            pos[p] = k
            seen += 1
        frontier[e] = list(pos)
    alarms = {}
    for cid, watched, added, removed in w.churn:
        cands = {
            p: [
                k
                for k in range(frontier[added][p], frontier[removed][p] + 1)
                if s.values[p][k]["v"] >= threshold
            ]
            for p, threshold in watched.items()
        }
        heads = eliminate(cands, s.clocks, {p: 0 for p in cands})
        if heads is None:
            raise RuntimeError(f"generator fault: churned tenant {cid} never fires")
        alarms[cid] = join_cut(
            [(p, cands[p][i]) for p, i in heads.items()], s.clocks, s.procs
        )
    return alarms


def monitor_instances(w):
    """Expected alarm of each planted instance of a ``MonitorWorkload``, as
    a monitor that acknowledges every alarm would report them: after each
    alarm every watched head moves one candidate on.

    Returns one cut per planted instance, in order; an instance that no
    alarm would witness is a generator fault.
    """
    s = w.stream
    cands = {
        p: [k for k in range(1, len(s.clocks[p])) if holds(s.values[p][k])]
        for p, holds in w.clauses.items()
    }
    p3 = w.plant_process
    start = {p: 0 for p in cands}
    cuts = []
    for planted in w.planted:
        heads = eliminate(cands, s.clocks, start)
        if heads is None or cands[p3][heads[p3]] != planted:
            raise RuntimeError(f"generator fault: planted event {planted} has no alarm")
        cuts.append(join_cut([(p, cands[p][i]) for p, i in heads.items()], s.clocks, s.procs))
        start = {p: i + 1 for p, i in heads.items()}
    return cuts


def consistent(cut, clocks):
    """Whether a cut (counts) is consistent: no frontier event depends on an
    event outside the cut."""
    return all(
        h < cut[q]
        for p, c in enumerate(cut)
        for q, h in enumerate(clocks[p][c - 1])
    )


def validate_witness(w, cut):
    """Checks a ``detect`` witness for a ``DetectWorkload``: the cut is
    consistent, the predicate holds there, and the planted event is in it.
    Returns the reason it fails, or ``None``."""
    s = w.stream
    if len(cut) != s.procs or any(
        not 1 <= c <= len(s.clocks[p]) for p, c in enumerate(cut)
    ):
        return f"witness {cut} is not a cut of the trace"
    if not consistent(cut, s.clocks):
        return f"witness {cut} is not consistent"
    if not w.holds(cut):
        return f"predicate does not hold at witness {cut}"
    p, pos = w.planted
    if cut[p] <= pos:
        return f"witness {cut} misses the planted event {w.planted}"
    return None
