"""Checks the reference checker against brute-force cut enumeration.

    python3 -m unittest discover -s clibench -p 'test_*.py'

Small random traces, built by the same generator code the benchmark uses,
have few enough consistent cuts to list them all. Consistency is judged
from the trace's ``msg`` lines alone, not from the generator's clocks.
"""

import itertools
import random
import re
import unittest

import gen
import reference


def small_trace(rng, procs, events):
    s = gen.Stream(procs, {"v": 0})
    for _ in range(events):
        p = rng.randrange(procs)
        s.event(rng, p, {"v": rng.randrange(3)})
    return s


def messages(s):
    return [tuple(map(int, re.findall(r"\d+", line))) for line in s.body if line.startswith("msg")]


def all_cuts(s):
    """Every consistent cut, as counts: a receive in the cut needs its send."""
    msgs = messages(s)
    for cut in itertools.product(*(range(1, len(c) + 1) for c in s.clocks)):
        if all(cut[rp] <= rpos or cut[sp] > spos for sp, spos, rp, rpos in msgs):
            yield list(cut)


def least(cuts):
    """The least of a set of cuts closed under meet, or None."""
    cuts = list(cuts)
    if not cuts:
        return None
    meet = [min(c[p] for c in cuts) for p in range(len(cuts[0]))]
    assert meet in cuts, "satisfying cuts of a conjunctive predicate are meet-closed"
    return meet


class ReferenceTest(unittest.TestCase):
    def test_consistency_matches_message_edges(self):
        rng = random.Random(1)
        for _ in range(40):
            s = small_trace(rng, 3, rng.randrange(4, 12))
            cuts = list(all_cuts(s))
            space = itertools.product(*(range(1, len(c) + 1) for c in s.clocks))
            self.assertEqual(
                [list(c) for c in space if reference.consistent(list(c), s.clocks)], cuts
            )

    def test_elimination_finds_least_satisfying_cut(self):
        """Join-frontier tenants (serve) and acknowledged alarm sequences
        (monitor) both reduce to: the least consistent cut whose frontier
        on each watched process is a candidate at or after a start."""
        rng = random.Random(2)
        checked = 0
        for _ in range(300):
            procs = rng.randrange(2, 5)
            s = small_trace(rng, procs, rng.randrange(3, 14))
            watched = rng.sample(range(procs), rng.randrange(1, procs + 1))
            target = {p: rng.randrange(3) for p in watched}
            cands = {
                p: [k for k in range(len(s.clocks[p])) if s.values[p][k]["v"] == target[p]]
                for p in watched
            }
            start = {p: rng.randrange(len(cands[p]) + 1) for p in watched}
            while True:
                floor = {p: cands[p][i] if i < len(cands[p]) else None for p, i in start.items()}
                if any(f is None for f in floor.values()):
                    expected = None
                else:
                    expected = least(
                        c for c in all_cuts(s)
                        if all(c[p] - 1 in cands[p] and c[p] - 1 >= floor[p] for p in watched)
                    )  # fmt: skip
                heads = reference.eliminate(cands, s.clocks, start)
                got = None
                if heads is not None:
                    got = reference.join_cut(
                        [(p, cands[p][i]) for p, i in heads.items()], s.clocks, procs
                    )
                self.assertEqual(got, expected)
                checked += 1
                if heads is None:
                    break
                # Acknowledge: every watched head moves one candidate on.
                start = {p: i + 1 for p, i in heads.items()}
        self.assertGreater(checked, 300)

    def test_witness_validation_accepts_exactly_the_satisfying_cuts(self):
        w = gen.DetectWorkload(3, supersteps=1, step_events=0)
        s = w.stream
        cuts = {tuple(c) for c in all_cuts(s)}
        satisfying = [c for c in cuts if w.holds(list(c))]
        self.assertTrue(satisfying)
        for c in satisfying:
            self.assertIsNone(reference.validate_witness(w, list(c)))
            self.assertGreater(c[0], w.planted[1])
        for c in itertools.islice(cuts - set(satisfying), 200):
            self.assertIsNotNone(reference.validate_witness(w, list(c)))
        inconsistent = next(
            list(c)
            for c in itertools.product(*(range(1, len(k) + 1) for k in s.clocks))
            if c not in cuts
        )
        self.assertIn("not consistent", reference.validate_witness(w, inconsistent))


if __name__ == "__main__":
    unittest.main()
