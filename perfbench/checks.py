"""Output checks for the perfbench workloads.

A check reads a transcript and the workload's expectations and returns the
number of answered items, the number of failure replies, and a list of
problems. Any problem makes the benchmark run fail.

Batch (`sosctl batch`): one line per record, in index order. Every `ok`
line names the record's family (or instance path), n and m; has
makespan >= lb (Eq. (1) is a lower bound on every schedule); has
makespan / lb <= 2 + 1/(m-2) (Theorem 3.3); and prints that ratio.

Serve (`sosctl serve`): one reply per request, in index order, of the kind
the request asks for. Submits number each tenant's jobs 0, 1, 2, ...;
every `ok schedule` counts all jobs submitted so far and has
makespan >= lb.
"""

import re
from dataclasses import dataclass, field

MAX_REPORTED = 10
FAILURE_CLASSES = ("error", "overload", "stale", "reject")

BATCH_OK = re.compile(
    r"(\d+) ok (\S+) n=(\d+) m=(\d+) makespan=(\d+) lb=(\d+) ratio=(\d+\.\d{4}) blocks=(\d+)"
)
SCHEDULE_OK = re.compile(r"(\d+) ok schedule tenant=(\S+) jobs=(\d+) makespan=(\d+) lb=(\d+)")


@dataclass
class Check:
    ok: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    n_problems: int = 0
    makespan_sum: int = 0
    blocks_sum: int = 0

    def problem(self, msg):
        self.n_problems += 1
        if len(self.problems) < MAX_REPORTED:
            self.problems.append(msg)

    @property
    def correct(self):
        return self.n_problems == 0


def theorem_3_3_holds(makespan, lb, m):
    """makespan / lb <= 2 + 1/(m-2), in exact integer arithmetic (m >= 3)."""
    return m >= 3 and makespan * (m - 2) <= lb * (2 * (m - 2) + 1)


def check_batch(text, expected):
    """Check `sosctl batch` stdout against [(label, n, m)] per record."""
    c = Check()
    lines = text.splitlines()
    if len(lines) != len(expected):
        c.problem(f"{len(lines)} output lines for {len(expected)} records")
    for i, (line, (label, n, m)) in enumerate(zip(lines, expected)):
        head = line.split(" ", 2)
        if head[0] != str(i):
            c.problem(f"line {i} carries index {head[0]!r}: {line!r}")
            continue
        if len(head) > 1 and head[1] in FAILURE_CLASSES:
            c.failed += 1
            continue
        fields = BATCH_OK.fullmatch(line)
        if not fields:
            c.problem(f"malformed line: {line!r}")
            continue
        _, got_label, got_n, got_m, mk, lb, ratio, blocks = fields.groups()
        got_n, got_m, mk, lb, blocks = int(got_n), int(got_m), int(mk), int(lb), int(blocks)
        if (got_label, got_n, got_m) != (label, n, m):
            c.problem(f"record {i} is {(label, n, m)} but the line says {line!r}")
        if lb < 1 or mk < lb:
            c.problem(f"makespan below the lower bound: {line!r}")
        elif not theorem_3_3_holds(mk, lb, got_m):
            c.problem(f"ratio above 2 + 1/(m-2) (Theorem 3.3): {line!r}")
        elif abs(float(ratio) - mk / lb) > 5.01e-5:
            c.problem(f"printed ratio is not makespan/lb: {line!r}")
        if blocks < 1:
            c.problem(f"empty schedule: {line!r}")
        c.ok += 1
        c.makespan_sum += mk
        c.blocks_sum += blocks
    return c


def check_serve(requests, replies):
    """Check `sosctl serve` replies against the request lines that drove it."""
    c = Check()
    if len(replies) != len(requests):
        c.problem(f"{len(replies)} replies for {len(requests)} requests")
    jobs = {}
    for i, (request, reply) in enumerate(zip(requests, replies)):
        words = request.split()
        head = reply.split(" ", 2)
        if head[0] != str(i):
            c.problem(f"reply {i} carries index {head[0]!r}: {reply!r}")
            continue
        if len(head) > 1 and head[1] in FAILURE_CLASSES:
            c.failed += 1
            continue
        verb, tenant = words[0], words[1]
        if verb == "open":
            opts = dict(w.split("=", 1) for w in words[2:])
            want = f"{i} ok open tenant={tenant} m={opts.get('m', 4)} scale={opts.get('scale', 100)}"
            if reply != want:
                c.problem(f"open answered {reply!r}, want {want!r}")
            jobs[tenant] = 0
        elif verb == "submit":
            want = f"{i} ok submit tenant={tenant} job={jobs.get(tenant)}"
            if reply != want:
                c.problem(f"submit answered {reply!r}, want {want!r}")
            jobs[tenant] = jobs.get(tenant, 0) + 1
        elif verb == "query":
            fields = SCHEDULE_OK.fullmatch(reply)
            if not fields or fields.group(2) != tenant:
                c.problem(f"query {request!r} answered {reply!r}")
                continue
            n, mk, lb = (int(x) for x in fields.group(3, 4, 5))
            if n != jobs.get(tenant):
                c.problem(f"schedule of {n} jobs, {jobs.get(tenant)} submitted: {reply!r}")
            if mk < lb:
                c.problem(f"makespan below the lower bound: {reply!r}")
            c.makespan_sum += mk
        else:
            c.problem(f"request kind the check does not know: {request!r}")
        c.ok += 1
    return c
