"""Seeded input generators for the perfbench workloads.

Each generator writes its inputs into a work directory and returns a
Workload describing them, including what a correct output must say about
every record or request. The same seed always gives the same files; the
program under test receives only these files, never the seed.
"""

import os
import random
import subprocess
from dataclasses import dataclass, field

# Input sizes. Each child run of sosctl takes about a second
# on a 2-core host, so one measurement holds several repetitions.
TINY_SPECS = 100_000
WIDE_SPECS = 1_500
WIDE_FILE_EVERY = 100  # one @PATH instance file per this many records
WIDE_FILE_JOBS = 400
WIDE_FILE_MAX_SIZE = 1_000_000
WIDE_FIXED_HEAD = 64  # more than sosctl's in-flight window (4 x nproc) up to 16 cores
SERVE_REQUESTS = 2_500
SERVE_QUERY_EVERY = 5

FAMILIES = ["uniform-wide", "uniform-small", "bimodal", "heavy-tail", "near-one", "tiny"]
DEFAULT_SCALE = 720720  # Workload.Sos_gen.default_scale
SERVE_TENANTS = [("t0", 4), ("t1", 6), ("t2", 8), ("t3", 4)]
SERVE_SCALE = 100


@dataclass
class Workload:
    name: str
    kind: str  # "batch" or "serve"
    corpus: str = ""  # batch: spec corpus, relative to the work directory
    head: str = ""  # batch: a corpus of the first record alone, in the same form
    expected: list = field(default_factory=list)  # batch: (label, n, m) per record
    requests: list = field(default_factory=list)  # serve: request lines


def _rng(name, seed):
    return random.Random(f"{name}/{seed}")


def batch_tiny(seed, workdir, sosctl):
    """TINY_SPECS `uniform-small N 4` records, a third each with n = 3, 4, 5
    in seeded order, in the sosbin1 binary corpus form (converted by
    `sosctl export --specs-bin`)."""
    expected = [("uniform-small", 3 + i % 3, 4) for i in range(TINY_SPECS)]
    _rng("batch-tiny", seed).shuffle(expected)
    for name, records in (("tiny", expected), ("head", expected[:1])):
        with open(os.path.join(workdir, f"{name}.txt"), "w") as f:
            f.writelines(f"{label} {n} {m}\n" for label, n, m in records)
        subprocess.run(
            [sosctl, "export", f"{name}.txt", "--specs-bin", f"{name}.bin"],
            cwd=workdir, check=True, stdout=subprocess.DEVNULL,
        )
    return Workload("batch-tiny", "batch", corpus="tiny.bin", head="head.bin", expected=expected)


def _instance_file(rng, path, m):
    lines = [f"sos {m} {DEFAULT_SCALE} {WIDE_FILE_JOBS}\n"]
    lines += [
        f"{j} {rng.randint(1, WIDE_FILE_MAX_SIZE)} {rng.randint(1, DEFAULT_SCALE)}\n"
        for j in range(WIDE_FILE_JOBS)
    ]
    with open(path, "w") as f:
        f.writelines(lines)


def batch_wide(seed, workdir, sosctl):
    """WIDE_SPECS text records in seeded order: generator records rotate the
    six families with n spread evenly over 100..700 and m cycling through
    8, 12, 16; one record in WIDE_FILE_EVERY is an @PATH instance file
    (n = 400, seeded sizes up to 1e6). The record set is the same for
    every seed, so seeds change the instances but not the amount of work.
    The first WIDE_FIXED_HEAD records (the smallest n) keep their place, so
    the time to the first output line does not depend on the seed."""
    del sosctl
    rng = _rng("batch-wide", seed)
    gen = [
        (FAMILIES[i % len(FAMILIES)], 100 + (600 * i) // (WIDE_SPECS - 1), (8, 12, 16)[i % 3])
        for i in range(WIDE_SPECS)
    ]
    tail = gen[WIDE_FIXED_HEAD:]
    rng.shuffle(tail)
    gen[WIDE_FIXED_HEAD:] = tail
    os.makedirs(os.path.join(workdir, "inst"), exist_ok=True)
    expected, lines = [], []
    for i, (family, n, m) in enumerate(gen):
        if i % WIDE_FILE_EVERY == WIDE_FILE_EVERY // 2:
            path = f"inst/w{i:05d}.txt"
            _instance_file(rng, os.path.join(workdir, path), m)
            expected.append((path, WIDE_FILE_JOBS, m))
            lines.append(f"@{path}\n")
        else:
            expected.append((family, n, m))
            lines.append(f"{family} {n} {m}\n")
    for name, records in (("wide", lines), ("head", lines[:1])):
        with open(os.path.join(workdir, f"{name}.txt"), "w") as f:
            f.writelines(records)
    return Workload("batch-wide", "batch", corpus="wide.txt", head="head.txt", expected=expected)


def serve_mixed(seed, workdir, sosctl):
    """SERVE_REQUESTS protocol lines: an `open` per tenant, then a `query`
    every SERVE_QUERY_EVERY-th request and `submit`s otherwise, both
    rotating over the tenants, released in arrival order (release = index
    / 10). Every tenant's submits carry the same multiset of sizes 1-5 and
    reqs 10-69 (scale 100) for every seed, in a seeded order: the seed
    changes the schedules but not the total volume, so the amount of work
    barely depends on it."""
    del sosctl
    rng = _rng("serve-mixed", seed)
    lines = [f"open {t} m={m} scale={SERVE_SCALE}" for t, m in SERVE_TENANTS]
    kinds = ["query" if i % SERVE_QUERY_EVERY == 0 else "submit"
             for i in range(len(lines), SERVE_REQUESTS)]
    per_tenant = [kinds.count("submit") // len(SERVE_TENANTS)] * len(SERVE_TENANTS)
    for k in range(kinds.count("submit") % len(SERVE_TENANTS)):
        per_tenant[k] += 1
    jobs = []
    for count in per_tenant:
        pairs = [(1 + i % 5, 10 + (i // 5) % 60) for i in range(count)]
        rng.shuffle(pairs)
        jobs.append(iter(pairs))
    queries = submits = 0
    for i, kind in enumerate(kinds, start=len(lines)):
        if kind == "query":
            lines.append(f"query {SERVE_TENANTS[queries % len(SERVE_TENANTS)][0]}")
            queries += 1
        else:
            k = submits % len(SERVE_TENANTS)
            submits += 1
            size, req = next(jobs[k])
            lines.append(f"submit {SERVE_TENANTS[k][0]} {i // 10} {size} {req}")
    with open(os.path.join(workdir, "requests.txt"), "w") as f:
        f.writelines(line + "\n" for line in lines)
    return Workload("serve-mixed", "serve", corpus="requests.txt", requests=lines)


GENERATORS = {"batch-tiny": batch_tiny, "batch-wide": batch_wide, "serve-mixed": serve_mixed}
