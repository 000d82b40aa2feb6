"""Record the triangle pool and the SHA-256 digests of op outputs.

Run from the root of a checkout, at the commit whose outputs are to be the
reference:

    PYTHONPATH=src python3 perfbench/make_golden.py

golden.json was written this way at the commit that added this benchmark,
so a later rewrite of fwpp must reproduce those outputs byte for byte. It takes a few minutes
(the depth-11 equation alone takes about one). Ops that cannot finish at
that commit (the sixth Markov rung, bigint_io) get no digest; their
invariants are still checked.
"""

from __future__ import annotations

import json
import os
import random
import sys
import tempfile

from fwpp import lattice, mutation

import checks
import workloads

POOL_SEED = 20130206
POOL_SIZE = 1500
BOUND = 12


def make_pool():
    """POOL_SIZE distinct random Fano triangles, coordinates in [-12, 12]."""
    rng = random.Random(POOL_SEED)
    pool, seen = [], set()
    while len(pool) < POOL_SIZE:
        pts = [(rng.randint(-BOUND, BOUND), rng.randint(-BOUND, BOUND)) for _ in range(3)]
        try:
            P = lattice.make_fano_triangle(*pts)
        except lattice.LatticeError:
            continue
        if P.vertices not in seen:
            seen.add(P.vertices)
            pool.append(P)
    return pool


def record(op, digests):
    result = op.run()
    op.check(result)
    if op.serialize is not None:
        digests[op.name] = checks.digest(op.serialize(result))
    print(f"  {op.name[:60]}", file=sys.stderr)


def main() -> int:
    digests = {}

    # Count lattice slices per corpus op: the cost the pool is sorted by.
    slices = [0]
    original = mutation.lattice_slice_interval

    def counting(*args):
        slices[0] += 1
        return original(*args)

    mutation.lattice_slice_interval = counting
    pool = []
    for P in make_pool():
        slices[0] = 0
        record(workloads.triangle_ops([P])[0], digests)
        pool.append([x for v in P.vertices for x in v] + [slices[0]])
    mutation.lattice_slice_interval = original
    pool.sort(key=lambda p: (p[6], p[:6]))

    for op in workloads.rung_ops()[:-1]:
        record(op, digests)
    for op in workloads.weights_ops(random.Random(0)):
        if op.name != "bigint_io":
            record(op, digests)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for op in workloads.cli_ops(workloads.CLI_POOL, tmp):
            record(op, digests)

    path = workloads.GOLDEN_PATH
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"pool": [\n')
        fh.write(",\n".join(json.dumps(p) for p in pool))
        fh.write('\n],\n"digests": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in sorted(digests.items())))
        fh.write("\n}}\n")
    print(f"wrote {len(pool)} pool triangles and {len(digests)} digests to "
          f"{os.path.relpath(path)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
