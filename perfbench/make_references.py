"""Regenerate references.json from the current fanetsim sources.

    python3 perfbench/make_references.py

For each workload it runs every op of scenario seeds 0 to POOL_SEEDS - 1 and
stores the output the benchmark compares: the ``repr`` of both throughputs
for scenario ops, and the exit code plus the SHA-256 of the tree dump, trace
file or validate report for CLI ops. A seed joins the workload's pool only
if all its ops succeed; a seed with an op that raises, exits nonzero or
breaks an invariant is stored under ``excluded`` with the error, listed on
standard error, and printed by every benchmark run. Run this only when a
change is meant to alter fanetsim's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from bench import OUT_DIR, POOL_SEEDS, REFERENCES, WORKLOADS, build_ops, check, execute


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    for workload in WORKLOADS:
        pool, excluded, outputs = [], {}, {}
        for seed in range(POOL_SEEDS[workload]):
            seed_outputs, error = {}, None
            for op in build_ops(workload, [seed]):
                try:
                    _, out = execute(op)
                except Exception as exc:
                    error = f"{op.key}: {type(exc).__name__}: {exc}"
                else:
                    problem = check(out, None)
                    error = problem and f"{op.key}: {problem}"
                if error is not None:
                    break
                if "exit" in out:
                    seed_outputs[op.key] = {"exit": out["exit"], "digest": out["digest"]}
                else:
                    seed_outputs[op.key] = {"p11": out["p11"], "p14": out["p14"]}
            if error is not None:
                excluded[str(seed)] = error
                print(f"{workload} seed {seed} excluded: {error}", file=sys.stderr)
            else:
                pool.append(seed)
                outputs.update(seed_outputs)
        refs[workload] = {"pool": pool, "excluded": excluded, "outputs": outputs}
        print(f"{workload}: {len(pool)} seeds in the pool, {len(excluded)} excluded, "
              f"{len(outputs)} references")
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
