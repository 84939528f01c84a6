"""A fixed Python computation that gauges how fast the machine runs right now.

The benchmark starts it like a job, once per repetition, and divides job
times by its median time in the same run.  On a shared host the speed of
the same code drifts by a third within minutes; both sides of the ratio
drift together.  It imports nothing from boardpile, so no change to the
program can move it.  The mix follows the program's hot paths: an edge
loop like the firing rule, tuple keys in a dict, big-integer recurrence
steps, and JSON encoding and decoding.
"""

import json


def main() -> None:
    n = 1000
    pairs = [(i % n, (i * 7919 + 13) % n) for i in range(30_000)]
    stacks = [(i * 31) % 23 for i in range(n)]
    for _ in range(20):
        out = list(stacks)
        for u, v in pairs:
            a, b = stacks[u], stacks[v]
            if a > b:
                out[u] -= 1
                out[v] += 1
            elif b > a:
                out[v] -= 1
                out[u] += 1
        stacks = out
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(200_000):
        key = (i % 101, i % 103, i % 107)
        seen[key] = seen.get(key, 0) + 1
    a, b, c = 1, 2, 6
    for _ in range(8_000):
        a, b, c = b, c, 5 * c - 7 * b + 4 * a
    doc = json.loads(json.dumps({"rows": [list(range(i % 60)) for i in range(8_000)]}))
    print(sum(stacks), len(seen), c % 1_000_003, len(doc["rows"]))


if __name__ == "__main__":
    main()
