"""Write cycle_classes.txt: one line per rotation class of the set partitions
of the cycle C_n (3 <= n <= 11) into blocks of odd size.

Each line is "n block|block|...", blocks comma-separated, and the class is
represented by its lexicographically least rotation.  The sweep workload
reads this file instead of enumerating the classes itself, which takes
seconds and would otherwise land in its set-up time.

Run from the repository root:  python3 perfbench/make_cycle_classes.py
"""

import itertools
import os

MAX_N = 11
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cycle_classes.txt")


def odd_block_partitions(n):
    def rec(remaining):
        if not remaining:
            yield ()
            return
        least, rest = remaining[0], remaining[1:]
        for extra in range(0, len(rest) + 1, 2):
            for comb in itertools.combinations(rest, extra):
                left = tuple(v for v in rest if v not in comb)
                for tail in rec(left):
                    yield ((least,) + comb,) + tail
    yield from rec(tuple(range(1, n + 1)))


def rotation_class(blocks, n):
    return min(tuple(sorted(tuple(sorted((v - 1 + r) % n + 1 for v in b))
                            for b in blocks))
               for r in range(n))


def main():
    lines = []
    for n in range(3, MAX_N + 1):
        reps = {rotation_class(blocks, n) for blocks in odd_block_partitions(n)}
        for blocks in sorted(reps):
            lines.append("%d %s" % (n, "|".join(",".join(map(str, b))
                                                for b in blocks)))
    with open(OUT, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("%d classes written to %s" % (len(lines), OUT))


if __name__ == "__main__":
    main()
