"""Two schemes that differ by one column swap, one good and one broken.

Six travellers share three bicycles over six stages.  In the first
scheme the three riders hand their bicycles over exactly when the
walkers catch up.  Swapping stage columns 3 and 4 keeps every row and
column sum intact, yet pushes each bicycle one stage past the point
where the walkers need it.
"""

from bikerelay import (
    canonical_word,
    decide_optimal,
    is_dyck,
    parse_scheme,
    simulate,
)

GOOD = parse_scheme(
    "6 6\n"
    + "1 1 1 0 0 0\n" * 3
    + "0 0 0 1 1 1\n" * 3
)
BROKEN = parse_scheme(
    "6 6\n"
    + "1 1 0 1 0 0\n" * 3
    + "0 0 1 0 1 1\n" * 3
)


def describe(name, M):
    verdict = decide_optimal(M)
    print(f"{name}: optimal={verdict.optimal}")
    for b in range(M.m - 1):
        w = canonical_word(M, b)
        marker = "" if is_dyck(w) else "   <- not a Dyck word"
        print(f"  boundary {b}: {w.letters or '(empty)'}{marker}")
    trace = simulate(M)
    print(f"  makespan {trace.makespan}, stalls {len(trace.stall_events)}")
    for stall in trace.stall_events:
        print(
            f"    traveller {stall.traveller} waits {stall.wait} at post "
            f"{stall.post} for ride number {stall.ride_index}"
        )
    print()


if __name__ == "__main__":
    describe("split riders", GOOD)
    describe("columns 3 and 4 swapped", BROKEN)
    print("The swap makes every execution wait: the bbbaaa boundary says three")
    print("travellers want bicycles before any of the three donors has arrived.")
