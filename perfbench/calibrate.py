"""Fixed reference kernel that gauges the host's current speed.

Prints the seconds it took. The work is plain Python of the same kind the
simulator does (a heap of tuples, a list of records, CSV formatting) and
never changes, so its time moves only with the host. The
benchmark divides each CLI wall time by this kernel's time measured
around it; on a shared host whose speed drifts by tens of percent within
minutes, that ratio is steady where the raw seconds are not.
"""

import heapq
import time

N = 150_000

t0 = time.perf_counter()
heap, rows = [], []
for k in range(N):
    heapq.heappush(heap, ((k * 7919) % 100_003, k, "x"))
while heap:
    t, k, _ = heapq.heappop(heap)
    rows.append((t, k, t * 3))
text = "\n".join(f"{a},{b},{c}" for a, b, c in rows)
if len(text) < N:
    raise SystemExit("calibration kernel produced too little output")
print(time.perf_counter() - t0)
