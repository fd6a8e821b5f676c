"""CPU speed probe that shares one CPU with the program being timed.

Usage: ``python3 perfbench/calibrate.py CPU NICENESS``.  Pins itself to CPU,
lowers its priority, prints ``ready`` and then repeats a fixed pure-Python
chunk until it receives SIGTERM.  It then prints the number of chunks
completed and the CPU seconds they took.  The ratio is the speed the CPU
delivered while the program ran beside it.
"""

import os
import signal
import sys
import time

CHUNK = 600  # dict and float operations per chunk, about 70 us on an idle CPU


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.nice(int(sys.argv[2]))
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    print("ready", flush=True)
    table = {}
    chunks = 0
    start = last = time.process_time()
    while not stopped:
        for i in range(CHUNK):
            table[i & 255] = table.get(i & 255, 0.0) + i * 0.5
        chunks += 1
        last = time.process_time()
    print(chunks, last - start, flush=True)


if __name__ == "__main__":
    main()
