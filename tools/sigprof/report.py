#!/usr/bin/env python3
"""Symbolizes sigprof samples and prints self and inclusive shares.

    python3 tools/sigprof/report.py sigprof.*.txt [--through worker_main] [--top 30]

Each input is one process's dump from sampler.c: sample rows (thread id,
timestamp, instruction pointer, return addresses) and that process's
/proc/self/maps. Addresses in the executable are symbolized with
`nm -C -n`, using load base = mapping start - file offset of the file's
first mapping. Addresses in
shared libraries are symbolized with their exported (`nm -D`) symbols;
glibc's unexported malloc internals (`_int_malloc`, `_int_free`,
`malloc_consolidate`, ...) sit between its exported malloc functions and
are bucketed together as one frame. Samples from several runs aggregate.

A frame's self share counts the samples it is the leaf of; its inclusive
share counts the samples it appears anywhere in. With `--through F`, only
samples whose stack holds a frame whose name contains F count, and shares
are of those samples.
"""

import argparse
import bisect
import collections
import os
import re
import signal
import subprocess
import sys

HASH_SUFFIX = re.compile(r"::h[0-9a-f]{16}$")
NM_LINE = re.compile(r"^([0-9a-f]+) (?:([0-9a-f]+) )?(\w) (.*)$")
MALLOC_EXPORTS = {
    "malloc", "free", "calloc", "realloc", "memalign", "posix_memalign",
    "aligned_alloc", "valloc", "pvalloc", "malloc_usable_size", "malloc_trim",
    "mallopt", "mallinfo", "mallinfo2", "malloc_stats", "malloc_info", "cfree",
    "reallocarray", "__libc_malloc", "__libc_free", "__libc_calloc",
    "__libc_realloc", "__libc_memalign", "__default_morecore",
}
MALLOC_BUCKET = "glibc malloc internals"


class Symbols:
    """Sorted (start, end, name) ranges of one ELF file."""

    def __init__(self, path, dynamic):
        cmd = ["nm", "-C", "-n", "-S", "--defined-only"] + (["-D"] if dynamic else [])
        out = subprocess.run(cmd + [path], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        rows = []
        for line in out.splitlines():
            m = NM_LINE.match(line)
            if m and m.group(3) in "TtWw":
                size = int(m.group(2), 16) if m.group(2) else None
                name = HASH_SUFFIX.sub("", m.group(4).split("@")[0])
                rows.append((int(m.group(1), 16), size, name))
        rows.sort()
        self.starts, self.ends, self.names = [], [], []
        for i, (start, size, name) in enumerate(rows):
            # A symbol without a size runs to the next one.
            nxt = rows[i + 1][0] if i + 1 < len(rows) else start + 1
            self.starts.append(start)
            self.ends.append(start + size if size else nxt)
            self.names.append(name)
        # malloc.o's unexported functions lie between its exports and the
        # neighbouring objects' exports: the span from the end of the last
        # other export before the first malloc export to the start of the
        # first other export after the last one.
        family = [i for i, n in enumerate(self.names) if n in MALLOC_EXPORTS]
        self.malloc_span = None
        if family:
            first, last = self.starts[family[0]], self.starts[family[-1]]
            before = [e for s, e, n in zip(self.starts, self.ends, self.names)
                      if s < first and n not in MALLOC_EXPORTS]
            after = [s for s, n in zip(self.starts, self.names)
                     if s > last and n not in MALLOC_EXPORTS]
            self.malloc_span = (max(before, default=first), min(after, default=self.ends[family[-1]]))

    def lookup(self, offset):
        i = bisect.bisect_right(self.starts, offset) - 1
        if i >= 0 and offset < self.ends[i]:
            return self.names[i]
        if self.malloc_span and self.malloc_span[0] <= offset < self.malloc_span[1]:
            return MALLOC_BUCKET
        return None


class Process:
    """One dump: its mappings and a symbolizer over them."""

    def __init__(self, exe, maps, cache):
        self.exe = exe
        # A file's load base is its first mapping's start minus that
        # mapping's file offset (a text segment's own start - offset is
        # off by the linker's padding between file and memory layout).
        self.base = {}
        for start, _, offset, path, _ in maps:
            self.base[path] = min(self.base.get(path, start - offset), start - offset)
        self.maps = sorted(m[:4] for m in maps if "x" in m[4])
        self.cache = cache

    def symbolize(self, addr):
        i = bisect.bisect_right(self.maps, (addr, float("inf"))) - 1
        if i < 0 or addr >= self.maps[i][1]:
            return "[unknown]"
        path = self.maps[i][3]
        if not path.startswith("/"):
            return f"[{path or 'anon'}]"
        key = (path, path != self.exe)
        if key not in self.cache:
            self.cache[key] = Symbols(path, dynamic=key[1])
        name = self.cache[key].lookup(addr - self.base[path])
        lib = os.path.basename(path)
        if path == self.exe:
            return name or "[exe]"
        return name if name == MALLOC_BUCKET else f"{lib}:{name or '<unexported>'}"


def load(path, cache):
    exe, samples, maps = None, [], []
    with open(path) as f:
        for line in f:
            if line.startswith("# sigprof"):
                exe = line.split("exe=", 1)[1].split()[0]
            elif line.startswith("S "):
                parts = line.split()
                frames = [int(x, 16) for x in parts[3:]]
                samples.append((int(parts[1]), frames))
            elif line.startswith("M "):
                fields = line[2:].split(None, 5)
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                name = fields[5].strip() if len(fields) > 5 else ""
                maps.append((lo, hi, int(fields[2], 16), name, fields[1]))
    return Process(exe, maps, cache), samples


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet when piped into head
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dumps", nargs="+")
    parser.add_argument("--through", help="keep samples whose stack has a frame containing this")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()

    cache = {}
    self_counts, incl_counts = collections.Counter(), collections.Counter()
    total = kept = 0
    for path in args.dumps:
        proc, samples = load(path, cache)
        for _tid, frames in samples:
            total += 1
            # Return addresses point after their call; step back into it.
            names = [proc.symbolize(a if k == 0 else a - 1) for k, a in enumerate(frames)]
            if args.through and not any(args.through in n for n in names):
                continue
            kept += 1
            self_counts[names[0]] += 1
            for name in set(names):
                incl_counts[name] += 1
    if not kept:
        sys.exit(f"no samples of {total} matched")
    scope = f" through '{args.through}'" if args.through else ""
    print(f"{kept} samples{scope} of {total} in {len(args.dumps)} dump(s)")
    for title, counts in (("self", self_counts), ("inclusive", incl_counts)):
        print(f"\n{title:>9}  frame")
        for name, n in counts.most_common(args.top):
            print(f"{100 * n / kept:8.1f}%  {name}")


if __name__ == "__main__":
    main()
