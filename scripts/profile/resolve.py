#!/usr/bin/env python3
"""Resolves `sampler.c` samples into per-function self and inclusive shares.

    resolve.py <exe> <sample-dir> [--top N] [--insn <fn>]

Reads every `sampler.<pid>.samples` / `.maps` pair in <sample-dir>, maps
each address to a function of <exe> with `nm` (outside <exe>, to the
mapped library's name), and keeps only the samples whose stack passes
through `System::try_finish`, the benchmark's measured window. A stack
frame is a real call frame: a function the compiler inlined is part of
its caller, so a build that inlines `try_finish` itself finds no
window and fails.

Prints, for the window's samples, each function's self share (the
sampled instruction is in it) and inclusive share (it is anywhere on the
stack). With --insn, lists the hottest instructions of the one function
whose name contains <fn> (the hottest such), as shares of its self
samples, with `objdump`'s disassembly and `addr2line`'s source line.
Standard library only.
"""

import argparse
import bisect
import collections
import glob
import os
import re
import struct
import subprocess
import sys
from array import array

HASH = re.compile(r"::h[0-9a-f]{16}$")
WINDOW = re.compile(r"System<.*>::try_finish")


def elf_loads(exe):
    """(p_offset, p_vaddr, p_filesz) of every PT_LOAD segment."""
    with open(exe, "rb") as f:
        head = f.read(64)
        phoff, = struct.unpack_from("<Q", head, 0x20)
        phentsize, phnum = struct.unpack_from("<HH", head, 0x36)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if p_type == 1:
            loads.append((p_offset, p_vaddr, p_filesz))
    return loads


def symbols(exe):
    """Sorted text symbols of `exe` as (start, end or None, name)."""
    out = subprocess.run(["nm", "-S", "-C", "--defined-only", exe],
                         check=True, capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            start, size, name = int(parts[0], 16), int(parts[1], 16), parts[3]
        elif len(parts) >= 3 and parts[1] in "tTwW":
            start, size, name = int(parts[0], 16), None, " ".join(parts[2:])
        else:
            continue
        name = HASH.sub("", name)
        if start not in syms or (syms[start][0] is None and size):
            syms[start] = (size, name)
    ordered = sorted(syms.items())
    return [s for s, _ in ordered], [(s, None if z is None else s + z, n)
                                     for s, (z, n) in ordered]


class Resolver:
    def __init__(self, exe, maps_text):
        self.exe = os.path.realpath(exe)
        self.loads = elf_loads(self.exe)
        self.starts, self.syms = symbols(self.exe)
        self.maps = []
        for line in maps_text.splitlines():
            f = line.split(None, 5)
            if len(f) < 6 or "x" not in f[1]:
                continue
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            self.maps.append((lo, hi, int(f[2], 16), f[5]))

    def vaddr(self, addr):
        """`addr`'s link-time address in the executable, or its library."""
        for lo, hi, off, path in self.maps:
            if lo <= addr < hi:
                if os.path.realpath(path) != self.exe:
                    return None, "[" + os.path.basename(path) + "]"
                file_off = addr - lo + off
                for p_off, p_vaddr, p_size in self.loads:
                    if p_off <= file_off < p_off + p_size:
                        return file_off - p_off + p_vaddr, None
        return None, "[unknown]"

    def function(self, v):
        i = bisect.bisect_right(self.starts, v) - 1
        if i < 0:
            return None
        start, end, name = self.syms[i]
        if end is not None and v >= end:
            return None
        return start, end, name


def load_samples(sample_dir):
    """Yields (maps_text, stacks, dropped) per sampled process."""
    for path in sorted(glob.glob(os.path.join(sample_dir, "sampler.*.samples"))):
        words = array("Q")
        with open(path, "rb") as f:
            words.frombytes(f.read())
        with open(path[: -len(".samples")] + ".maps") as f:
            maps_text = f.read()
        dropped, stacks, i = words[0] if words else 0, [], 1
        while i < len(words):
            n = words[i]
            stacks.append(words[i + 1: i + 1 + n])
            i += 1 + n
        yield maps_text, stacks, dropped


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("exe")
    ap.add_argument("dir")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--insn")
    args = ap.parse_args()

    total = dropped = 0
    window = []  # per window sample: [(vaddr or None, name)] innermost first
    for maps_text, stacks, d in load_samples(args.dir):
        res = Resolver(args.exe, maps_text)
        dropped += d
        total += len(stacks)
        seen = {}
        for stack in stacks:
            frames = []
            for k, addr in enumerate(stack):
                # A return address points past its call; step back into it.
                addr = addr if k == 0 else addr - 1
                if addr not in seen:
                    v, lib = res.vaddr(addr)
                    fn = res.function(v) if v is not None else None
                    seen[addr] = (v, lib if v is None else fn[2] if fn else "[unknown]")
                frames.append(seen[addr])
            if any(WINDOW.search(name) for _, name in frames):
                window.append(frames)

    n = len(window)
    print(f"samples: {total} total, {n} in the window "
          f"(stack through System::try_finish), {dropped} dropped")
    if n == 0:
        print("profile: no samples landed in the window", file=sys.stderr)
        return 1

    self_c, incl_c = collections.Counter(), collections.Counter()
    for frames in window:
        self_c[frames[0][1]] += 1
        for name in {name for _, name in frames}:
            incl_c[name] += 1
    print(f"\n{'self%':>6} {'incl%':>6}  function (window samples; top {args.top} by self)")
    for name, c in self_c.most_common(args.top):
        print(f"{100 * c / n:6.1f} {100 * incl_c[name] / n:6.1f}  {name}")
    print(f"\n{'incl%':>6} {'self%':>6}  function (top {args.top} by inclusive)")
    for name, c in incl_c.most_common(args.top):
        print(f"{100 * c / n:6.1f} {100 * self_c[name] / n:6.1f}  {name}")

    if args.insn:
        # Functions of the executable only: a library has no symbols here.
        matches = [nm for nm in self_c if args.insn in nm and not nm.startswith("[")]
        if not matches:
            print(f"\n--insn: no window samples in a function matching {args.insn!r}")
            return 0
        fn = max(matches, key=lambda nm: self_c[nm])
        insns = collections.Counter(f[0][0] for f in window if f[0][1] == fn)
        own = sum(insns.values())
        start, end, _ = res.function(next(iter(insns)))
        dis = {}
        if end is not None:
            out = subprocess.run(
                ["objdump", "-d", "-C", "--no-show-raw-insn", f"--start-address={start:#x}",
                 f"--stop-address={end:#x}", res.exe],
                check=True, capture_output=True, text=True).stdout
            for line in out.splitlines():
                m = re.match(r"\s*([0-9a-f]+):\s+(.*)", line)
                if m:
                    dis[int(m.group(1), 16)] = m.group(2).strip()
        top = insns.most_common(args.top)
        where = subprocess.run(["addr2line", "-e", res.exe] + [f"{v:#x}" for v, _ in top],
                               check=True, capture_output=True, text=True).stdout.split("\n")
        print(f"\nhottest instructions of {fn} ({own} self samples, "
              f"{100 * own / n:.1f}% of the window)")
        for (v, c), src in zip(top, where):
            src = "/".join(src.split("/")[-2:])
            print(f"{100 * c / own:6.1f}%  +{v - start:#06x}  {dis.get(v, '?'):<44} {src}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
