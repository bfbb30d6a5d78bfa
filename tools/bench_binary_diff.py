#!/usr/bin/env python3
"""Checks whether two checkouts build a byte-identical bench_e2e.

Usage: bench_binary_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT

Builds each checkout with its own bench_e2e/run.py build(), at one temporary
path because AXONN_CHECK puts __FILE__ in .rodata. Prints whether .text,
.rodata, .data and .data.rel.ro match, and the address (and offset mod 64)
of reference_ms(), the probe one-rank scores are scaled by. Exits 1 when a
section differs.
"""

import os
import runpy
import shutil
import subprocess
import sys
import tempfile

SECTIONS = [".text", ".rodata", ".data", ".data.rel.ro"]
SKIP = shutil.ignore_patterns(".git", ".bench_build", "build", "build-*")


def build(checkout, stage):
    """Builds bench_e2e from a copy of `checkout` at `stage`; returns its
    sections and the address of reference_ms()."""
    shutil.rmtree(stage, ignore_errors=True)
    shutil.copytree(checkout, stage, symlinks=True, ignore=SKIP)
    bench = runpy.run_path(os.path.join(stage, "bench_e2e", "run.py"))
    bench["build"]()
    sections = {}
    for s in SECTIONS:
        subprocess.run(["objcopy", "-O", "binary", "--only-section=" + s,
                        bench["BINARY"], stage + s], check=True)
        with open(stage + s, "rb") as f:
            sections[s] = f.read()
    symbols = subprocess.run(["nm", "-C", bench["BINARY"]], check=True,
                             capture_output=True, text=True).stdout
    address = next((int(line.split()[0], 16) for line in symbols.splitlines()
                    if line.endswith("reference_ms()")), None)
    return sections, address


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        stage = os.path.join(tmp, "checkout")
        (a, addr_a), (b, addr_b) = [build(os.path.abspath(c), stage)
                                    for c in sys.argv[1:]]
    for s in SECTIONS:
        verdict = "identical" if a[s] == b[s] else "DIFFERS"
        print(f"{s:14} {verdict} ({len(a[s])} vs {len(b[s])} bytes)")
    for label, addr in (("parent", addr_a), ("change", addr_b)):
        where = f"{addr:#x} (mod 64 = {addr % 64})" if addr else "not found"
        print(f"reference_ms() {label}: {where}")
    return int(a != b)


if __name__ == "__main__":
    sys.exit(main())
