#!/usr/bin/env python3
"""Runs the mutation catalog (tools/mutants/catalog.json).

Each catalog entry names a source file, an exact before-snippet, the
after-snippet that replaces it, and the ctest targets that must fail once
the mutation is in. The runner copies the working tree into a scratch
directory, configures one Release build per build flavor the catalog uses
("default", or "portable": the CI portable-kernels flags), checks that
every named target passes unmutated, and then, one entry at a time,
applies the mutation, rebuilds only the named targets, runs them and
restores the file. Each entry is reported as

  caught    every named target failed;
  survived  some named target still passed;
  stale     a before-snippet is not in the file exactly once, or the
            mutated tree does not build.

The gate is no survivors and no stale entries: the exit status is 0 only
then. A snippet pair may also be two lists of equal length, applied in
order, for a mutation that touches more than one place in its file.

Standard library only. Usage:

  python3 tools/mutants/run.py [--work DIR] [--jobs N] [--only ID ...]
                               [--json PATH]
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CATALOG = Path(__file__).resolve().parent / "catalog.json"

FLAVORS = {
    "default": ["-DCMAKE_BUILD_TYPE=Release"],
    # The CI portable-kernels job: AVX2+FMA clones left out, and -mfma
    # paired with -ffp-contract=off so the portable mul-then-add stays
    # unfused.
    "portable": [
        "-DCMAKE_BUILD_TYPE=Release",
        "-DMETALORA_DISABLE_AVX2=ON",
        "-DCMAKE_CXX_FLAGS=-mavx2 -mfma -ffp-contract=off",
    ],
}

TEST_TIMEOUT_S = 300


def log(msg):
    print(msg, flush=True)


def run(cmd, cwd=None):
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)


def snippets(entry):
    before, after = entry["before"], entry["after"]
    if isinstance(before, str):
        return [(before, after)]
    if len(before) != len(after):
        raise ValueError(f"{entry['id']}: before/after lists differ in length")
    return list(zip(before, after))


def copy_tree(dest):
    """Copies the working tree's tracked and unignored files to dest.

    Copies get fresh mtimes: a reused --work directory's build trees may
    hold objects compiled from a mutant after the working tree's file was
    last written, and would look current against its mtime.
    """
    listed = run(["git", "ls-files", "-z", "--cached", "--others",
                  "--exclude-standard"], cwd=REPO)
    if listed.returncode != 0:
        sys.exit("git ls-files failed:\n" + listed.stdout)
    for rel in filter(None, listed.stdout.split("\0")):
        src = REPO / rel
        if not src.is_file():
            continue  # deleted in the working tree
        dst = dest / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(src, dst)


def build(build_dir, targets, jobs):
    return run(["cmake", "--build", str(build_dir), "-j", str(jobs),
                "--target", *targets])


def failing(build_dir, targets):
    """The subset of targets whose ctest run fails."""
    failed = []
    for t in targets:
        res = run(["ctest", "--test-dir", str(build_dir), "-R", f"^{t}$",
                   "--no-tests=error", "--timeout", str(TEST_TIMEOUT_S)])
        if res.returncode != 0:
            failed.append(t)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", help="scratch directory (default: a new "
                    "temporary directory, removed afterwards)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--only", nargs="*", help="run only these entry ids")
    ap.add_argument("--json", help="also write the report as JSON here")
    args = ap.parse_args()

    entries = json.loads(CATALOG.read_text())["entries"]
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        sys.exit("catalog ids are not unique")
    if args.only:
        unknown = set(args.only) - set(ids)
        if unknown:
            sys.exit(f"unknown ids: {sorted(unknown)}")
        entries = [e for e in entries if e["id"] in args.only]

    start = time.monotonic()
    work = Path(args.work) if args.work else Path(
        tempfile.mkdtemp(prefix="mutants-"))
    work.mkdir(parents=True, exist_ok=True)
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    log(f"copying the working tree to {tree}")
    copy_tree(tree)

    results = []
    for flavor in sorted({e.get("build", "default") for e in entries}):
        group = [e for e in entries if e.get("build", "default") == flavor]
        build_dir = work / f"build-{flavor}"
        conf = run(["cmake", "-S", str(tree), "-B", str(build_dir),
                    *FLAVORS[flavor]])
        if conf.returncode != 0:
            sys.exit(f"configure ({flavor}) failed:\n{conf.stdout}")
        targets = sorted({t for e in group for t in e["targets"]})
        log(f"[{flavor}] baseline build of {', '.join(targets)}")
        res = build(build_dir, targets, args.jobs)
        if res.returncode != 0:
            sys.exit(f"baseline build ({flavor}) failed:\n{res.stdout[-4000:]}")
        broken = failing(build_dir, targets)
        if broken:
            sys.exit(f"baseline ({flavor}): unmutated targets fail: {broken}")

        for e in group:
            t0 = time.monotonic()
            path = tree / e["file"]
            original = path.read_text()
            text, status, detail = original, None, ""
            for before, after in snippets(e):
                count = text.count(before)
                if count != 1:
                    status = "stale"
                    detail = f"before-snippet found {count} times"
                    break
                text = text.replace(before, after)
            if status is None:
                path.write_text(text)
                try:
                    res = build(build_dir, e["targets"], args.jobs)
                    if res.returncode != 0:
                        status, detail = "stale", "mutant does not build"
                    else:
                        failed = failing(build_dir, e["targets"])
                        passed = [t for t in e["targets"] if t not in failed]
                        status = "survived" if passed else "caught"
                        if passed:
                            detail = "still passing: " + ", ".join(passed)
                finally:
                    path.write_text(original)
            secs = time.monotonic() - t0
            results.append({"id": e["id"], "build": flavor, "status": status,
                            "detail": detail, "seconds": round(secs, 1)})
            log(f"  {status:8s} {e['id']} ({secs:.0f} s) {detail}")

    total = time.monotonic() - start
    bad = [r for r in results if r["status"] != "caught"]
    log(f"{len(results) - len(bad)}/{len(results)} caught, "
        f"{sum(r['status'] == 'survived' for r in results)} survived, "
        f"{sum(r['status'] == 'stale' for r in results)} stale, "
        f"{total:.0f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"results": results, "seconds": round(total, 1)}, indent=2) + "\n")
    if not args.work:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
