#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <catalog|xl|static-seeds> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default: `.bench_build` at the repository root) and
run from the repository root. Its standard output is passed through
unchanged; the last line is the JSON result. The build's own output goes
to standard error. The exit code is the binary's, or non-zero without a
result when the repository's crates are missing or the build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# What the benchmark needs from the repository besides its own directory.
REQUIRED = [
    "Cargo.toml",
    "crates/netsim/Cargo.toml",
    "crates/netsim/tests/golden/digests.txt",
]


def run_quiet(cmd):
    """Output of a short command, or "unknown" if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 prefix over the Rust sources and manifests the binary is
    built from, so results from a checkout without git history can still
    be told apart by code."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml"]
    for top in (ROOT / "crates", BENCH):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml")]
    for p in sorted(f for f in files if f.is_file() and "target" not in f.parts):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    missing = [f for f in REQUIRED if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    commit = run_quiet(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "none"
    tags = [
        "--commit", commit,
        "--source", source_digest(),
        "--rustc", run_quiet(["rustc", "--version"]),
    ]
    sys.stdout.flush()
    bench = subprocess.run([str(target / "release" / "perfbench"), *sys.argv[1:], *tags], cwd=ROOT)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
